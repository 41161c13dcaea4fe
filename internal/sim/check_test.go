package sim

// Coverage for the CheckTopology error paths and the engine's defensive
// drop branch on unroutable destinations, using a hand-built fake topology.

import (
	"slices"
	"strings"
	"testing"
)

// fakeTopology is a minimal hand-wired Topology for error-path tests.
type fakeTopology struct {
	nodes int
	out   [][]int
	heads [][]int
	dist  func(u, v int) int
	next  func(u, v int) (int, int)
}

func (f *fakeTopology) Nodes() int              { return f.nodes }
func (f *fakeTopology) Couplers() int           { return len(f.heads) }
func (f *fakeTopology) OutCouplers(u int) []int { return f.out[u] }
func (f *fakeTopology) Heads(c int) []int       { return f.heads[c] }

// RouteBlocks expands the fake's hand routing into per-node blocks, one
// row and one column class per node, on every call, so a test may rewire
// dist and next until it hands the fake over. The delivers-here bit is the
// exact head-set membership the legacy engine tests per transmission:
// dst ∈ Heads(chosen coupler).
func (f *fakeTopology) RouteBlocks() *RouteBlocks {
	n := f.nodes
	id := make([]int32, n)
	for u := range id {
		id[u] = int32(u)
	}
	b := &RouteBlocks{Row: id, Col: slices.Clone(id)}
	maxd := 0
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			maxd = max(maxd, f.dist(u, dst))
		}
	}
	var w blockWriter
	w.start(b, n, n, maxd)
	codes := make([]uint64, (n+1)/2) // 32-bit lanes
	for u := 0; u < n; u++ {
		var routes []RouteEntry
		clear(codes)
		for dst := 0; dst < n; dst++ {
			c, hop := f.next(u, dst)
			delivers := c >= 0 && c < len(f.heads) && slices.Contains(f.heads[c], dst)
			if delivers {
				hop = -1 // Entry reads dst
			}
			route := MakeRouteEntry(c, hop, delivers)
			i := slices.Index(routes, route)
			if i < 0 {
				i, routes = len(routes), append(routes, route)
			}
			codes[dst/2] |= uint64(i) << (dst % 2 * 32)
			d := f.dist(u, dst)
			if d < 0 {
				d = int(cellMask(b.DistShift)) // unreachable
			}
			pack(b.Dists, b.DistShift, u*n+dst, d)
		}
		w.row(codes, 32, routes)
	}
	return b
}

// ringFake wires n nodes into a directed cycle (coupler i: node i -> i+1).
func ringFake(n int) *fakeTopology {
	f := &fakeTopology{nodes: n}
	for u := 0; u < n; u++ {
		f.out = append(f.out, []int{u})
		f.heads = append(f.heads, []int{(u + 1) % n})
	}
	f.dist = func(u, v int) int { return (v - u + n) % n }
	f.next = func(u, v int) (int, int) {
		if u == v {
			return -1, u
		}
		return u, (u + 1) % n
	}
	return f
}

func TestCheckTopologyAcceptsSaneFake(t *testing.T) {
	if err := CheckTopology(ringFake(4)); err != nil {
		t.Fatal(err)
	}
}

// A one-node network has no destination for uniform traffic (whose
// Intn(n-1) would panic in the generator), so it is rejected up front.
func TestCheckTopologyRejectsSingleNode(t *testing.T) {
	err := CheckTopology(ringFake(1))
	if err == nil || err.Error() != "sim: a network needs at least 2 nodes, this topology has 1" {
		t.Fatalf("expected a too-small error, got %v", err)
	}
}

func TestCheckTopologyRejectsMuteNode(t *testing.T) {
	f := ringFake(4)
	f.out[2] = nil // node 2 cannot transmit
	err := CheckTopology(f)
	if err == nil || !strings.Contains(err.Error(), "cannot transmit") {
		t.Fatalf("expected a mute-node error, got %v", err)
	}
}

func TestCheckTopologyRejectsHeadlessCoupler(t *testing.T) {
	f := ringFake(4)
	f.heads[1] = nil // coupler 1 has no listeners
	// Keep reachability intact from the checker's viewpoint so the coupler
	// check (which runs after the node checks) is the one that fires.
	err := CheckTopology(f)
	if err == nil || !strings.Contains(err.Error(), "no listeners") {
		t.Fatalf("expected a headless-coupler error, got %v", err)
	}
}

func TestCheckTopologyRejectsUnreachablePair(t *testing.T) {
	f := ringFake(4)
	dist := f.dist
	f.dist = func(u, v int) int {
		if u == 0 && v == 2 {
			return -1 // digraph.Unreachable
		}
		return dist(u, v)
	}
	err := CheckTopology(f)
	if err == nil || !strings.Contains(err.Error(), "cannot reach") {
		t.Fatalf("expected an unreachable-pair error, got %v", err)
	}
}

// TestCheckTopologyErrors pins the exact error of each rejection: the
// first failing node or (u, v) pair, read from the route blocks.
func TestCheckTopologyErrors(t *testing.T) {
	cut := func(pairs ...[2]int) func(*fakeTopology) {
		return func(f *fakeTopology) {
			dist := f.dist
			f.dist = func(u, v int) int {
				for _, p := range pairs {
					if p == [2]int{u, v} {
						return -1 // digraph.Unreachable
					}
				}
				return dist(u, v)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*fakeTopology)
		want   string
	}{
		{"mute node", func(f *fakeTopology) { f.out[2] = nil }, "sim: node 2 cannot transmit"},
		{"unreachable pair", cut([2]int{0, 2}), "sim: node 0 cannot reach 2"},
		{"first unreachable pair", cut([2]int{1, 3}, [2]int{1, 0}, [2]int{2, 0}), "sim: node 1 cannot reach 0"},
		{"unreachable before mute", func(f *fakeTopology) {
			cut([2]int{1, 3})(f)
			f.out[2] = nil
		}, "sim: node 1 cannot reach 3"},
		{"mute before unreachable", func(f *fakeTopology) {
			cut([2]int{3, 0})(f)
			f.out[2] = nil
		}, "sim: node 2 cannot transmit"},
		{"headless coupler", func(f *fakeTopology) { f.heads[1] = nil }, "sim: coupler 1 has no listeners"},
		{"nodes before couplers", func(f *fakeTopology) {
			cut([2]int{3, 1})(f)
			f.heads[0] = nil
		}, "sim: node 3 cannot reach 1"},
	} {
		f := ringFake(4)
		tc.mutate(f)
		if err := CheckTopology(f); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// The defensive drop in Step phase 1: a queued message whose destination
// has no route must be count-dropped (Dropped and Unroutable), not wedge
// the queue forever.
func TestEngineDropsUnroutableDestination(t *testing.T) {
	f := ringFake(3)
	next := f.next
	f.next = func(u, v int) (int, int) {
		if v == 2 {
			return -1, -1 // destination 2 unroutable from everywhere
		}
		return next(u, v)
	}
	e := NewEngine(f, Config{Seed: 1})
	e.Inject(0, 2) // unroutable
	e.Inject(0, 1) // routable, queued behind it
	e.Step()
	e.Step()
	m := e.Metrics()
	if m.Dropped != 1 || m.Unroutable != 1 {
		t.Fatalf("dropped=%d unroutable=%d, want 1, 1: %v", m.Dropped, m.Unroutable, m)
	}
	if m.Delivered != 1 {
		t.Fatalf("routable message stuck behind the dropped one: %v", m)
	}
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		t.Fatalf("conservation violated: %v", m)
	}
}

// growFake is a DynamicTopology that breaks the masking contract: its
// first event adds a coupler to node 0's out-list (out) or a listener to
// coupler 0 (!out), past the pristine length.
type growFake struct {
	*fakeTopology
	out, grown bool
}

func (g *growFake) Reset() { g.grown = false }

func (g *growFake) Advance(slot int) TopologyChange {
	if g.grown || slot < 1 {
		return TopologyChange{}
	}
	g.grown = true
	return TopologyChange{Changed: true}
}

func (g *growFake) OutCouplers(u int) []int {
	if g.grown && g.out && u == 0 {
		return []int{0, 1}
	}
	return g.fakeTopology.OutCouplers(u)
}

func (g *growFake) Heads(c int) []int {
	if g.grown && !g.out && c == 0 {
		return []int{1, 2}
	}
	return g.fakeTopology.Heads(c)
}

// A dynamic topology may only mask its pristine lists: a list that grows
// past its pristine length after an event makes the engine panic with the
// contract in the message, instead of running on a snapshot that no
// longer fits it.
func TestEngineRejectsGrowingDynamicTopology(t *testing.T) {
	for _, tc := range []struct {
		out  bool
		want string
	}{
		{true, "sim: dynamic topology grew the out-list of node 0 to 2 entries, past its pristine 1: a DynamicTopology may only mask its pristine lists"},
		{false, "sim: dynamic topology grew the head-list of coupler 0 to 2 entries, past its pristine 1: a DynamicTopology may only mask its pristine lists"},
	} {
		e := NewEngine(&growFake{fakeTopology: ringFake(4), out: tc.out}, Config{Seed: 1})
		e.Step()
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("out=%v: panic %v, want %q", tc.out, got, tc.want)
				}
			}()
			e.Step()
		}()
	}
}
