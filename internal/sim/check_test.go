package sim

// Coverage for the CheckTopology error paths and the engine's defensive
// drop branch on unroutable destinations, using a hand-built fake topology.

import (
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
func (f *fakeTopology) Distance(u, v int) int   { return f.dist(u, v) }
func (f *fakeTopology) NextCoupler(u, v int) (int, int) {
	return f.next(u, v)
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

// blockedFake lends a fakeTopology's routes and distances as per-node
// blocks (BlockTabled), encoded by ExpandTopology's row writer, so
// CheckTopology takes its block-scanning path.
type blockedFake struct {
	*fakeTopology
	blocks RouteBlocks
}

func (b blockedFake) RouteBlocks() *RouteBlocks { return &b.blocks }

func withBlocks(f *fakeTopology) blockedFake { return blockedFake{f, ExpandTopology(f)} }

// TestCheckTopologyErrors pins the exact error of each rejection, on the
// block-scanning path and the Distance-only path alike: both must report
// the first failing node or (u, v) pair.
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
		for _, path := range []struct {
			name string
			topo Topology
		}{{"blocks", withBlocks(f)}, {"distance", f}} {
			err := CheckTopology(path.topo)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (%s path): got %v, want %q", tc.name, path.name, err, tc.want)
			}
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
