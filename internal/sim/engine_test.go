package sim

// Focused engine tests for the paths the original suite under-covered:
// hot-potato deflection, multi-wavelength arbitration, round-robin
// fairness, the ring-buffer FIFOs, and the precomputed routing tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"otisnet/internal/kautz"
)

// --- deflection path ---

func TestDeflectionDeterminism(t *testing.T) {
	topo := skTopology(3, 2, 2)
	a := Run(topo, UniformTraffic{Rate: 0.8}, 400, 200, Config{Seed: 31, Deflection: true})
	b := Run(topo, UniformTraffic{Rate: 0.8}, 400, 200, Config{Seed: 31, Deflection: true})
	if a != b {
		t.Fatalf("deflection runs with equal seeds diverge:\n%v\n%v", a, b)
	}
	if a.Deflections == 0 {
		t.Fatal("saturated deflection run never deflected; test is vacuous")
	}
}

func TestDeflectionConservationNoLoss(t *testing.T) {
	// With unbounded queues, deflection must not lose or duplicate
	// messages: injected == delivered + backlog at every slot (no drops).
	topo := skTopology(3, 2, 2)
	e := NewEngine(topo, Config{Seed: 17, Deflection: true})
	rng := rand.New(rand.NewSource(19))
	for s := 0; s < 400; s++ {
		for _, inj := range (UniformTraffic{Rate: 0.9}).Generate(nil, s, topo.Nodes(), rng) {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		m := e.Metrics()
		if m.Dropped != 0 {
			t.Fatalf("slot %d: unbounded deflection run dropped %d", s, m.Dropped)
		}
		if m.Injected != m.Delivered+m.Backlog {
			t.Fatalf("slot %d: conservation violated: %v", s, m)
		}
	}
	if e.Metrics().Deflections == 0 {
		t.Fatal("no deflections occurred; raise the load")
	}
}

func TestDeflectionDrainsEventually(t *testing.T) {
	topo := skTopology(2, 2, 2)
	m := Run(topo, UniformTraffic{Rate: 1}, 16, 10000, Config{Seed: 23, Deflection: true})
	if m.Injected == 0 || m.Backlog != 0 || m.Delivered != m.Injected {
		t.Fatalf("deflection run failed to drain: %v", m)
	}
}

// --- wavelengths > 1 arbitration ---

func TestWavelengthsCapacityBoundPerSlot(t *testing.T) {
	// Per slot, total transmissions (delivered + relayed) cannot exceed
	// couplers x W. Count deliveries per slot on a single-hop network where
	// every grant is a delivery.
	const w = 2
	topo := popsTopology(4, 2) // 4 couplers, single hop
	e := NewEngine(topo, Config{Seed: 29, Wavelengths: w})
	rng := rand.New(rand.NewSource(37))
	prev := 0
	for s := 0; s < 300; s++ {
		for _, inj := range (UniformTraffic{Rate: 1.0}).Generate(nil, s, topo.Nodes(), rng) {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		m := e.Metrics()
		if perSlot := m.Delivered - prev; perSlot > topo.Couplers()*w {
			t.Fatalf("slot %d: %d deliveries > couplers(%d) x W(%d)",
				s, perSlot, topo.Couplers(), w)
		}
		prev = m.Delivered
	}
}

func TestWavelengthsIncreaseSaturatedThroughput(t *testing.T) {
	topo := skTopology(6, 3, 2)
	m1 := Run(topo, UniformTraffic{Rate: 0.9}, 500, 0, Config{Seed: 41, Wavelengths: 1})
	m4 := Run(topo, UniformTraffic{Rate: 0.9}, 500, 0, Config{Seed: 41, Wavelengths: 4})
	if m4.Delivered <= m1.Delivered {
		t.Fatalf("W=4 should outdeliver W=1 under saturation: %d vs %d",
			m4.Delivered, m1.Delivered)
	}
}

func TestWavelengthsDeterminism(t *testing.T) {
	topo := skTopology(3, 2, 2)
	a := Run(topo, UniformTraffic{Rate: 0.7}, 300, 300, Config{Seed: 43, Wavelengths: 3})
	b := Run(topo, UniformTraffic{Rate: 0.7}, 300, 300, Config{Seed: 43, Wavelengths: 3})
	if a != b {
		t.Fatalf("W=3 runs with equal seeds diverge:\n%v\n%v", a, b)
	}
}

func TestWavelengthsBeyondNodeCountCapTheWindow(t *testing.T) {
	// No coupler has more than N senders in a slot, so any W >= N runs as
	// W = N, and the grant windows stay at most F (the fan-in, here t=3 <
	// N) entries wide however large W is.
	topo := popsTopology(3, 3)
	n, f := topo.Nodes(), FanIn(topo)
	for _, defl := range []bool{false, true} {
		want := Run(topo, UniformTraffic{Rate: 0.9}, 200, 200, Config{Seed: 53, Deflection: defl, Wavelengths: n})
		cfg := Config{Seed: 53, Deflection: defl, Wavelengths: 1 << 16}
		e := NewEngine(topo, cfg)
		if got := e.Run(UniformTraffic{Rate: 0.9}, 200, 200, cfg); got != want {
			t.Fatalf("deflection=%v: W=2^16 run differs from W=N:\n%v\n%v", defl, got, want)
		}
		if f != 3 || len(e.grantSlot) > topo.Couplers()*f {
			t.Fatalf("deflection=%v: %d window entries for %d couplers, want at most F=%d (want 3) each",
				defl, len(e.grantSlot), topo.Couplers(), f)
		}
	}
}

func TestNoLossUnboundedWavelengths(t *testing.T) {
	topo := popsTopology(3, 3)
	m := Run(topo, UniformTraffic{Rate: 0.9}, 200, 400, Config{Seed: 47, Wavelengths: 2})
	if m.Dropped != 0 {
		t.Fatalf("unbounded W=2 run dropped %d messages", m.Dropped)
	}
	if m.Injected != m.Delivered+m.Backlog {
		t.Fatalf("conservation violated: %v", m)
	}
}

// --- round-robin fairness ---

func TestRoundRobinGrantsCycleFairly(t *testing.T) {
	// POPS(n,1): n nodes all sharing one coupler of W wavelengths, with
	// more permanently backlogged senders than W. Every slot must grant the
	// W nodes that follow the cursor — cursor, cursor+1, ... mod n — and
	// the cursor must then move past the last of them, so over n slots
	// every node is granted exactly W times.
	for _, w := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			n := 2*w + 1
			topo := popsTopology(n, 1)
			if topo.Couplers() != 1 {
				t.Fatalf("POPS(%d,1) should have a single coupler, has %d", n, topo.Couplers())
			}
			e := NewEngine(topo, Config{Seed: 1, Wavelengths: w})
			per := 2 * w
			for i := 0; i < per; i++ {
				for u := 0; u < n; u++ {
					e.Inject(u, (u+1)%n)
				}
			}
			granted := make([]int, n)
			prev := make([]int, n)
			for u := range prev {
				prev[u] = per
			}
			cursor := 0
			for s := 0; s < n; s++ {
				e.Step()
				for u := 0; u < n; u++ {
					l := e.queues[u].len()
					sent, want := prev[u]-l, 0
					if (u-cursor+n)%n < w {
						want = 1 // one of the W nodes that follow the cursor
					}
					if sent != want {
						t.Fatalf("slot %d (cursor %d): node %d sent %d messages, want %d", s, cursor, u, sent, want)
					}
					granted[u] += sent
					prev[u] = l
				}
				cursor = (cursor + w) % n
			}
			for _, g := range granted {
				if g != w {
					t.Fatalf("after %d slots grants are %v, want %d each (round-robin)", n, granted, w)
				}
			}
		})
	}
}

func TestRRCursorAdvancesPastLastWinner(t *testing.T) {
	// Two contenders on one coupler: winners must alternate slot by slot.
	topo := popsTopology(2, 1)
	e := NewEngine(topo, Config{Seed: 1})
	for i := 0; i < 4; i++ {
		e.Inject(0, 1)
		e.Inject(1, 0)
	}
	winners := []int{}
	prev := []int{4, 4}
	for s := 0; s < 4; s++ {
		e.Step()
		for u := 0; u < 2; u++ {
			if l := e.queues[u].len(); l != prev[u] {
				winners = append(winners, u)
				prev[u] = l
			}
		}
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if winners[i] != want[i] {
			t.Fatalf("grant order %v, want %v", winners, want)
		}
	}
}

// --- ring buffer ---

func TestRingFIFOOrderAcrossWraparound(t *testing.T) {
	var r ring
	next, expect := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			*r.push() = qmsg{id: int32(next)}
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if m := r.pop(); int(m.id) != expect {
				t.Fatalf("popped ID %d, want %d", m.id, expect)
			}
			expect++
		}
	}
	push(3)
	pop(2)  // head advances, leaving wrap room
	push(6) // forces wraparound and growth
	pop(7)
	if r.len() != 0 {
		t.Fatalf("ring should be empty, len=%d", r.len())
	}
	push(5)
	pop(5)
}

func TestRingGrowPreservesOrder(t *testing.T) {
	var r ring
	// Interleave pushes and pops so head is mid-buffer when growth hits.
	id := 0
	for i := 0; i < 3; i++ {
		*r.push() = qmsg{id: int32(id)}
		id++
	}
	r.pop()
	r.pop()
	for i := 0; i < 20; i++ { // repeated growth with head offset
		*r.push() = qmsg{id: int32(id)}
		id++
	}
	want := 2
	for r.len() > 0 {
		if m := r.pop(); int(m.id) != want {
			t.Fatalf("popped %d, want %d", m.id, want)
		}
		want++
	}
}

// --- precomputed route tables ---

func TestPointToPointRouteTableMatchesScan(t *testing.T) {
	g := kautz.NewDeBruijn(2, 3).Digraph()
	topo := NewPointToPointTopology(g)
	b := topo.RouteBlocks()
	for u := 0; u < topo.Nodes(); u++ {
		for v := 0; v < topo.Nodes(); v++ {
			if u == v {
				continue
			}
			r := b.Entry(u, v)
			c, h := r.Coupler(), r.NextHop()
			if c < 0 {
				t.Fatalf("no route %d -> %d on strongly connected digraph", u, v)
			}
			// The table must make strict progress via an actual out-coupler.
			if b.Distance(h, v) >= b.Distance(u, v) {
				t.Fatalf("route %d -> %d via %d makes no progress", u, v, h)
			}
			found := false
			for _, oc := range topo.OutCouplers(u) {
				if oc == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("route %d -> %d uses coupler %d not owned by %d", u, v, c, u)
			}
		}
	}
}

func TestRouteTableSelfEntries(t *testing.T) {
	topo := popsTopology(3, 2)
	b := topo.RouteBlocks()
	for u := 0; u < topo.Nodes(); u++ {
		if r := b.Entry(u, u); r.Coupler() != -1 || r.NextHop() != u || b.Distance(u, u) != 0 {
			t.Fatalf("Entry(%d,%d) = (%d,%d), distance %d; want (-1,%d), 0", u, u, r.Coupler(), r.NextHop(), b.Distance(u, u), u)
		}
	}
}

// --- incremental backlog ---

func TestBacklogMatchesQueueScan(t *testing.T) {
	topo := skTopology(3, 2, 2)
	e := NewEngine(topo, Config{Seed: 53, MaxQueue: 3})
	rng := rand.New(rand.NewSource(59))
	for s := 0; s < 300; s++ {
		for _, inj := range (UniformTraffic{Rate: 0.8}).Generate(nil, s, topo.Nodes(), rng) {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		scan := 0
		for u := range e.queues {
			scan += e.queues[u].len()
		}
		if m := e.Metrics(); m.Backlog != scan {
			t.Fatalf("slot %d: incremental backlog %d != queue scan %d", s, m.Backlog, scan)
		}
	}
}
