package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"otisnet/internal/digraph"
	"otisnet/internal/hypergraph"
	"otisnet/internal/kautz"
	"otisnet/internal/pops"
	"otisnet/internal/stackkautz"
)

func popsTopology(t, g int) Topology {
	return NewStackTopology(pops.New(t, g).StackGraph())
}

func skTopology(s, d, k int) Topology {
	return NewStackTopology(stackkautz.New(s, d, k).StackGraph())
}

func TestCheckTopology(t *testing.T) {
	if err := CheckTopology(popsTopology(4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := CheckTopology(skTopology(3, 2, 2)); err != nil {
		t.Fatal(err)
	}
	b := kautz.NewDeBruijn(2, 3)
	if err := CheckTopology(NewPointToPointTopology(b.Digraph())); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTopologyRejectsDisconnected(t *testing.T) {
	g := digraph.New(3)
	g.AddArc(0, 1)
	g.AddArc(1, 0)
	g.AddArc(2, 0) // 2 unreachable from 0
	if err := CheckTopology(NewPointToPointTopology(g)); err == nil {
		t.Fatal("disconnected topology should fail the check")
	}
}

func TestStackTopologyShape(t *testing.T) {
	topo := popsTopology(4, 2)
	if topo.Nodes() != 8 || topo.Couplers() != 4 {
		t.Fatalf("POPS(4,2) topology: nodes=%d couplers=%d", topo.Nodes(), topo.Couplers())
	}
	// Every node can transmit on g = 2 couplers and heads have size t = 4.
	for u := 0; u < 8; u++ {
		if len(topo.OutCouplers(u)) != 2 {
			t.Fatalf("node %d out couplers = %d, want 2", u, len(topo.OutCouplers(u)))
		}
	}
	for c := 0; c < 4; c++ {
		if len(topo.Heads(c)) != 4 {
			t.Fatalf("coupler %d heads = %d, want 4", c, len(topo.Heads(c)))
		}
	}
}

func TestRoutesMakeProgress(t *testing.T) {
	topo := skTopology(2, 2, 3)
	b := topo.RouteBlocks()
	for u := 0; u < topo.Nodes(); u++ {
		for v := 0; v < topo.Nodes(); v++ {
			if u == v {
				continue
			}
			r := b.Entry(u, v)
			if r.Coupler() < 0 {
				t.Fatalf("no next coupler %d -> %d", u, v)
			}
			if b.Distance(r.NextHop(), v) >= b.Distance(u, v) {
				t.Fatalf("no progress %d -> %d via %d", u, v, r.NextHop())
			}
		}
	}
}

func TestPointToPointShape(t *testing.T) {
	b := kautz.NewDeBruijn(2, 2)
	topo := NewPointToPointTopology(b.Digraph())
	if topo.Nodes() != 4 || topo.Couplers() != 8 {
		t.Fatalf("B(2,2): nodes=%d couplers=%d", topo.Nodes(), topo.Couplers())
	}
	for c := 0; c < topo.Couplers(); c++ {
		if len(topo.Heads(c)) != 1 {
			t.Fatal("point-to-point couplers must have one head")
		}
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	topo := skTopology(2, 2, 2)
	e := NewEngine(topo, Config{Seed: 1})
	e.Inject(0, topo.Nodes()-1)
	for i := 0; i < 10 && e.Metrics().Delivered == 0; i++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Delivered != 1 {
		t.Fatalf("message not delivered: %v", m)
	}
	if m.TotalHops > 3 { // diameter 2 plus intra-group hop margin
		t.Fatalf("too many hops: %v", m)
	}
	if m.Backlog != 0 {
		t.Fatal("backlog should be empty")
	}
}

func TestSelfInjectionIgnored(t *testing.T) {
	e := NewEngine(popsTopology(2, 2), Config{})
	e.Inject(1, 1)
	if e.Metrics().Injected != 0 {
		t.Fatal("self messages should not be injected")
	}
}

func TestPOPSSingleHopLatencyUnderLightLoad(t *testing.T) {
	// Under very light uniform load, POPS delivers in ~1 hop.
	topo := popsTopology(4, 4)
	m := Run(topo, UniformTraffic{Rate: 0.02}, 2000, 100, Config{Seed: 7})
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if m.AvgHops() != 1 {
		t.Fatalf("POPS avg hops = %v, want exactly 1 (single-hop network)", m.AvgHops())
	}
}

func TestSKHopsBoundedByDiameterPlusLoop(t *testing.T) {
	topo := skTopology(2, 2, 3)
	m := Run(topo, UniformTraffic{Rate: 0.02}, 2000, 200, Config{Seed: 9})
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if m.AvgHops() > 3.5 {
		t.Fatalf("avg hops %v exceeds diameter bound region", m.AvgHops())
	}
}

func TestConservationInvariant(t *testing.T) {
	// injected == delivered + dropped + backlog at all times.
	topo := skTopology(3, 2, 2)
	e := NewEngine(topo, Config{Seed: 3, MaxQueue: 4})
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 500; s++ {
		for _, inj := range (UniformTraffic{Rate: 0.5}).Generate(nil, s, topo.Nodes(), rng) {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		m := e.Metrics()
		if m.Injected != m.Delivered+m.Dropped+m.Backlog {
			t.Fatalf("conservation violated at slot %d: %v", s, m)
		}
	}
}

func TestMaxQueueDrops(t *testing.T) {
	topo := popsTopology(2, 2)
	e := NewEngine(topo, Config{Seed: 1, MaxQueue: 1})
	for i := 0; i < 5; i++ {
		e.Inject(0, 3)
	}
	m := e.Metrics()
	if m.Dropped != 4 || m.Backlog != 1 {
		t.Fatalf("drops=%d backlog=%d, want 4, 1", m.Dropped, m.Backlog)
	}
}

func TestCouplerExclusivityUnderSaturation(t *testing.T) {
	// With every node saturated, per-slot deliveries+relays cannot exceed
	// the number of couplers (single wavelength!).
	topo := popsTopology(4, 2) // 4 couplers
	e := NewEngine(topo, Config{Seed: 11})
	rng := rand.New(rand.NewSource(13))
	prevDelivered := 0
	for s := 0; s < 200; s++ {
		for _, inj := range (UniformTraffic{Rate: 1.0}).Generate(nil, s, topo.Nodes(), rng) {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		m := e.Metrics()
		perSlot := m.Delivered - prevDelivered
		if perSlot > topo.Couplers() {
			t.Fatalf("slot %d delivered %d > %d couplers", s, perSlot, topo.Couplers())
		}
		prevDelivered = m.Delivered
	}
}

func TestDeflectionReducesWaiting(t *testing.T) {
	// Same saturated workload with and without deflection: deflection must
	// actually deflect, and both modes must deliver.
	topo := skTopology(2, 2, 2)
	base := Run(topo, UniformTraffic{Rate: 0.9}, 800, 400, Config{Seed: 21})
	defl := Run(topo, UniformTraffic{Rate: 0.9}, 800, 400, Config{Seed: 21, Deflection: true})
	if base.Delivered == 0 || defl.Delivered == 0 {
		t.Fatal("both modes must deliver under saturation")
	}
	if defl.Deflections == 0 {
		t.Fatal("deflection mode never deflected under saturation")
	}
	if base.Deflections != 0 {
		t.Fatal("store-and-forward must not deflect")
	}
}

// TestBurstDrains offers a short full-rate burst (every node injects every
// slot), then requires the drain period to deliver all of it.
func TestBurstDrains(t *testing.T) {
	topo := skTopology(2, 2, 2)
	m := Run(topo, UniformTraffic{Rate: 1}, 8, 5000, Config{Seed: 2})
	if m.Injected == 0 || m.Backlog != 0 || m.Delivered != m.Injected {
		t.Fatalf("burst did not drain: %v", m)
	}
}

func TestMetricsAccessorsZero(t *testing.T) {
	var m Metrics
	if m.AvgLatency() != 0 || m.AvgHops() != 0 || m.Throughput() != 0 {
		t.Fatal("zero metrics should report zeros")
	}
	if m.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestDeterminism(t *testing.T) {
	topo := skTopology(2, 2, 2)
	a := Run(topo, UniformTraffic{Rate: 0.3}, 300, 100, Config{Seed: 99})
	b := Run(topo, UniformTraffic{Rate: 0.3}, 300, 100, Config{Seed: 99})
	if a != b {
		t.Fatalf("same seed should give identical metrics:\n%v\n%v", a, b)
	}
}

// Property: latency of any delivered message is at least its hop count
// (each hop takes at least one slot), so aggregate latency >= aggregate
// hops for every run.
func TestLatencyDominatesHopsProperty(t *testing.T) {
	topo := skTopology(2, 2, 2)
	f := func(seed int64, rate8 uint8) bool {
		rate := float64(rate8%90+5) / 100
		m := Run(topo, UniformTraffic{Rate: rate}, 200, 200, Config{Seed: seed})
		return m.TotalLatency >= m.TotalHops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: with unbounded queues nothing is ever dropped.
func TestNoDropsUnboundedProperty(t *testing.T) {
	topo := popsTopology(3, 3)
	f := func(seed int64) bool {
		m := Run(topo, UniformTraffic{Rate: 0.8}, 150, 150, Config{Seed: seed})
		return m.Dropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: all delivered messages on a stack topology took at least the
// shortest-path distance in hops on average — avg hops >= 1 whenever
// something was delivered.
func TestAvgHopsAtLeastOneProperty(t *testing.T) {
	topo := skTopology(2, 2, 2)
	f := func(seed int64) bool {
		m := Run(topo, UniformTraffic{Rate: 0.2}, 200, 200, Config{Seed: seed})
		return m.Delivered == 0 || m.AvgHops() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStackVsPointToPointComparably(t *testing.T) {
	// The same Kautz graph as multi-OPS stack (s=1) and as point-to-point:
	// distances agree, so light-load hop counts agree.
	kg := kautz.New(2, 2)
	st := NewStackTopology(hypergraph.NewStackGraph(1, kg.WithLoops()))
	pt := NewPointToPointTopology(kg.Digraph())
	for u := 0; u < kg.N(); u++ {
		for v := 0; v < kg.N(); v++ {
			if u == v {
				continue
			}
			if ds, dp := st.RouteBlocks().Distance(u, v), pt.RouteBlocks().Distance(u, v); ds != dp {
				t.Fatalf("distance mismatch %d->%d: stack %d, p2p %d", u, v, ds, dp)
			}
		}
	}
}
