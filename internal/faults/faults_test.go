package faults

import (
	"math/rand"
	"testing"

	"otisnet/internal/digraph"
	"otisnet/internal/kautz"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

func skTopo(s, d, k int) sim.Topology {
	return sim.NewStackTopology(stackkautz.New(s, d, k).StackGraph())
}

func popsTopo(t, g int) sim.Topology {
	return sim.NewStackTopology(pops.New(t, g).StackGraph())
}

func p2pTopo(d, k int) sim.Topology {
	return sim.NewPointToPointTopology(kautz.NewDeBruijn(d, k).Digraph())
}

// --- regression guard: fault-free wrap is bit-for-bit identical ---

func TestFaultFreePlanIsBitForBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		topo sim.Topology
		cfg  sim.Config
	}{
		{"sk-sf", skTopo(3, 2, 2), sim.Config{Seed: 7}},
		{"sk-deflect", skTopo(3, 2, 2), sim.Config{Seed: 7, Deflection: true}},
		{"sk-wdm", skTopo(3, 2, 2), sim.Config{Seed: 7, Wavelengths: 3}},
		{"pops", popsTopo(4, 3), sim.Config{Seed: 9, MaxQueue: 4}},
		{"p2p", p2pTopo(2, 3), sim.Config{Seed: 11}},
	}
	for _, c := range cases {
		base := sim.Run(c.topo, sim.UniformTraffic{Rate: 0.6}, 300, 300, c.cfg)
		wrapped := sim.Run(Wrap(c.topo, Plan{}), sim.UniformTraffic{Rate: 0.6}, 300, 300, c.cfg)
		if base != wrapped {
			t.Fatalf("%s: fault-free wrapped run diverges from base:\nbase:    %v\nwrapped: %v",
				c.name, base, wrapped)
		}
	}
}

func TestFaultFreeWrapMatchesBaseTables(t *testing.T) {
	topo := skTopo(3, 2, 2)
	ft := Wrap(topo, Plan{})
	for u := 0; u < topo.Nodes(); u++ {
		for v := 0; v < topo.Nodes(); v++ {
			if ft.RouteBlocks().Distance(u, v) != topo.RouteBlocks().Distance(u, v) {
				t.Fatalf("Distance(%d,%d) differs", u, v)
			}
			if g, w := ft.RouteBlocks().Entry(u, v), topo.RouteBlocks().Entry(u, v); g != w {
				t.Fatalf("Entry(%d,%d) = (%d,%d), base gives (%d,%d)", u, v, g.Coupler(), g.NextHop(), w.Coupler(), w.NextHop())
			}
		}
	}
}

// --- masking semantics ---

func stepTo(t *testing.T, ft *FaultedTopology, slot int) {
	t.Helper()
	for s := 0; s <= slot; s++ {
		ft.Advance(s)
	}
}

func TestNodeFaultMasksStructure(t *testing.T) {
	topo := skTopo(3, 2, 2)
	const dead = 4
	ft := Wrap(topo, FixedNodes(0, dead))
	stepTo(t, ft, 0)
	if len(ft.OutCouplers(dead)) != 0 {
		t.Fatal("failed node still has out couplers")
	}
	for c := 0; c < ft.Couplers(); c++ {
		for _, h := range ft.Heads(c) {
			if h == dead {
				t.Fatalf("failed node still heard on coupler %d", c)
			}
		}
	}
	for u := 0; u < ft.Nodes(); u++ {
		if u == dead {
			continue
		}
		if ft.RouteBlocks().Distance(u, dead) != digraph.Unreachable {
			t.Fatalf("node %d can still reach the failed node", u)
		}
		if ft.RouteBlocks().Entry(u, dead).Coupler() >= 0 {
			t.Fatalf("route table still routes %d -> failed node", u)
		}
	}
}

func TestCouplerFaultAffectsAllTails(t *testing.T) {
	topo := popsTopo(4, 3) // every node transmits on g=3 couplers
	ft := Wrap(topo, NewPlan("c0", Event{Slot: 0, Elem: Element{Kind: KindCoupler, Coupler: 0}}))
	stepTo(t, ft, 0)
	if len(ft.Heads(0)) != 0 {
		t.Fatal("failed coupler still has listeners")
	}
	for u := 0; u < ft.Nodes(); u++ {
		for _, c := range ft.OutCouplers(u) {
			if c == 0 {
				t.Fatalf("node %d still transmits on failed coupler", u)
			}
		}
	}
}

func TestTransmitterFaultIsPerNode(t *testing.T) {
	topo := popsTopo(4, 3)
	c0 := topo.OutCouplers(0)[0]
	ft := Wrap(topo, NewPlan("tx", Event{Slot: 0, Elem: Element{Kind: KindTransmitter, Node: 0, Coupler: c0}}))
	stepTo(t, ft, 0)
	for _, c := range ft.OutCouplers(0) {
		if c == c0 {
			t.Fatal("node 0 still transmits on its failed transmitter's coupler")
		}
	}
	// Another tail of the same coupler keeps using it.
	kept := false
	for u := 1; u < ft.Nodes(); u++ {
		for _, c := range ft.OutCouplers(u) {
			if c == c0 {
				kept = true
			}
		}
	}
	if !kept {
		t.Fatal("transmitter fault must not take the coupler down for other tails")
	}
	if len(ft.Heads(c0)) == 0 {
		t.Fatal("transmitter fault must not clear the coupler's head set")
	}
}

// --- routing correctness after events ---

// checkRouting verifies, over all pairs, that the route table agrees with
// an independent BFS over the masked structure exposed by the public
// interface: distances match, and every routable entry makes strict
// progress through a live coupler/head.
func checkRouting(t *testing.T, ft *FaultedTopology) {
	t.Helper()
	n := ft.Nodes()
	for u := 0; u < n; u++ {
		// Independent BFS from u over OutCouplers/Heads.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = digraph.Unreachable
		}
		dist[u] = 0
		queue := []int{u}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, c := range ft.OutCouplers(v) {
				for _, h := range ft.Heads(c) {
					if dist[h] == digraph.Unreachable {
						dist[h] = dist[v] + 1
						queue = append(queue, h)
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if ft.RouteBlocks().Distance(u, v) != dist[v] {
				t.Fatalf("Distance(%d,%d) = %d, independent BFS gives %d",
					u, v, ft.RouteBlocks().Distance(u, v), dist[v])
			}
			if u == v {
				continue
			}
			r := ft.RouteBlocks().Entry(u, v)
			c, h := r.Coupler(), r.NextHop()
			if dist[v] == digraph.Unreachable {
				if c >= 0 {
					t.Fatalf("route %d -> unreachable %d exists", u, v)
				}
				continue
			}
			if c < 0 {
				t.Fatalf("no route %d -> reachable %d", u, v)
			}
			owned := false
			for _, oc := range ft.OutCouplers(u) {
				if oc == c {
					owned = true
				}
			}
			if !owned {
				t.Fatalf("route %d -> %d uses coupler %d node %d cannot drive", u, v, c, u)
			}
			heard := false
			for _, hh := range ft.Heads(c) {
				if hh == h {
					heard = true
				}
			}
			if !heard {
				t.Fatalf("route %d -> %d relays via %d which does not hear coupler %d", u, v, h, c)
			}
			if ft.RouteBlocks().Distance(h, v) != ft.RouteBlocks().Distance(u, v)-1 {
				t.Fatalf("route %d -> %d via %d makes no progress", u, v, h)
			}
		}
	}
}

func TestRoutingConsistentAcrossEventSequence(t *testing.T) {
	topo := skTopo(3, 2, 2)
	plan := NewPlan("seq",
		Event{Slot: 1, Elem: Element{Kind: KindNode, Node: 2}},
		Event{Slot: 3, Elem: Element{Kind: KindCoupler, Coupler: 5}},
		Event{Slot: 5, Elem: Element{Kind: KindTransmitter, Node: 7, Coupler: topo.OutCouplers(7)[0]}},
		Event{Slot: 7, Repair: true, Elem: Element{Kind: KindNode, Node: 2}},
		Event{Slot: 9, Elem: Element{Kind: KindNode, Node: 11}},
	)
	ft := Wrap(topo, plan)
	for s := 0; s <= 10; s++ {
		ft.Advance(s)
		checkRouting(t, ft)
	}
}

// The incremental multi-event rebuild must land on the same tables as a
// fresh wrap that applies the same cumulative fault set in one batch.
func TestIncrementalRebuildMatchesBatchRebuild(t *testing.T) {
	topo := skTopo(3, 2, 2)
	incremental := Wrap(topo, NewPlan("inc",
		Event{Slot: 0, Elem: Element{Kind: KindNode, Node: 3}},
		Event{Slot: 2, Elem: Element{Kind: KindCoupler, Coupler: 1}},
		Event{Slot: 4, Elem: Element{Kind: KindNode, Node: 9}},
	))
	stepTo(t, incremental, 4)
	batch := Wrap(topo, NewPlan("batch",
		Event{Slot: 0, Elem: Element{Kind: KindNode, Node: 3}},
		Event{Slot: 0, Elem: Element{Kind: KindCoupler, Coupler: 1}},
		Event{Slot: 0, Elem: Element{Kind: KindNode, Node: 9}},
	))
	stepTo(t, batch, 0)
	for u := 0; u < topo.Nodes(); u++ {
		for v := 0; v < topo.Nodes(); v++ {
			if incremental.RouteBlocks().Distance(u, v) != batch.RouteBlocks().Distance(u, v) {
				t.Fatalf("Distance(%d,%d): incremental %d != batch %d",
					u, v, incremental.RouteBlocks().Distance(u, v), batch.RouteBlocks().Distance(u, v))
			}
			if i, b := incremental.RouteBlocks().Entry(u, v), batch.RouteBlocks().Entry(u, v); i != b {
				t.Fatalf("Entry(%d,%d): incremental (%d,%d) != batch (%d,%d)",
					u, v, i.Coupler(), i.NextHop(), b.Coupler(), b.NextHop())
			}
		}
	}
}

func TestRepairRestoresPristineTables(t *testing.T) {
	topo := skTopo(3, 2, 2)
	ft := Wrap(topo, NewPlan("fail-repair",
		Event{Slot: 0, Elem: Element{Kind: KindNode, Node: 5}},
		Event{Slot: 2, Repair: true, Elem: Element{Kind: KindNode, Node: 5}},
	))
	stepTo(t, ft, 2)
	for u := 0; u < topo.Nodes(); u++ {
		for v := 0; v < topo.Nodes(); v++ {
			g, w := ft.RouteBlocks(), topo.RouteBlocks()
			if g.Entry(u, v) != w.Entry(u, v) || g.Distance(u, v) != w.Distance(u, v) {
				t.Fatalf("after repair, (%d,%d) differs from pristine", u, v)
			}
		}
	}
}

// Node faults keep the routing state a quotient: a failed node leaves its
// group's row and column for the class of the empty lists, so SK(4,2,8)
// (N=1536, 384 groups) with f node faults keeps at most groups + f block
// rows and columns, not N.
func TestNodeFaultsKeepQuotientBlocks(t *testing.T) {
	const s = 4
	topo := skTopo(s, 2, 8)
	groups := topo.Nodes() / s
	for _, f := range []int{1, 2, 8} {
		ft := Wrap(topo, Random(KindNode, f, 0, topo, int64(f)))
		stepTo(t, ft, 0)
		b := ft.RouteBlocks()
		if rows := b.Rows(); rows > groups+f || b.Cols > groups+f {
			t.Fatalf("%d node faults: %d×%d blocks, want at most %d×%d", f, rows, b.Cols, groups+f, groups+f)
		}
		for _, ev := range ft.Plan().Events {
			if u := ev.Elem.Node; !ft.NodeDown(u) || ft.RouteBlocks().Distance((u+1)%topo.Nodes(), u) != digraph.Unreachable {
				t.Fatalf("%d node faults: node %d is not cut off", f, u)
			}
		}
	}
}

// An event batch allocates nothing once the wrapper's buffers have grown:
// Advance rebuilds into reused blocks with reused builder scratch, and the
// EntryChanged it returns is the one Wrap made.
func TestFaultEventAllocatesNothing(t *testing.T) {
	topo := skTopo(3, 2, 3)
	ft := Wrap(topo, Random(KindNode, 2, 0, topo, 1))
	event := func() {
		ch := ft.Advance(0)
		if !ch.Changed || len(ch.FailedNodes) != 2 {
			t.Fatalf("event batch: %+v", ch)
		}
		ch.EntryChanged(0, 1)
		ft.Reset()
	}
	event() // grows the blocks and the builder scratch
	if got := testing.AllocsPerRun(20, event); got != 0 {
		t.Fatalf("Advance+Reset allocates %v times per event batch, want 0", got)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	topo := skTopo(3, 2, 2)
	ft := Wrap(topo, FixedNodes(0, 1, 2))
	stepTo(t, ft, 0)
	if ft.RouteBlocks().Distance(5, 1) != digraph.Unreachable {
		t.Fatal("faults did not apply")
	}
	ft.Reset()
	if ft.NodeDown(1) || ft.RouteBlocks().Distance(5, 1) == digraph.Unreachable {
		t.Fatal("Reset did not restore the pristine state")
	}
	// A second engine run over the same wrapped value reproduces the first.
	cfg := sim.Config{Seed: 3}
	a := sim.Run(ft, sim.UniformTraffic{Rate: 0.4}, 200, 200, cfg)
	b := sim.Run(ft, sim.UniformTraffic{Rate: 0.4}, 200, 200, cfg)
	if a != b {
		t.Fatalf("re-running over one wrapped topology diverges:\n%v\n%v", a, b)
	}
}

// --- engine integration ---

func TestEngineCountsLostToFaults(t *testing.T) {
	// POPS(2,1): nodes 0,1 share one coupler. Queue several messages at
	// node 0, then fail it: the queue must be purged and counted.
	topo := popsTopo(2, 1)
	ft := Wrap(topo, FixedNodes(3, 0))
	e := sim.NewEngine(ft, sim.Config{Seed: 1})
	for i := 0; i < 6; i++ {
		e.Inject(0, 1)
	}
	for s := 0; s < 6; s++ {
		e.Step()
	}
	m := e.Metrics()
	if m.LostToFaults == 0 {
		t.Fatalf("expected purged messages at the failed node: %v", m)
	}
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		t.Fatalf("conservation violated: %v", m)
	}
}

func TestEngineCountsUnroutable(t *testing.T) {
	// Fail the destination: messages to it become unroutable and are
	// count-dropped, not stuck.
	topo := popsTopo(2, 2) // 4 nodes
	ft := Wrap(topo, FixedNodes(0, 3))
	e := sim.NewEngine(ft, sim.Config{Seed: 1})
	e.Inject(0, 3)
	e.Step()
	e.Inject(1, 3) // injected after the fault, same outcome
	for s := 0; s < 4; s++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Unroutable != 2 {
		t.Fatalf("unroutable = %d, want 2: %v", m.Unroutable, m)
	}
	if m.Backlog != 0 {
		t.Fatalf("unroutable messages must not linger: %v", m)
	}
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		t.Fatalf("conservation violated: %v", m)
	}
}

func TestEngineCountsReroutes(t *testing.T) {
	// SK(2,2,2): queue messages, then fail a node on their path so the
	// route table shifts under them.
	topo := skTopo(2, 2, 2)
	n := topo.Nodes()
	// Find a pair at distance 2 and kill the next hop on its path.
	src, dst, mid := -1, -1, -1
	for u := 0; u < n && src < 0; u++ {
		for v := 0; v < n; v++ {
			if topo.RouteBlocks().Distance(u, v) == 2 {
				src, dst, mid = u, v, topo.RouteBlocks().Entry(u, v).NextHop()
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("no distance-2 pair found")
	}
	ft := Wrap(topo, FixedNodes(2, mid))
	e := sim.NewEngine(ft, sim.Config{Seed: 1})
	// Saturate src so some messages are still queued when the fault hits.
	for i := 0; i < 8; i++ {
		e.Inject(src, dst)
	}
	for s := 0; s < 30; s++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Reroutes == 0 {
		t.Fatalf("expected rerouted messages when next hop %d failed: %v", mid, m)
	}
	if m.Delivered == 0 {
		t.Fatalf("rerouted messages must still be delivered: %v", m)
	}
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		t.Fatalf("conservation violated: %v", m)
	}
}

func TestEngineRecoverySlots(t *testing.T) {
	topo := skTopo(3, 2, 2)
	faulted := sim.Run(Wrap(topo, Random(KindNode, 2, 100, topo, 5)),
		sim.UniformTraffic{Rate: 0.3}, 400, 400, sim.Config{Seed: 5})
	if faulted.RecoverySlots == 0 {
		t.Fatalf("fault event should start the recovery clock: %v", faulted)
	}
	clean := sim.Run(topo, sim.UniformTraffic{Rate: 0.3}, 400, 400, sim.Config{Seed: 5})
	if clean.RecoverySlots != 0 || clean.Unroutable != 0 || clean.LostToFaults != 0 || clean.Reroutes != 0 {
		t.Fatalf("fault metrics leaked into a fault-free run: %v", clean)
	}
}

func TestConservationUnderStochasticFaults(t *testing.T) {
	topo := skTopo(3, 2, 2)
	plan := Stochastic(KindNode, 3, topo, 60, 20, 300, 17)
	if plan.Empty() {
		t.Fatal("stochastic plan generated no events")
	}
	ft := Wrap(topo, plan)
	m := sim.Run(ft, sim.UniformTraffic{Rate: 0.4}, 300, 500, sim.Config{Seed: 23})
	if m.Injected != m.Delivered+m.Dropped+m.Backlog {
		t.Fatalf("conservation violated under transient faults: %v", m)
	}
	if m.Delivered == 0 {
		t.Fatal("network should keep delivering through transient faults")
	}
}

// --- plans ---

func TestPlansAreDeterministicAndNested(t *testing.T) {
	topo := skTopo(3, 2, 2)
	a := Random(KindNode, 3, 10, topo, 42)
	b := Random(KindNode, 3, 10, topo, 42)
	if len(a.Events) != 3 || len(b.Events) != 3 {
		t.Fatalf("expected 3 events, got %d and %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("same-seed plans differ")
		}
	}
	// Nesting: the k-fault set is a prefix of the (k+1)-fault set.
	big := Random(KindNode, 4, 10, topo, 42)
	in := map[int]bool{}
	for _, ev := range big.Events {
		in[ev.Elem.Node] = true
	}
	for _, ev := range a.Events {
		if !in[ev.Elem.Node] {
			t.Fatalf("node %d in the 3-fault set but not the 4-fault set", ev.Elem.Node)
		}
	}
}

func TestStochasticPlanAlternatesPerElement(t *testing.T) {
	topo := skTopo(3, 2, 2)
	plan := Stochastic(KindNode, 2, topo, 50, 10, 500, 9)
	state := map[Element]bool{} // true = down
	for _, ev := range plan.Events {
		if state[ev.Elem] == !ev.Repair {
			t.Fatalf("element %v: consecutive %v events", ev.Elem, ev.Repair)
		}
		state[ev.Elem] = !ev.Repair
		if ev.Slot < 0 || ev.Slot >= 500 {
			t.Fatalf("event outside horizon: %+v", ev)
		}
	}
	for i := 1; i < len(plan.Events); i++ {
		if plan.Events[i].Slot < plan.Events[i-1].Slot {
			t.Fatal("plan events not sorted by slot")
		}
	}
}

func TestSpecZeroWrapsNothing(t *testing.T) {
	topo := skTopo(2, 2, 2)
	var s Spec
	if s.Wrap(topo, 1) != topo {
		t.Fatal("zero spec must return the base topology unchanged")
	}
	if s.Label() != "none" {
		t.Fatalf("zero spec label = %q", s.Label())
	}
}

// --- dynamic §2.5 validation at small scale ---

// Messages injected after ≤ d-1 whole-group failures on a stack-Kautz
// network must be delivered in ≤ k+2 hops (paper §2.5, live version).
func TestDynamicKPlus2BoundSmallSK(t *testing.T) {
	const s, d, k = 2, 3, 2
	nw := stackkautz.New(s, d, k)
	topo := sim.NewStackTopology(nw.StackGraph())
	// Fail d-1 = 2 whole groups (all their member nodes) at slot 0.
	var nodes []int
	for _, g := range []int{1, 5} {
		for m := 0; m < s; m++ {
			nodes = append(nodes, g*s+m)
		}
	}
	ft := Wrap(topo, FixedNodes(0, nodes...))
	e := sim.NewEngine(ft, sim.Config{Seed: 13})
	maxHops := 0
	e.OnDeliver = func(msg sim.Message, _ int) {
		if msg.Hops > maxHops {
			maxHops = msg.Hops
		}
	}
	for slot := 0; slot < 300; slot++ {
		for u := 0; u < topo.Nodes(); u++ {
			if slot%7 == u%7 {
				e.Inject(u, (u+3*slot+1)%topo.Nodes())
			}
		}
		e.Step()
	}
	for sl := 0; sl < 200 && e.Metrics().Backlog > 0; sl++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Delivered == 0 {
		t.Fatal("nothing delivered under group faults")
	}
	if maxHops > k+2 {
		t.Fatalf("delivered message took %d hops > k+2 = %d under %d group faults",
			maxHops, k+2, d-1)
	}
}

// Full acceptance check at paper scale: on SK(6,3,2) with d-1 = 2 whole
// failed groups, every message delivered by the live simulator between
// surviving groups achieves exactly the path length kautz.RouteAvoiding
// computes for its (src group, dst group) pair, and never exceeds k+2.
func TestDynamicHopsMatchRouteAvoiding(t *testing.T) {
	const s, d, k = 6, 3, 2
	nw := stackkautz.New(s, d, k)
	kg := nw.Kautz()
	topo := sim.NewStackTopology(nw.StackGraph())
	faultyGroups := map[int]bool{2: true, 7: true} // d-1 = 2 groups
	var nodes []int
	for g := range faultyGroups {
		for m := 0; m < s; m++ {
			nodes = append(nodes, g*s+m)
		}
	}
	ft := Wrap(topo, FixedNodes(0, nodes...))
	e := sim.NewEngine(ft, sim.Config{Seed: 29})
	isFaulty := func(w kautz.Label) bool { return faultyGroups[kg.Index(w)] }
	checked, maxHops := 0, 0
	e.OnDeliver = func(msg sim.Message, _ int) {
		sg, dg := msg.Src/s, msg.Dst/s
		if faultyGroups[sg] || faultyGroups[dg] {
			t.Fatalf("delivered a message touching a failed group: %+v", msg)
		}
		if msg.Hops > maxHops {
			maxHops = msg.Hops
		}
		want := 1 // intra-group: one loop-coupler hop
		if sg != dg {
			path, _ := kg.RouteAvoiding(kg.LabelOf(sg), kg.LabelOf(dg), isFaulty)
			if path == nil {
				t.Fatalf("RouteAvoiding found no path %d -> %d but the simulator delivered", sg, dg)
			}
			want = len(path) - 1
		}
		if msg.Hops != want {
			t.Fatalf("message %d->%d delivered in %d hops, RouteAvoiding says %d",
				msg.Src, msg.Dst, msg.Hops, want)
		}
		checked++
	}
	rng := rand.New(rand.NewSource(31))
	var buf []sim.Injection
	for slot := 0; slot < 400; slot++ {
		buf = (sim.UniformTraffic{Rate: 0.1}).Generate(buf[:0], slot, topo.Nodes(), rng)
		for _, inj := range buf {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
	}
	for slot := 0; slot < 400 && e.Metrics().Backlog > 0; slot++ {
		e.Step()
	}
	if checked < 1000 {
		t.Fatalf("only %d deliveries checked; raise the load", checked)
	}
	if maxHops > k+2 {
		t.Fatalf("max delivered hops %d exceeds k+2 = %d under d-1 faults", maxHops, k+2)
	}
}

// Messages stranded without any surviving route are not "reroutes" — they
// must only surface as Unroutable (no double-booking of the same message).
func TestReroutesExcludeUnroutableMessages(t *testing.T) {
	topo := popsTopo(2, 2) // single-hop: any live route goes direct
	ft := Wrap(topo, FixedNodes(2, 3))
	e := sim.NewEngine(ft, sim.Config{Seed: 1})
	for i := 0; i < 4; i++ {
		e.Inject(0, 3) // all queued toward the node that will fail
	}
	for s := 0; s < 10; s++ {
		e.Step()
	}
	m := e.Metrics()
	if m.Reroutes != 0 {
		t.Fatalf("messages left without a route counted as reroutes: %v", m)
	}
	if m.Unroutable == 0 {
		t.Fatalf("stranded messages never surfaced as unroutable: %v", m)
	}
}

// Events that disturb nobody — failures and repairs on an idle network —
// must not start the time-to-recover clock.
func TestRecoverySlotsZeroOnIdleNetwork(t *testing.T) {
	topo := skTopo(3, 2, 2)
	ft := Wrap(topo, NewPlan("idle",
		Event{Slot: 1, Elem: Element{Kind: KindNode, Node: 2}},
		Event{Slot: 5, Repair: true, Elem: Element{Kind: KindNode, Node: 2}},
	))
	e := sim.NewEngine(ft, sim.Config{Seed: 1})
	for s := 0; s < 10; s++ {
		e.Step() // no traffic at all
	}
	if m := e.Metrics(); m.RecoverySlots != 0 {
		t.Fatalf("idle fail/repair events started the recovery clock: %v", m)
	}
}
