package sim_test

// Bit-for-bit equivalence of the compiled-topology engine against the
// frozen pre-compilation reference (internal/legacysim): identical metrics
// and identical per-delivery event streams for every mode — store-and-
// forward, hot-potato deflection, multi-wavelength couplers, bounded
// queues, point-to-point baselines and live fault plans — plus allocation
// pins for the compiled hot path and for engine reuse via Reset.

import (
	"math/rand"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/kautz"
	"otisnet/internal/legacysim"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

func equivTopologies() map[string]sim.Topology {
	return map[string]sim.Topology{
		"SK(3,2,2)":     sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph()),
		"SK(6,3,2)":     sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()),
		"POPS(4,2)":     sim.NewStackTopology(pops.New(4, 2).StackGraph()),
		"deBruijn(2,3)": sim.NewPointToPointTopology(kautz.NewDeBruijn(2, 3).Digraph()),
	}
}

func TestCompiledMatchesLegacyAcrossModes(t *testing.T) {
	configs := []sim.Config{
		{Seed: 1},
		{Seed: 2, Deflection: true},
		{Seed: 3, Wavelengths: 3},
		{Seed: 4, Wavelengths: 4, Deflection: true},
		{Seed: 5, MaxQueue: 4},
		{Seed: 6, MaxQueue: 2, Deflection: true, Wavelengths: 2},
	}
	for name, topo := range equivTopologies() {
		for _, rate := range []float64{0.2, 0.8} {
			for _, cfg := range configs {
				got := sim.Run(topo, sim.UniformTraffic{Rate: rate}, 300, 300, cfg)
				want := legacysim.Run(topo, sim.UniformTraffic{Rate: rate}, 300, 300, cfg)
				if got != want {
					t.Errorf("%s rate=%g cfg=%+v:\ncompiled %v\nlegacy   %v",
						name, rate, cfg, got, want)
				}
			}
		}
	}
}

// delivery is one OnDeliver event, pinned field by field.
type delivery struct {
	id, src, dst, hops, slot int
}

// requireSameDeliveries drives the compiled and the legacy engine through
// the same uniform injection schedule for the given slots and requires the
// exact same sequence of OnDeliver callbacks and the same metrics.
func requireSameDeliveries(t *testing.T, topo sim.Topology, cfg sim.Config, rate float64, slots int) sim.Metrics {
	t.Helper()
	e := sim.NewEngine(topo, cfg)
	l := legacysim.NewEngine(topo, cfg)
	var got, want []delivery
	e.OnDeliver = func(m sim.Message, slot int) {
		got = append(got, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
	}
	l.OnDeliver = func(m sim.Message, slot int) {
		want = append(want, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := topo.Nodes()
	for s := 0; s < slots; s++ {
		for _, inj := range (sim.UniformTraffic{Rate: rate}).Generate(nil, s, n, rng) {
			e.Inject(inj.Src, inj.Dst)
			l.Inject(inj.Src, inj.Dst)
		}
		e.Step()
		l.Step()
	}
	if len(got) != len(want) {
		t.Fatalf("cfg %+v: %d deliveries vs legacy %d", cfg, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cfg %+v: delivery %d = %+v, legacy %+v", cfg, i, got[i], want[i])
		}
	}
	if len(got) == 0 {
		t.Fatalf("cfg %+v: no deliveries; test is vacuous", cfg)
	}
	if m, lm := e.Metrics(), l.Metrics(); m != lm {
		t.Fatalf("cfg %+v:\ncompiled %v\nlegacy   %v", cfg, m, lm)
	}
	return e.Metrics()
}

// TestCompiledMatchesLegacyDeliveryStream requires the exact same
// sequence of OnDeliver callbacks as the legacy engine — the contract the
// collective-replay workload depends on.
func TestCompiledMatchesLegacyDeliveryStream(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
	for _, cfg := range []sim.Config{{Seed: 9}, {Seed: 10, Deflection: true}, {Seed: 11, Wavelengths: 2}} {
		requireSameDeliveries(t, topo, cfg, 0.5, 400)
	}
}

// TestPoolBoundedSelfRelayMatchesLegacy runs bounded queues whose losers
// deflect back onto their own queue: every node drives one shared coupler
// that all nodes hear, and a private coupler that only it hears. A full
// queue must take such a relay, because the message leaves the queue
// before it re-enters it, as in the legacy dequeue-then-enqueue.
func TestPoolBoundedSelfRelayMatchesLegacy(t *testing.T) {
	const n = 6
	out, heads := make([][]int, n), make([][]int, n+1)
	for u := 0; u < n; u++ {
		out[u] = []int{0, 1 + u}
		heads[0] = append(heads[0], u)
		heads[1+u] = []int{u}
	}
	topo := sim.NewListTopology(out, heads)
	for _, cfg := range []sim.Config{
		{Seed: 51, MaxQueue: 1, Deflection: true},
		{Seed: 52, MaxQueue: 2, Deflection: true},
		{Seed: 53, MaxQueue: 2, Deflection: true, Wavelengths: 2},
	} {
		m := requireSameDeliveries(t, topo, cfg, 0.7, 500)
		if m.Deflections == 0 || m.Dropped == 0 {
			t.Fatalf("cfg %+v: %v; no self-relay into a full queue was tested", cfg, m)
		}
	}
}

// TestCompiledMatchesLegacyUnderFaults wraps two independent fault views
// of the same plan (FaultedTopology is stateful and single-engine) and
// requires identical metrics, including the fault counters, with and
// without deflection and WDM.
func TestCompiledMatchesLegacyUnderFaults(t *testing.T) {
	base := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	plans := []faults.Plan{
		faults.FixedNodes(50, 2, 7, 13, 14),
		faults.Random(faults.KindCoupler, 4, 60, base, 99),
		faults.Stochastic(faults.KindNode, 3, base, 80, 40, 400, 7),
	}
	configs := []sim.Config{
		{Seed: 21},
		{Seed: 22, Deflection: true},
		{Seed: 23, Wavelengths: 2},
		{Seed: 24, MaxQueue: 6},
	}
	for pi, plan := range plans {
		for _, cfg := range configs {
			got := sim.Run(faults.Wrap(base, plan), sim.UniformTraffic{Rate: 0.4}, 400, 400, cfg)
			want := legacysim.Run(faults.Wrap(base, plan), sim.UniformTraffic{Rate: 0.4}, 400, 400, cfg)
			if got != want {
				t.Errorf("plan %d cfg %+v:\ncompiled %v\nlegacy   %v", pi, cfg, got, want)
			}
			if got.LostToFaults+got.Unroutable+got.Reroutes == 0 {
				t.Errorf("plan %d cfg %+v: faults never disturbed the run; test is vacuous", pi, cfg)
			}
		}
	}
}

// TestPoolRerouteWalkMatchesLegacy runs fault plans over deep queues, so
// every event walks long queues along their links to count reroutes, and
// requires the legacy engine's metrics, fault counters included.
func TestPoolRerouteWalkMatchesLegacy(t *testing.T) {
	base := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	plans := []faults.Plan{
		faults.Random(faults.KindCoupler, 6, 150, base, 3),
		faults.Stochastic(faults.KindNode, 4, base, 60, 30, 400, 11),
		faults.Stochastic(faults.KindCoupler, 8, base, 40, 20, 400, 12),
	}
	for pi, plan := range plans {
		cfg := sim.Config{Seed: int64(61 + pi)}
		got := sim.Run(faults.Wrap(base, plan), sim.UniformTraffic{Rate: 0.9}, 400, 400, cfg)
		want := legacysim.Run(faults.Wrap(base, plan), sim.UniformTraffic{Rate: 0.9}, 400, 400, cfg)
		if got != want {
			t.Errorf("plan %d:\ncompiled %v\nlegacy   %v", pi, got, want)
		}
		if got.Reroutes == 0 || got.PeakQueue < 20 {
			t.Errorf("plan %d: %v; the walk never met a deep queue with a rerouted message", pi, got)
		}
	}
}

// TestEngineResetReproducesFreshEngine pins the Reset contract: a scenario
// run on a reused engine (after an unrelated scenario with a different
// config) is bit-for-bit the run a fresh engine produces.
func TestEngineResetReproducesFreshEngine(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	cfgA := sim.Config{Seed: 31, Deflection: true, Wavelengths: 2}
	cfgB := sim.Config{Seed: 32, MaxQueue: 5}
	e := sim.NewEngine(topo, cfgA)
	e.Run(sim.UniformTraffic{Rate: 0.7}, 200, 200, cfgA)
	reused := e.Run(sim.UniformTraffic{Rate: 0.3}, 200, 200, cfgB)
	fresh := sim.Run(topo, sim.UniformTraffic{Rate: 0.3}, 200, 200, cfgB)
	if reused != fresh {
		t.Fatalf("reused engine diverged:\nreused %v\nfresh  %v", reused, fresh)
	}
}

// TestEngineResetReproducesFreshEngineUnderFaults is the dynamic-topology
// counterpart: the same FaultedTopology driven through SetPlan and a
// reused engine must match fresh construction per scenario.
func TestEngineResetReproducesFreshEngineUnderFaults(t *testing.T) {
	base := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	planA := faults.FixedNodes(40, 1, 2, 3)
	planB := faults.Random(faults.KindNode, 2, 30, base, 5)
	cfg := sim.Config{Seed: 41}

	ft := faults.Wrap(base, planA)
	e := sim.NewEngine(ft, cfg)
	e.Run(sim.UniformTraffic{Rate: 0.5}, 300, 300, cfg)
	ft.SetPlan(planB)
	reused := e.Run(sim.UniformTraffic{Rate: 0.5}, 300, 300, cfg)
	fresh := sim.Run(faults.Wrap(base, planB), sim.UniformTraffic{Rate: 0.5}, 300, 300, cfg)
	if reused != fresh {
		t.Fatalf("SetPlan+Reset diverged from fresh wrap:\nreused %v\nfresh  %v", reused, fresh)
	}
}

// TestCompiledStepZeroAllocs pins the compiled hot path at zero
// allocations per Step once scratch high-water marks are reached.
func TestCompiledStepZeroAllocs(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	e := sim.NewEngine(topo, sim.Config{Seed: 1})
	n := topo.Nodes()
	slot := 0
	step := func() {
		off := 1 + (slot*7)%(n-1)
		for u := slot % 8; u < n; u += 8 {
			e.Inject(u, (u+off)%n)
		}
		e.Step()
		slot++
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("steady-state Step allocates %v times per slot, want 0", avg)
	}
}

// TestEngineRunReuseZeroAllocs pins scenario reuse: after a warmup
// scenario, whole Engine.Run scenarios on a reused engine allocate
// nothing — the Reset contract internal/sweep relies on.
func TestEngineRunReuseZeroAllocs(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	cfg := sim.Config{Seed: 1}
	e := sim.NewEngine(topo, cfg)
	// Box the traffic value once: converting a struct to the Traffic
	// interface per call would itself allocate.
	var traffic sim.Traffic = sim.UniformTraffic{Rate: 0.3}
	e.Run(traffic, 200, 200, cfg) // warmup to high-water marks
	if avg := testing.AllocsPerRun(10, func() {
		e.Run(traffic, 200, 200, cfg)
	}); avg != 0 {
		t.Fatalf("reused Engine.Run allocates %v times per scenario, want 0", avg)
	}
}
