package sim_test

// The fan-in rule (sim.Config.Canonical) as an equivalence proof: on every
// topology family, with and without fault plans and queue caps, the
// canonical configuration must run exactly as the configuration it folds,
// and the sweep cache key must treat two configurations as one point
// exactly when their canonical forms are equal. The direct run is the
// frozen reference engine (internal/legacysim), which runs W windows and
// the deflection phases as given, so the fold in the compiled engine
// cannot hide a difference from itself.

import (
	"fmt"
	"math/rand"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/kautz"
	"otisnet/internal/legacysim"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// randomBus is an arbitrary network: random sender and listener sets per
// coupler, so couplers differ in fan-in and some pairs are unreachable. The
// reference engine routes it by its oracle scan, the compiled engine by
// the blocks BuildRouteBlocks makes from its lists.
func randomBus(seed int64) sim.Topology {
	rng := rand.New(rand.NewSource(seed))
	n, m := 3+rng.Intn(6), 2+rng.Intn(8)
	out, heads := make([][]int, n), make([][]int, m)
	for c := 0; c < m; c++ {
		for u := 0; u < n; u++ {
			if rng.Intn(2) == 0 {
				out[u] = append(out[u], c)
			}
			if rng.Intn(3) == 0 {
				heads[c] = append(heads[c], u)
			}
		}
	}
	return sim.NewListTopology(out, heads)
}

// fanInTopology maps fuzz bytes onto one of the families of fuzzTopology,
// a point-to-point Kautz network, or a random bus.
func fanInTopology(sel, pa, pb uint8, seed int64) (sim.Topology, string, int) {
	switch sel % 6 {
	case 4:
		d, k := 2+int(pa)%2, 2+int(pb)%2
		return sim.NewPointToPointTopology(kautz.New(d, k).Digraph()), "Kautz", 0
	case 5:
		return randomBus(seed), "bus", 0
	}
	return fuzzTopology(sel, pa, pb)
}

// checkCanonicalMatchesDirect runs cfg on the reference engine and
// cfg.Canonical(F) on the compiled one, through one shared injection
// schedule, each over its own view of the fault spec, and requires equal
// Metrics and identical OnDeliver sequences.
func checkCanonicalMatchesDirect(t *testing.T, name string, base sim.Topology, groupSize int, fs faults.Spec,
	wl workload.Spec, rate float64, slots int, cfg sim.Config) {
	t.Helper()
	run := cfg.Canonical(sim.FanIn(base))
	eD := legacysim.NewEngine(fs.Wrap(base, cfg.Seed), cfg)
	eC := sim.NewEngine(fs.Wrap(base, cfg.Seed), run)
	var gotD, gotC []delivery
	eD.OnDeliver = func(m sim.Message, slot int) { gotD = append(gotD, delivery{m.ID, m.Src, m.Dst, m.Hops, slot}) }
	eC.OnDeliver = func(m sim.Message, slot int) { gotC = append(gotC, delivery{m.ID, m.Src, m.Dst, m.Hops, slot}) }
	n := base.Nodes()
	tr := wl.New(rate, n, groupSize)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var buf []sim.Injection
	for s := 0; s < slots; s++ {
		buf = tr.Generate(buf[:0], s, n, rng)
		for _, inj := range buf {
			eD.Inject(inj.Src, inj.Dst)
			eC.Inject(inj.Src, inj.Dst)
		}
		eD.Step()
		eC.Step()
	}
	for s := 0; s < 300 && (eD.Metrics().Backlog > 0 || eC.Backlog() > 0); s++ {
		eD.Step()
		eC.Step()
	}
	if mD, mC := eD.Metrics(), eC.Metrics(); mD != mC {
		t.Fatalf("%s faults=%s cfg=%+v canonical=%+v: metrics diverged\ndirect    %v\ncanonical %v",
			name, fs.Label(), cfg, run, mD, mC)
	}
	if len(gotD) != len(gotC) {
		t.Fatalf("%s faults=%s cfg=%+v: %d deliveries, canonical %d", name, fs.Label(), cfg, len(gotD), len(gotC))
	}
	for i := range gotD {
		if gotD[i] != gotC[i] {
			t.Fatalf("%s faults=%s cfg=%+v: delivery %d = %+v, canonical %+v", name, fs.Label(), cfg, i, gotD[i], gotC[i])
		}
	}
}

// checkKeysFollowCanonical requires two scenarios that differ only in
// wavelengths and mode to share a cache key exactly when their canonical
// configurations are equal.
func checkKeysFollowCanonical(t *testing.T, topo sweep.Topology, a, b sweep.Scenario) {
	t.Helper()
	f := sim.FanIn(topo.Topo)
	a.Topology, b.Topology = topo, topo
	same := a.Config().Canonical(f) == b.Config().Canonical(f)
	if got := a.CacheKey() == b.CacheKey(); got != same {
		t.Fatalf("%s (fan-in %d): W=%d %s and W=%d %s share a key: %v, canonical configs equal: %v",
			topo.Name, f, a.Wavelengths, a.Mode, b.Wavelengths, b.Mode, got, same)
	}
}

func TestFanInCanonicalMatchesDirect(t *testing.T) {
	type topoCase struct {
		name  string
		topo  sim.Topology
		group int
	}
	topos := []topoCase{
		{"SK(3,2,2)", sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph()), 3},
		{"POPS(3,2)", sim.NewStackTopology(pops.New(3, 2).StackGraph()), 3},
		{"deBruijn(2,3)", sim.NewPointToPointTopology(kautz.NewDeBruijn(2, 3).Digraph()), 0},
		{"Kautz(2,2)", sim.NewPointToPointTopology(kautz.New(2, 2).Digraph()), 0},
	}
	for seed := int64(1); len(topos) < 6; seed++ {
		if b := randomBus(seed); sim.FanIn(b) >= 2 {
			topos = append(topos, topoCase{fmt.Sprintf("bus#%d", seed), b, 0})
		}
	}
	const slots = 150
	fspecs := []faults.Spec{
		{},
		{Kind: faults.KindNode, Count: 1, Slot: 40},
		{Kind: faults.KindCoupler, Count: 2, MTBF: 40, MTTR: 15, Horizon: slots},
	}
	for _, tc := range topos {
		f := sim.FanIn(tc.topo)
		var scs []sweep.Scenario
		for w := 1; w <= f+1; w++ {
			for _, mode := range []sweep.Mode{sweep.StoreAndForward, sweep.Deflection} {
				scs = append(scs, sweep.Scenario{Rate: 0.6, Seed: 7, Mode: mode, Wavelengths: w, Slots: slots, Drain: 300})
			}
		}
		for _, fs := range fspecs {
			for _, maxQueue := range []int{0, 3} {
				for _, sc := range scs {
					sc.MaxQueue = maxQueue
					checkCanonicalMatchesDirect(t, tc.name, tc.topo, tc.group, fs, workload.Spec{}, sc.Rate, slots, sc.Config())
				}
			}
		}
		topo := sweep.Topology{Name: tc.name, Topo: tc.topo, GroupSize: tc.group}
		for _, a := range scs {
			for _, b := range scs {
				checkKeysFollowCanonical(t, topo, a, b)
			}
		}
	}
}

// FuzzFanInCanonicalMatchesDirect lets the fuzzer pick the topology, the
// traffic, the load, the queue cap, the fault plan (none, one-shot or
// stochastic), W in 1..F+1 and the mode, and checks the canonical run
// against the direct one, and the cache key of (W, mode) against that of a
// second (W', mode').
func FuzzFanInCanonicalMatchesDirect(f *testing.F) {
	// Tuple order: (topoSel, pa, pb, trafficSel, ratePct, waves, maxq,
	// faultSel, seed, defl, waves2, defl2)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(60), uint8(1), uint8(0), uint8(0), int64(1), true, uint8(0), false)
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(70), uint8(3), uint8(3), uint8(1), int64(2), true, uint8(2), true)
	f.Add(uint8(2), uint8(3), uint8(0), uint8(2), uint8(45), uint8(4), uint8(0), uint8(2), int64(3), false, uint8(3), true)
	f.Add(uint8(3), uint8(1), uint8(4), uint8(3), uint8(80), uint8(2), uint8(2), uint8(1), int64(4), true, uint8(5), false)
	f.Add(uint8(4), uint8(1), uint8(1), uint8(0), uint8(50), uint8(1), uint8(1), uint8(2), int64(5), true, uint8(0), false)
	f.Add(uint8(5), uint8(0), uint8(0), uint8(0), uint8(85), uint8(2), uint8(0), uint8(0), int64(6), true, uint8(1), true)

	f.Fuzz(func(t *testing.T, topoSel, pa, pb, trafficSel, ratePct, waves, maxq, faultSel uint8,
		seed int64, defl bool, waves2 uint8, defl2 bool) {
		base, family, groupSize := fanInTopology(topoSel, pa, pb, seed)
		if base.Nodes() < 2 {
			t.Skip("no destination for traffic")
		}
		fanIn := sim.FanIn(base)
		slots := 120
		fs := []faults.Spec{
			{},
			{Kind: faults.Kind(int(seed&3) % 3), Count: 1 + int(seed>>2&1), Slot: 30},
			{Kind: faults.Kind(int(seed&3) % 3), Count: 2, MTBF: 30, MTTR: 10, Horizon: slots},
		}[faultSel%3]
		cfg := sim.Config{
			Seed:        seed,
			MaxQueue:    int(maxq) % 5,
			Deflection:  defl,
			Wavelengths: 1 + int(waves)%(fanIn+1),
		}
		wl := fuzzWorkloads[int(trafficSel)%len(fuzzWorkloads)]
		checkCanonicalMatchesDirect(t, family, base, groupSize, fs, wl, 0.05+float64(ratePct%90)/100, slots, cfg)

		mode := func(d bool) sweep.Mode {
			if d {
				return sweep.Deflection
			}
			return sweep.StoreAndForward
		}
		a := sweep.Scenario{Rate: 0.3, Seed: seed, Mode: mode(defl), Wavelengths: cfg.Wavelengths, MaxQueue: cfg.MaxQueue, Slots: slots, Fault: fs, Workload: wl}
		b := a
		b.Mode, b.Wavelengths = mode(defl2), int(waves2)%(fanIn+2)
		checkKeysFollowCanonical(t, sweep.Topology{Name: family, Topo: base, GroupSize: groupSize}, a, b)
	})
}
