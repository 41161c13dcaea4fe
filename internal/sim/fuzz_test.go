package sim_test

// Differential fuzzing of the compiled-topology engine against the frozen
// pre-compilation reference (internal/legacysim). The hand-written
// equivalence suites (compiled_equiv_test.go) pin a fixed set of
// scenarios; this target lets the fuzzer pick the topology family and
// parameters, the traffic model, the offered load, the engine
// configuration and the fault plan, and requires — for every generated
// scenario — identical Metrics and an identical per-delivery OnDeliver
// event stream from both engines. Any silent drift of the fast engine
// (arbitration order, deflection tie-breaks, fault purges, RNG
// consumption) surfaces as a minimized counterexample scenario.
//
// The seed corpus (testdata/fuzz/FuzzCompiledVsLegacyEngine plus the
// f.Add tuples below) covers every topology family, traffic model and
// fault kind, so the plain `go test` run already exercises one scenario
// of each shape; CI additionally runs a short `-fuzz` smoke.

import (
	"math/rand"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/kautz"
	"otisnet/internal/legacysim"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/workload"
)

// fuzzTopology maps three fuzz bytes onto a small instance of one of the
// four network families, with the group size the group-structured
// workloads consume (0 for the point-to-point family). Instances are kept
// under ~100 nodes so a single fuzz execution stays in the low
// milliseconds.
func fuzzTopology(sel, pa, pb uint8) (sim.Topology, string, int) {
	switch sel % 4 {
	case 0:
		d, k := 2+int(pa)%2, 2+int(pb)%2
		return sim.NewPointToPointTopology(kautz.NewDeBruijn(d, k).Digraph()), "deBruijn", 0
	case 1:
		s, d := 1+int(pa)%4, 2+int(pb)%2
		return sim.NewStackTopology(stackkautz.New(s, d, 2).StackGraph()), "SK", s
	case 2:
		t, g := 1+int(pa)%4, 2+int(pb)%3
		return sim.NewStackTopology(pops.New(t, g).StackGraph()), "POPS", t
	default:
		s, n := 1+int(pa)%3, 6+int(pb)%7
		return sim.NewStackTopology(stackkautz.NewII(s, 2, n).StackGraph()), "stack-II", s
	}
}

// fuzzWorkloads are the production generators the fuzzers draw from, each
// materialized through workload.Spec.New exactly as sweeps and the CLI do.
var fuzzWorkloads = []workload.Spec{
	{},
	{Kind: workload.KindHotspot, Fraction: 0.3},
	{Kind: workload.KindTranspose},
	{Kind: workload.KindBursty, MeanOn: 8, MeanOff: 16, OffFactor: 0.2},
}

// fuzzTraffic maps a fuzz byte onto a fresh generator of one of
// fuzzWorkloads. Bursty is stateful, so every engine that generates its
// own stream needs its own instance.
func fuzzTraffic(sel uint8, rate float64, n, groupSize int) sim.Traffic {
	return fuzzWorkloads[int(sel)%len(fuzzWorkloads)].New(rate, n, groupSize)
}

func FuzzCompiledVsLegacyEngine(f *testing.F) {
	// One seed per topology family, traffic model and fault kind, plus
	// mode/wavelength/queue-cap variety. Tuple order:
	// (topoSel, pa, pb, trafficSel, ratePct, waves, maxq, faultKind,
	//  faultCount, slotsRaw, faultSlotRaw, seed, defl)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(30), uint8(1), uint8(0), uint8(0), uint8(0), uint16(150), uint16(0), int64(1), false)
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), uint8(60), uint8(1), uint8(3), uint8(0), uint8(2), uint16(200), uint16(40), int64(2), false)
	f.Add(uint8(2), uint8(3), uint8(0), uint8(2), uint8(45), uint8(2), uint8(0), uint8(1), uint8(1), uint16(120), uint16(25), int64(3), true)
	f.Add(uint8(3), uint8(1), uint8(4), uint8(3), uint8(80), uint8(3), uint8(2), uint8(2), uint8(2), uint16(90), uint16(10), int64(4), false)
	f.Add(uint8(1), uint8(3), uint8(1), uint8(0), uint8(95), uint8(1), uint8(1), uint8(0), uint8(1), uint16(250), uint16(200), int64(5), true)

	f.Fuzz(func(t *testing.T, topoSel, pa, pb, trafficSel, ratePct, waves, maxq, faultKind, faultCount uint8,
		slotsRaw, faultSlotRaw uint16, seed int64, defl bool) {
		base, family, groupSize := fuzzTopology(topoSel, pa, pb)
		if err := sim.CheckTopology(base); err != nil {
			t.Skipf("degenerate topology: %v", err)
		}
		n := base.Nodes()
		rate := 0.05 + float64(ratePct%90)/100
		slots := 50 + int(slotsRaw)%200
		drain := 400
		cfg := sim.Config{
			Seed:        seed,
			MaxQueue:    int(maxq) % 5,
			Deflection:  defl,
			Wavelengths: 1 + int(waves)%3,
		}

		// An optional one-shot fault plan; the engines get independent
		// FaultedTopology views of the same plan (the wrapper is stateful
		// and single-engine).
		topoC, topoL := base, base
		if count := int(faultCount) % 3; count > 0 {
			kinds := []faults.Kind{faults.KindNode, faults.KindCoupler, faults.KindTransmitter}
			plan := faults.Random(kinds[int(faultKind)%3], count, int(faultSlotRaw)%slots, base, seed)
			topoC = faults.Wrap(base, plan)
			topoL = faults.Wrap(base, plan)
		}

		eC := sim.NewEngine(topoC, cfg)
		eL := legacysim.NewEngine(topoL, cfg)
		type delivery struct{ id, src, dst, hops, slot int }
		var gotC, gotL []delivery
		eC.OnDeliver = func(m sim.Message, slot int) {
			gotC = append(gotC, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
		}
		eL.OnDeliver = func(m sim.Message, slot int) {
			gotL = append(gotL, delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
		}

		// One shared injection schedule drives both engines in lockstep.
		tr := fuzzTraffic(trafficSel, rate, n, groupSize)
		rng := rand.New(rand.NewSource(seed))
		var buf []sim.Injection
		for s := 0; s < slots; s++ {
			buf = tr.Generate(buf[:0], s, n, rng)
			for _, inj := range buf {
				eC.Inject(inj.Src, inj.Dst)
				eL.Inject(inj.Src, inj.Dst)
			}
			eC.Step()
			eL.Step()
		}
		for s := 0; s < drain && (eC.Backlog() > 0 || eL.Metrics().Backlog > 0); s++ {
			eC.Step()
			eL.Step()
		}

		if mC, mL := eC.Metrics(), eL.Metrics(); mC != mL {
			t.Fatalf("%s n=%d cfg=%+v traffic=%d faults=%d: metrics diverged\ncompiled %v\nlegacy   %v",
				family, n, cfg, trafficSel%4, faultCount%3, mC, mL)
		}
		if len(gotC) != len(gotL) {
			t.Fatalf("%s: %d deliveries vs legacy %d", family, len(gotC), len(gotL))
		}
		for i := range gotC {
			if gotC[i] != gotL[i] {
				t.Fatalf("%s: delivery %d = %+v, legacy %+v", family, i, gotC[i], gotL[i])
			}
		}
	})
}
