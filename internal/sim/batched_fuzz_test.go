package sim_test

// Differential fuzzing of the batched ReplicaSet against R independent
// single-replica Engine runs. The batch mixes seeds, offered loads,
// traffic models, disciplines, queue caps, wavelength counts and fault
// plans across its replicas — replicas come in pairs that share one
// injection stream (StreamGroup), the way sweep batches mode-siblings —
// and every replica must produce Metrics and an OnDeliver event stream
// identical to its solo run. Any divergence of the batched core
// (retirement timing, stream fan-out, per-replica fault views, slab
// aliasing between replicas) surfaces as a minimized counterexample.
//
// The seed corpus (testdata/fuzz/FuzzBatchedVsSingleEngine plus the f.Add
// tuples below) covers every topology family and traffic model, batches
// with and without faults, and divergent retirement; CI additionally runs
// a short `-fuzz` smoke.

import (
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/sim"
)

func FuzzBatchedVsSingleEngine(f *testing.F) {
	// Tuple order: (topoSel, pa, pb, rcount, tselA, tselB, tselC,
	// rateA, rateB, rateC, slotsA, slotsB, slotsC, faultKind, faultMask,
	// deflMask, maxqMask, wavesMask, faultSlotRaw, seed)
	f.Add(uint8(1), uint8(2), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0), uint8(40), uint8(15), uint8(0), uint16(80), uint16(0), uint16(0), uint8(0), uint8(0), uint8(2), uint8(0), uint8(0), uint16(0), int64(1))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(4), uint8(0), uint8(1), uint8(0), uint8(55), uint8(25), uint8(0), uint16(120), uint16(40), uint16(0), uint8(0), uint8(0), uint8(10), uint8(3), uint8(0), uint16(0), int64(2))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(3), uint8(2), uint8(3), uint8(0), uint8(30), uint8(70), uint8(0), uint16(60), uint16(150), uint16(0), uint8(1), uint8(6), uint8(5), uint8(1), uint8(2), uint16(25), int64(3))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(5), uint8(1), uint8(0), uint8(3), uint8(85), uint8(10), uint8(45), uint16(90), uint16(30), uint16(200), uint8(2), uint8(9), uint8(21), uint8(2), uint8(1), uint16(10), int64(4))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(4), uint8(0), uint8(0), uint8(0), uint8(90), uint8(90), uint8(0), uint16(150), uint16(150), uint16(0), uint8(0), uint8(3), uint8(6), uint8(0), uint8(0), uint16(40), int64(5))

	f.Fuzz(func(t *testing.T, topoSel, pa, pb, rcount, tselA, tselB, tselC, rateA, rateB, rateC uint8,
		slotsA, slotsB, slotsC uint16, faultKind, faultMask, deflMask, maxqMask, wavesMask uint8,
		faultSlotRaw uint16, seed int64) {
		base, family, groupSize := fuzzTopology(topoSel, pa, pb)
		if err := sim.CheckTopology(base); err != nil {
			t.Skipf("degenerate topology: %v", err)
		}
		n := base.Nodes()
		r := 2 + int(rcount)%5 // 2..6 replicas, up to 3 stream pairs

		// Pair-level parameters: replicas 2p and 2p+1 share the stream
		// inputs (traffic model, rate, seed, slot count) and diverge in
		// everything else, mirroring how sweep batches mode-siblings.
		tsel := [3]uint8{tselA, tselB, tselC}
		ratePct := [3]uint8{rateA, rateB, rateC}
		slotsRaw := [3]uint16{slotsA, slotsB, slotsC}

		type delivery struct{ id, src, dst, hops, slot int }
		specs := make([]sim.ReplicaSpec, r)
		batched := make([][]delivery, r)
		solo := make([][]delivery, r)
		soloMetrics := make([]sim.Metrics, r)

		kinds := []faults.Kind{faults.KindNode, faults.KindCoupler, faults.KindTransmitter}
		for i := 0; i < r; i++ {
			p := i / 2
			pairSeed := seed + int64(p)
			rate := 0.05 + float64(ratePct[p]%90)/100
			slots := 30 + int(slotsRaw[p])%150
			drain := 200 + 100*(i%2) // divergent drain budgets within a pair
			cfg := sim.Config{
				Seed:        pairSeed,
				MaxQueue:    int(maxqMask>>(i&3)) % 5,
				Deflection:  deflMask>>(i%8)&1 != 0,
				Wavelengths: 1 + int(wavesMask>>(i&3))%3,
			}

			// Per-replica fault plans: batched and solo runs each get their
			// own stateful wrapper of the same plan.
			var topoBatch, topoSolo sim.Topology
			if count := int(faultMask>>(i&3)) % 3; count > 0 {
				plan := faults.Random(kinds[int(faultKind)%3], count, int(faultSlotRaw)%slots, base, pairSeed+int64(i))
				topoBatch = faults.Wrap(base, plan)
				topoSolo = faults.Wrap(base, plan)
			} else {
				topoSolo = base
			}

			i := i // capture for the delivery callbacks
			specs[i] = sim.ReplicaSpec{
				Topo:        topoBatch,
				Config:      cfg,
				Traffic:     fuzzTraffic(tsel[p], rate, n, groupSize),
				Slots:       slots,
				Drain:       drain,
				StreamGroup: p,
				OnDeliver: func(m sim.Message, slot int) {
					batched[i] = append(batched[i], delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
				},
			}

			eng := sim.NewEngine(topoSolo, cfg)
			eng.OnDeliver = func(m sim.Message, slot int) {
				solo[i] = append(solo[i], delivery{m.ID, m.Src, m.Dst, m.Hops, slot})
			}
			soloMetrics[i] = eng.Run(fuzzTraffic(tsel[p], rate, n, groupSize), slots, drain, cfg)
		}

		rs := sim.NewReplicaSet(base)
		rs.Configure(specs)
		rs.RunAll()

		for i := 0; i < r; i++ {
			if mB := rs.Metrics(i); mB != soloMetrics[i] {
				t.Fatalf("%s n=%d replica %d/%d: metrics diverged\nbatched %v\nsolo    %v",
					family, n, i, r, mB, soloMetrics[i])
			}
			if len(batched[i]) != len(solo[i]) {
				t.Fatalf("%s replica %d: %d deliveries batched vs %d solo", family, i, len(batched[i]), len(solo[i]))
			}
			for j := range batched[i] {
				if batched[i][j] != solo[i][j] {
					t.Fatalf("%s replica %d: delivery %d = %+v batched, %+v solo",
						family, i, j, batched[i][j], solo[i][j])
				}
			}
		}
	})
}
