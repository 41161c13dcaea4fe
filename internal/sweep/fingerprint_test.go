package sweep_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"otisnet/internal/faults"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// TestFingerprintsAndCacheKeysPinned pins fingerprints and cache keys to
// the values they have always had: they address every cache journal ever
// written, so neither a change to how the memo is kept nor a change to the
// routing tables may move them.
func TestFingerprintsAndCacheKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		spec sweep.TopoSpec
		fp   string
	}{
		{sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}, "7c3028c4628bb1c5a241517dfc65ad7c63bec92b896a66371abd13aaa07b4083"},
		{sweep.TopoSpec{Net: "pops", T: 4, G: 2}, "18174d56ee06cec32b4631206b102b3ea9d591071e53b02c27c7e8223f8c92fb"},
		{sweep.TopoSpec{Net: "debruijn", D: 2, K: 3}, "0aa0954fa64bf6276d37355f541c730df9e4f467d7c8ea6e00b551cc4dfaa2a7"},
	} {
		topo, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // computed, then memoized
			if fp := sweep.TopologyFingerprint(topo.Topo); fp != tc.fp {
				t.Errorf("%s: fingerprint %s (call %d), want %s", topo.Name, fp, i+1, tc.fp)
			}
		}
	}
	topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := sweep.TopoSpec{Net: "debruijn", D: 2, K: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pops, err := sweep.TopoSpec{Net: "pops", T: 4, G: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	const traceFP = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	for _, tc := range []struct {
		sc  sweep.Scenario
		key string
	}{
		{sweep.Scenario{Topology: topo, Rate: 0.2, Seed: 1, Slots: 300, Drain: 300}, "b324c3bbb162dff26f6141e705ff3d699b97f902ed973df13f0fe554dcf5086c"},
		{sweep.Scenario{Topology: topo, Rate: 0.35, Seed: 97, Mode: sweep.Deflection, Wavelengths: 2, MaxQueue: 8, Slots: 200, Drain: 500,
			Fault:    faults.Spec{Kind: faults.KindNode, Count: 2, Slot: 50},
			Workload: workload.Spec{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.3}}, "599910d995018a350bcff6f77992c6d1fb1d1231ac4b56a622af1d3d67b1786c"},
		{sweep.Scenario{Topology: topo, Rate: 0.3, Seed: 2, Slots: 300, Drain: 300,
			Workload: workload.Spec{Kind: workload.KindTranspose}}, "966a1471cfb03549900a779ed078a02b898ce7ed74c8928a57ac0f5f2fe14a67"},
		{sweep.Scenario{Topology: topo, Rate: 0.25, Seed: 3, Wavelengths: 3, Slots: 400, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindBursty, MeanOn: 20, MeanOff: 80, OffFactor: 0.1}}, "7a6bd5daa46b26e3dc467f4a97226e0efd15208559393a4c4a80ddb8545142c8"},
		// An events trace replays verbatim, so its rate normalizes to 1.
		{sweep.Scenario{Topology: topo, Rate: 0.4, Seed: 4, Slots: 100, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceEvents, TraceFP: traceFP}}, "50a7210ad74b0418ebbf9ab9e6faedbbc6055025ff43d8851b1a9348c6e8d825"},
		{sweep.Scenario{Topology: topo, Rate: 1, Seed: 4, Slots: 100, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceEvents, TraceFP: traceFP}}, "50a7210ad74b0418ebbf9ab9e6faedbbc6055025ff43d8851b1a9348c6e8d825"},
		// A rates trace treats a scale <= 0 as 1, so rate 0 hashes as rate 1.
		{sweep.Scenario{Topology: topo, Rate: 0, Seed: 5, Slots: 100, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates, TraceFP: traceFP}}, "08d1937f793582a5ffb5285e7523e8a7696c7bec101d8d1098a6912b235e4c6e"},
		{sweep.Scenario{Topology: topo, Rate: 1, Seed: 5, Slots: 100, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates, TraceFP: traceFP}}, "08d1937f793582a5ffb5285e7523e8a7696c7bec101d8d1098a6912b235e4c6e"},
		{sweep.Scenario{Topology: topo, Rate: 0.6, Seed: 5, Slots: 100, Drain: 100,
			Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates, TraceFP: traceFP}}, "42bdff41f7a7277ad4f41d6b33f618d56aeaca708064b101e89a875c850c390a"},
		{sweep.Scenario{Topology: topo, Rate: 0.25, Seed: 11, MaxQueue: 16, Slots: 2000, Drain: 400,
			Workload: workload.Spec{Kind: workload.KindMultiPeriod, Period: 1000, Amplitude: 0.5, EpisodeOn: 50, EpisodeOff: 200,
				MeanOn: 5, MeanOff: 10, RateSigma: 0.2, OffFactor: 0.05}}, "6149478070d44dad04fcf51c1224681ed12848d0b010cd532735e7882b6631eb"},
		{sweep.Scenario{Topology: topo, Rate: 0.1, Seed: 6, Slots: 300, Drain: 300,
			Fault: faults.Spec{Kind: faults.KindCoupler, Count: 3, MTBF: 500, MTTR: 50, Horizon: 4000, Seed: 7}}, "08ad9ab4c5b2b245f0c12a55bfa16391e962b865c003c7345c7c169f1858d12f"},
		// Wavelengths 0 (the first row) and 1 are the same engine.
		{sweep.Scenario{Topology: topo, Rate: 0.2, Seed: 1, Wavelengths: 1, Slots: 300, Drain: 300}, "b324c3bbb162dff26f6141e705ff3d699b97f902ed973df13f0fe554dcf5086c"},
		// Every de Bruijn arc is its own coupler (fan-in 1), so W=2 with
		// deflection runs, and hashes, as W=1 store-and-forward.
		{sweep.Scenario{Topology: db, Rate: 0.3, Seed: 1, Slots: 300, Drain: 300}, "7f6dc3985af3798077f659da68b8ced4d16401552a9cc94b55f215fe43fe5ccb"},
		{sweep.Scenario{Topology: db, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 2, Slots: 300, Drain: 300}, "7f6dc3985af3798077f659da68b8ced4d16401552a9cc94b55f215fe43fe5ccb"},
		// POPS(4,2) couplers have 4 senders: below W=4 both W and the
		// mode keep their own keys; from W=4 on they fold.
		{sweep.Scenario{Topology: pops, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 1, Slots: 300, Drain: 300}, "c3d0b05dd484cc3adcf8897de9584d64dd928478d792777f6346f3ccdc2e7bdf"},
		{sweep.Scenario{Topology: pops, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 3, Slots: 300, Drain: 300}, "ba9a43b564fd3dc5b6e99e539c42b176e7f9e52623fd8762277a9a0b6b4e6b25"},
		{sweep.Scenario{Topology: pops, Rate: 0.3, Seed: 1, Wavelengths: 4, Slots: 300, Drain: 300}, "58c7280e2c6441e4c707c9e9261ec459bf9ce0260af031b33e972c1645e25d4a"},
		{sweep.Scenario{Topology: pops, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 9, Slots: 300, Drain: 300}, "58c7280e2c6441e4c707c9e9261ec459bf9ce0260af031b33e972c1645e25d4a"},
	} {
		if key := tc.sc.CacheKey(); key != tc.key {
			t.Errorf("cache key %s, want %s", key, tc.key)
		}
	}
}

// TestFingerprintedTopologyIsCollected guards against the memo pinning
// topologies: once nothing else references a fingerprinted topology, the
// garbage collector must reclaim it.
func TestFingerprintedTopologyIsCollected(t *testing.T) {
	var collected atomic.Bool
	func() {
		topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
		if err != nil {
			t.Fatal(err)
		}
		sweep.TopologyFingerprint(topo.Topo)
		slot := topo.Topo.(interface {
			FingerprintSlot() *atomic.Pointer[sim.Identity]
		}).FingerprintSlot()
		runtime.AddCleanup(slot, func(b *atomic.Bool) { b.Store(true) }, &collected)
	}()
	for deadline := time.Now().Add(5 * time.Second); !collected.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("a fingerprinted topology was never collected")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
