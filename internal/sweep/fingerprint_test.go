package sweep_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"otisnet/internal/faults"
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
	for _, tc := range []struct {
		sc  sweep.Scenario
		key string
	}{
		{sweep.Scenario{Topology: topo, Rate: 0.2, Seed: 1, Slots: 300, Drain: 300}, "b324c3bbb162dff26f6141e705ff3d699b97f902ed973df13f0fe554dcf5086c"},
		{sweep.Scenario{Topology: topo, Rate: 0.35, Seed: 97, Mode: sweep.Deflection, Wavelengths: 2, MaxQueue: 8, Slots: 200, Drain: 500,
			Fault:    faults.Spec{Kind: faults.KindNode, Count: 2, Slot: 50},
			Workload: workload.Spec{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.3}}, "599910d995018a350bcff6f77992c6d1fb1d1231ac4b56a622af1d3d67b1786c"},
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
			FingerprintSlot() *atomic.Pointer[string]
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
