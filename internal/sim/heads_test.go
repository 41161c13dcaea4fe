package sim_test

import (
	"math/rand"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// TestDeferredHeadsMatchRoutes checks the deferred head-of-line
// resolution: after every slot, every active node's request — its headReq
// with the pending list applied, exactly as the next step resolves it —
// must be the route entry of its queue front. Each case must also
// exercise the feature it names.
func TestDeferredHeadsMatchRoutes(t *testing.T) {
	base := sim.NewStackTopology(stackkautz.New(3, 2, 3).StackGraph())
	nodeFaults := func() sim.Topology {
		return faults.Wrap(base, faults.Random(faults.KindNode, 3, 60, base, 5))
	}
	for _, tc := range []struct {
		name  string
		topo  func() sim.Topology
		cfg   sim.Config
		rate  float64
		check func(m sim.Metrics) bool
	}{
		{name: "serial W=1", cfg: sim.Config{Seed: 1}, rate: 0.3,
			check: func(m sim.Metrics) bool { return m.Delivered > 0 && m.PeakQueue > 1 }},
		{name: "W=3", cfg: sim.Config{Seed: 2, Wavelengths: 3}, rate: 0.5,
			check: func(m sim.Metrics) bool { return m.Delivered > 0 && m.PeakQueue > 1 }},
		{name: "deflection", cfg: sim.Config{Seed: 3, Deflection: true}, rate: 0.4,
			check: func(m sim.Metrics) bool { return m.Deflections > 0 }},
		{name: "MaxQueue drops", cfg: sim.Config{Seed: 4, MaxQueue: 2}, rate: 0.6,
			check: func(m sim.Metrics) bool { return m.Dropped > 0 }},
		{name: "fault events", topo: nodeFaults, cfg: sim.Config{Seed: 5}, rate: 0.4,
			check: func(m sim.Metrics) bool { return m.Unroutable > 0 && m.LostToFaults > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := sim.Topology(base)
			if tc.topo != nil {
				topo = tc.topo()
			}
			n := topo.Nodes()
			rng := rand.New(rand.NewSource(tc.cfg.Seed))
			inject := func(inj func(src, dst int)) {
				for u := 0; u < n; u++ {
					if rng.Float64() < tc.rate {
						inj(u, (u+1+rng.Intn(n-1))%n)
					}
				}
			}
			const slots, drain = 150, 400
			e := sim.NewEngine(topo, tc.cfg)
			for s := 0; s < slots+drain && (s < slots || e.Backlog() > 0); s++ {
				if s < slots {
					inject(e.Inject)
				}
				e.Step()
				if err := sim.HeadsError(e); err != nil {
					t.Fatal(err)
				}
			}
			if m := e.Metrics(); !tc.check(m) {
				t.Errorf("run did not exercise %s: %v", tc.name, m)
			}
		})
	}
}
