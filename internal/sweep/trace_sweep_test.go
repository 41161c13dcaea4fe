package sweep_test

// Trace workloads through the sweep service layers: the checked-in
// example traces must produce bit-for-bit identical metrics across a solo
// run, batched ReplicaSet dispatch, a sharded run merged back, and a
// warm-cache rerun; and the content-addressed cache key must track trace
// bytes, not trace paths.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// Checked-in example traces (also the subjects of the README quickstart
// and scripts/datacenter_day.sh).
const (
	exampleRateTrace  = "../../examples/traces/day_rates.csv"
	exampleEventTrace = "../../examples/traces/burst_events.ndjson"
)

// traceGrid builds the mixed-scale trace grid: two topologies of
// different node counts (the event trace's ids wrap modulo each), both
// record forms, two seeds.
func traceGrid(t *testing.T) sweep.Grid {
	t.Helper()
	rateSpec, err := workload.NewTraceSpec(exampleRateTrace)
	if err != nil {
		t.Fatal(err)
	}
	eventSpec, err := workload.NewTraceSpec(exampleEventTrace)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(3,2,2)", Topo: sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph()), GroupSize: 3},
			{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()), GroupSize: 6},
		},
		Rates:     []float64{1},
		Seeds:     []int64{1, 2},
		Slots:     250,
		Drain:     250,
		Workloads: []workload.Spec{rateSpec, eventSpec},
	}
}

func TestTraceSweepSoloBatchedShardedBitForBit(t *testing.T) {
	grid := traceGrid(t)
	points := grid.Points()
	solo := sweep.Runner{}.Run(points)

	// The first point must also match a direct sequential sim.Run — the
	// sweep adds no interpretation of its own.
	p := points[0]
	direct := sim.Run(p.Topology.Topo, p.Workload.New(p.Rate, p.Topology.Topo.Nodes(), p.Topology.GroupSize),
		p.Slots, p.Drain, sim.Config{Seed: p.Seed, Wavelengths: p.Wavelengths})
	if solo[0].Metrics != direct {
		t.Fatalf("solo sweep diverged from direct run:\nsweep:  %v\ndirect: %v", solo[0].Metrics, direct)
	}

	for name, runner := range map[string]sweep.Runner{
		"batched-3":    {Workers: 2, Replicas: 3},
		"auto-batched": {Workers: 3, Replicas: sweep.AutoReplicas},
	} {
		got := runner.Run(points)
		for i := range solo {
			if got[i].Metrics != solo[i].Metrics {
				t.Fatalf("%s: point %d (%s) diverged from solo run", name, i, points[i].Label())
			}
		}
	}

	var shardRows [][]sweep.ShardResult
	for s := 0; s < 3; s++ {
		shard, err := sweep.ShardPoints(points, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		shardRows = append(shardRows, shard.ShardResults(sweep.Runner{Replicas: sweep.AutoReplicas}.Run(shard.Points)))
	}
	merged, err := sweep.MergeShardResults(points, shardRows...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo {
		if merged[i].Metrics != solo[i].Metrics {
			t.Fatalf("sharded run diverged from solo at point %d (%s)", i, points[i].Label())
		}
	}
}

func TestTraceCacheKeyTracksContent(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scenario := func(path string) sweep.Scenario {
		spec, err := workload.NewTraceSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		return sweep.Scenario{
			Topology: sweep.Topology{Name: "SK(3,2,2)", Topo: sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph()), GroupSize: 3},
			Rate:     1, Seed: 1, Slots: 100, Drain: 100,
			Workload: spec,
		}
	}
	key := func(s sweep.Scenario) string {
		k, ok := s.CacheKey()
		if !ok {
			t.Fatal("trace scenario not hashable")
		}
		return k
	}

	base := key(scenario(write("a.csv", "0,1,2\n1,2,3\n")))
	if moved := key(scenario(write("b.csv", "0,1,2\n1,2,3\n"))); moved != base {
		t.Error("identical trace content at another path moved the key (should be content-addressed)")
	}
	if edited := key(scenario(write("c.csv", "0,1,2\n1,2,4\n"))); edited == base {
		t.Error("editing one trace record kept the cache key")
	}

	// Event traces ignore the rate axis: the key must normalize it.
	ev := scenario(write("d.csv", "0,1,2\n1,2,3\n"))
	ev2 := ev
	ev2.Rate = 0.2
	if key(ev) != key(ev2) {
		t.Error("event-form trace scenarios differing only in rate hashed differently")
	}
	// Rate traces honor it as a scale: the key must keep it.
	rt := scenario(write("e.csv", "0,0.5\n"))
	rt2 := rt
	rt2.Rate = 0.2
	if key(rt) == key(rt2) {
		t.Error("rate-form trace scenarios with different scales hashed identically")
	}

	// An untouched-trace rerun is a pure warm hit: zero recomputation.
	points := []sweep.Scenario{scenario(write("f.csv", "0,1,2\n2,0,4\n"))}
	cache := newMapCache()
	if _, err := (sweep.Runner{}).RunCached(context.Background(), points, cache, nil); err != nil {
		t.Fatal(err)
	}
	if cache.stores != 1 {
		t.Fatalf("cold trace run stored %d points, want 1", cache.stores)
	}
	computed := 0
	_, err := sweep.Runner{}.RunCached(context.Background(), points, cache, func(i int, res sweep.Result, hit bool) {
		if !hit {
			computed++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed != 0 {
		t.Fatalf("warm rerun of an untouched trace recomputed %d points", computed)
	}
	if cache.stores != 1 {
		t.Fatalf("warm rerun stored again (stores=%d)", cache.stores)
	}
}

// TestGoldenTraceReplayOutput pins the "datacenter day" experiment: the
// paper trio replaying the checked-in example day trace renders byte for
// byte the golden curve (regenerate deliberately with -update).
func TestGoldenTraceReplayOutput(t *testing.T) {
	spec, err := workload.NewTraceSpec(exampleRateTrace)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{
		Topologies: sweep.ComparableScaleTrio(),
		Rates:      []float64{1},
		Seeds:      []int64{1, 2},
		Slots:      300,
		Drain:      300,
		Workloads:  []workload.Spec{spec},
	}
	results := sweep.Runner{Replicas: sweep.AutoReplicas}.Run(grid.Points())
	rendered := render(t, results)
	golden := map[string][]byte{"golden_trace_curve.csv": rendered["golden_curve.csv"]}
	compareGolden(t, golden, "trace replay")
}
