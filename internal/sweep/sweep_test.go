package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/obs"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

func skTopo() Topology {
	return Topology{Name: "SK(3,2,2)", Topo: sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())}
}

func popsTopo() Topology {
	return Topology{Name: "POPS(4,4)", Topo: sim.NewStackTopology(pops.New(4, 4).StackGraph())}
}

// The core acceptance property: a concurrent sweep reproduces sequential
// single-run metrics bit-for-bit for every (topology, load, seed) point.
func TestSweepMatchesSequentialRunsExactly(t *testing.T) {
	grid := Grid{
		Topologies:  []Topology{skTopo(), popsTopo()},
		Rates:       []float64{0.05, 0.2, 0.6},
		Seeds:       []int64{1, 2, 3},
		Modes:       []Mode{StoreAndForward, Deflection},
		Wavelengths: []int{1, 2},
		Slots:       200,
		Drain:       200,
	}
	points := grid.Points()
	want := len(grid.Topologies) * len(grid.Rates) * len(grid.Seeds) * len(grid.Modes) * len(grid.Wavelengths)
	if len(points) != want {
		t.Fatalf("grid expanded to %d points, want %d", len(points), want)
	}
	results := Runner{Workers: 8}.Run(points)
	for i, res := range results {
		p := points[i]
		seq := sim.Run(p.Topology.Topo, sim.UniformTraffic{Rate: p.Rate}, p.Slots, p.Drain, p.Config())
		if res.Metrics != seq {
			t.Fatalf("%s: sweep metrics diverge from sequential run:\nsweep: %v\nseq:   %v",
				p.Label(), res.Metrics, seq)
		}
	}
}

// Worker count must not change results, only wall-clock.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo()},
		Rates:      []float64{0.1, 0.4},
		Seeds:      []int64{7, 8, 9},
		Slots:      150,
		Drain:      150,
	}
	one := Runner{Workers: 1}.RunGrid(grid)
	many := Runner{Workers: 16}.RunGrid(grid)
	if len(one) != len(many) {
		t.Fatalf("result counts differ: %d vs %d", len(one), len(many))
	}
	for i := range one {
		if one[i].Metrics != many[i].Metrics {
			t.Fatalf("point %d differs between 1 and 16 workers", i)
		}
	}
}

func TestGridDefaults(t *testing.T) {
	pts := Grid{Topologies: []Topology{popsTopo()}}.Points()
	if len(pts) != 1 {
		t.Fatalf("default grid should expand to one point, got %d", len(pts))
	}
	p := pts[0]
	if p.Rate != 0.2 || p.Seed != 1 || p.Mode != StoreAndForward || p.Wavelengths != 1 || p.Slots != 1000 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if p.TrafficName != "uniform" {
		t.Fatalf("default traffic name = %q", p.TrafficName)
	}
}

func TestAggregateStats(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo()},
		Rates:      []float64{0.3},
		Seeds:      []int64{1, 2, 3, 4},
		Slots:      200,
		Drain:      200,
	}
	results := Runner{}.RunGrid(grid)
	curve := Aggregate(results)
	if len(curve) != 1 {
		t.Fatalf("expected one curve point, got %d", len(curve))
	}
	pt := curve[0]
	if pt.Seeds != 4 {
		t.Fatalf("curve point aggregates %d seeds, want 4", pt.Seeds)
	}
	// Recompute the mean by hand.
	var sum float64
	for _, r := range results {
		sum += r.Metrics.Throughput()
	}
	if mean := sum / 4; math.Abs(pt.Throughput.Mean-mean) > 1e-12 {
		t.Fatalf("throughput mean %v, want %v", pt.Throughput.Mean, mean)
	}
	// Different seeds under load give different throughput, so stddev > 0.
	if pt.Throughput.Std <= 0 {
		t.Fatalf("expected positive stddev over seeds, got %v", pt.Throughput.Std)
	}
}

func TestAggregateGroupsByKeyNotSeed(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo()},
		Rates:      []float64{0.1, 0.2},
		Seeds:      []int64{1, 2},
		Modes:      []Mode{StoreAndForward, Deflection},
		Slots:      100,
		Drain:      100,
	}
	curve := Aggregate(Runner{}.RunGrid(grid))
	if len(curve) != 4 { // 2 rates x 2 modes, seeds collapsed
		t.Fatalf("expected 4 curve points, got %d", len(curve))
	}
	for _, p := range curve {
		if p.Seeds != 2 {
			t.Fatalf("each point should aggregate 2 seeds: %+v", p)
		}
	}
}

func TestSaturateMatchesSequentialSearch(t *testing.T) {
	grid := Grid{
		Topologies:  []Topology{skTopo(), popsTopo()},
		Wavelengths: []int{1, 2},
	}
	pts := Runner{Workers: 4}.Saturate(grid, 150, 0.95, 11)
	if len(pts) != 4 {
		t.Fatalf("expected 4 saturation points, got %d", len(pts))
	}
	for _, p := range pts {
		var topo sim.Topology
		for _, tp := range grid.Topologies {
			if tp.Name == p.Topology {
				topo = tp.Topo
			}
		}
		cfg := sim.Config{Seed: 11, Wavelengths: p.Wavelengths, Deflection: p.Mode == Deflection}
		want := sim.SaturationSearch(topo, 150, 0.95, cfg)
		if p.Rate != want {
			t.Fatalf("%s w=%d: concurrent saturation %v != sequential %v",
				p.Topology, p.Wavelengths, p.Rate, want)
		}
	}
}

// TestSaturateSearchesEachCanonicalConfigOnce: de Bruijn's arcs are
// degree-1 couplers (fan-in 1), so its four (mode, W in {1, 2})
// combinations are one canonical config. Saturate must run one search for
// them, as many engine runs as a single combination takes, and report its
// rate four times.
func TestSaturateSearchesEachCanonicalConfigOnce(t *testing.T) {
	db, err := TopoSpec{Net: "debruijn", D: 2, K: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	runs := func(g Grid) ([]SaturationPoint, float64) {
		before := obs.Default().Snapshot().Counters["netsim_engine_scenarios_total"]
		pts := Runner{Workers: 2}.Saturate(g, 150, 0.95, 11)
		return pts, obs.Default().Snapshot().Counters["netsim_engine_scenarios_total"] - before
	}
	one, oneRuns := runs(Grid{Topologies: []Topology{db}})
	all, allRuns := runs(Grid{Topologies: []Topology{db}, Modes: []Mode{StoreAndForward, Deflection}, Wavelengths: []int{1, 2}})
	if oneRuns == 0 || allRuns != oneRuns {
		t.Fatalf("four folded combinations took %v engine runs, one combination %v", allRuns, oneRuns)
	}
	if len(all) != 4 {
		t.Fatalf("got %d saturation points, want 4", len(all))
	}
	for _, p := range all {
		if p.Rate != one[0].Rate {
			t.Fatalf("%v w=%d: rate %v, want the shared %v", p.Mode, p.Wavelengths, p.Rate, one[0].Rate)
		}
	}
}

func TestWriteResultsCSV(t *testing.T) {
	results := Runner{}.RunGrid(Grid{
		Topologies: []Topology{popsTopo()},
		Rates:      []float64{0.1},
		Seeds:      []int64{1, 2},
		Slots:      100,
	})
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "topology,traffic,workload,rate,mode,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
}

func TestWriteCurveJSONRoundTrips(t *testing.T) {
	curve := Aggregate(Runner{}.RunGrid(Grid{
		Topologies: []Topology{popsTopo()},
		Rates:      []float64{0.1, 0.3},
		Seeds:      []int64{1, 2, 3},
		Slots:      100,
	}))
	var buf bytes.Buffer
	if err := WriteCurveJSON(&buf, curve); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("curve JSON does not parse: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d curve points, want 2", len(decoded))
	}
	if decoded[0]["seeds"].(float64) != 3 {
		t.Fatalf("first point seeds = %v, want 3", decoded[0]["seeds"])
	}
}

func TestModeString(t *testing.T) {
	if StoreAndForward.String() != "store-and-forward" || Deflection.String() != "hot-potato" {
		t.Fatal("mode names changed; CSV/JSON consumers depend on them")
	}
}

// --- fault axis ---

func TestFaultAxisZeroSpecMatchesFaultFreeSweep(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo()},
		Rates:      []float64{0.3},
		Seeds:      []int64{1, 2},
		Slots:      200,
		Drain:      200,
	}
	plain := Runner{}.RunGrid(grid)
	grid.Faults = []faults.Spec{{}}
	withAxis := Runner{}.RunGrid(grid)
	if len(plain) != len(withAxis) {
		t.Fatalf("point counts differ: %d vs %d", len(plain), len(withAxis))
	}
	for i := range plain {
		if plain[i].Metrics != withAxis[i].Metrics {
			t.Fatalf("zero fault spec changed results at point %d", i)
		}
	}
}

// The acceptance property of the degradation sweep: throughput is monotone
// non-increasing in the number of injected node faults (same seeds, nested
// fault sets).
func TestFaultSweepDegradationMonotone(t *testing.T) {
	topo := Topology{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())}
	specs := make([]faults.Spec, 0, 4)
	for f := 0; f <= 3; f++ {
		specs = append(specs, faults.Spec{Kind: faults.KindNode, Count: f, Slot: 0, Seed: 99})
	}
	grid := Grid{
		Topologies: []Topology{topo},
		Rates:      []float64{0.5},
		Seeds:      []int64{1, 2, 3},
		Slots:      300,
		Drain:      300,
		Faults:     specs,
	}
	curve := Aggregate(Runner{}.RunGrid(grid))
	if len(curve) != len(specs) {
		t.Fatalf("expected %d curve points, got %d", len(specs), len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Throughput.Mean > curve[i-1].Throughput.Mean {
			t.Fatalf("degradation curve not monotone: %d faults -> %.4f, %d faults -> %.4f",
				i-1, curve[i-1].Throughput.Mean, i, curve[i].Throughput.Mean)
		}
	}
	if curve[0].LostToFaults.Mean != 0 {
		t.Fatalf("fault-free point lost messages to faults: %+v", curve[0])
	}
	if last := curve[len(curve)-1]; last.Unroutable.Mean+last.LostToFaults.Mean == 0 {
		t.Fatalf("faulted points should lose or fail to route some messages: %+v", last)
	}
}

func TestFaultColumnInOutputs(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{popsTopo()},
		Rates:      []float64{0.2},
		Seeds:      []int64{1},
		Slots:      100,
		Faults:     []faults.Spec{{}, {Kind: faults.KindNode, Count: 1, Slot: 10}},
	}
	results := Runner{}.RunGrid(grid)
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, ",fault,") || !strings.Contains(out, "node×1@10") {
		t.Fatalf("raw CSV missing fault column:\n%s", out)
	}
	buf.Reset()
	if err := WriteCurveCSV(&buf, Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "node×1@10") {
		t.Fatalf("curve CSV missing fault label:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteCurveJSON(&buf, Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0]["fault"] != "none" || decoded[1]["fault"] != "node×1@10" {
		t.Fatalf("curve JSON fault labels wrong: %v, %v", decoded[0]["fault"], decoded[1]["fault"])
	}
}

// Distinct fault specs that share a display label (same shape, different
// pinned seed) must stay separate curve points: aggregation keys on the
// full spec, not its label.
func TestAggregateKeepsSameLabelFaultSpecsApart(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo()},
		Rates:      []float64{0.3},
		Seeds:      []int64{1, 2},
		Slots:      100,
		Faults: []faults.Spec{
			{Kind: faults.KindNode, Count: 2, Slot: 10, Seed: 7},
			{Kind: faults.KindNode, Count: 2, Slot: 10, Seed: 8},
		},
	}
	curve := Aggregate(Runner{}.RunGrid(grid))
	if len(curve) != 2 {
		t.Fatalf("expected 2 curve points for 2 distinct specs, got %d", len(curve))
	}
	if curve[0].Fault.Label() != curve[1].Fault.Label() {
		t.Fatalf("test premise broken: labels differ (%q vs %q)",
			curve[0].Fault.Label(), curve[1].Fault.Label())
	}
	if curve[0].Seeds != 2 || curve[1].Seeds != 2 {
		t.Fatalf("each spec should aggregate its 2 traffic seeds: %+v", curve)
	}
}

// Engine reuse must be invisible: a single worker drives every scenario —
// faulted and fault-free, across workloads and modes — through the same
// cached engines (Reset between scenarios, SetPlan between fault plans),
// and each result must still equal a standalone run on fresh state.
func TestEngineReuseMatchesStandaloneScenarios(t *testing.T) {
	grid := Grid{
		Topologies: []Topology{skTopo(), popsTopo()},
		Rates:      []float64{0.3},
		Seeds:      []int64{1, 2},
		Modes:      []Mode{StoreAndForward, Deflection},
		Slots:      150,
		Drain:      150,
		Faults: []faults.Spec{
			{},
			{Kind: faults.KindNode, Count: 2, Slot: 20},
			{Kind: faults.KindCoupler, Count: 1, Slot: 10, Seed: 4},
		},
	}
	points := grid.Points()
	results := Runner{Workers: 1}.Run(points)
	for i, res := range results {
		p := points[i]
		if standalone := p.Run(); res.Metrics != standalone {
			t.Fatalf("%s: reused-engine metrics diverge from standalone:\nsweep:      %v\nstandalone: %v",
				p.Label(), res.Metrics, standalone)
		}
	}
}
