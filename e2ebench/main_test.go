package main

// The benchmark's self-test: every workload, shrunken, at the pinned seed
// and at the held-out seed, plain and traced. It checks that each run is
// correct with no failed op, prints every metric BENCHMARK.json names with
// the unit it declares (end-to-end ones never 0), and that the traced
// runs' layer split adds up to the workers' wall time within
// splitTolerance.
//
//	cd e2ebench && go test .

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"testing"
)

// heldOutSeed is the seed kept out of tuning; gain claims are rechecked on
// it (README.md).
const heldOutSeed = 97

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the harness lacks", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the harness has %d workloads", names, len(workloads))
	}
	if len(bf.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(layerCatalog))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerCatalog[i].name || m.Unit != layerCatalog[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, layerCatalog[i].name, layerCatalog[i].unit)
		}
	}
}

func TestShrunkenWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, heldOutSeed} {
			for _, trace := range []bool{false, true} {
				t.Run(name+"/seed"+strconv.FormatInt(seed, 10)+"/trace"+strconv.FormatBool(trace), func(t *testing.T) {
					b := &bench{seed: seed, trace: trace, small: true, root: "..", tmp: t.TempDir(), log: testLog{t}}
					res, err := b.execute(name, workloads[name])
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
					}
					want := map[string]string{}
					if trace {
						for _, m := range bf.PerLayer {
							want[m.Name] = m.Unit
						}
					} else {
						for _, m := range bf.EndToEnd {
							want[m.Name] = m.Unit
						}
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
					}
					for n, unit := range want {
						got, ok := res.Metrics[n]
						switch {
						case !ok:
							t.Errorf("metric %s missing", n)
						case got.Unit != unit:
							t.Errorf("metric %s in %s, BENCHMARK.json says %s", n, got.Unit, unit)
						case !trace && !(got.Value > 0):
							t.Errorf("end-to-end metric %s = %v, want > 0", n, got.Value)
						}
					}
					if trace && res.Metrics["split.residual_frac"].Value > splitTolerance {
						t.Errorf("layer split residual %v exceeds %v", res.Metrics["split.residual_frac"].Value, splitTolerance)
					}
				})
			}
		}
	}
}

// testLog sends the harness's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
