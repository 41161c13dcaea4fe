package sweep_test

// Output-stability golden tests: the CSV/JSON files a sweep emits are
// consumed by notebooks and downstream tooling, so column order, header
// names and number formatting must not drift silently. A fixed small grid
// (serviceGrid: two topologies, fault and workload axes — every column
// populated) is rendered through all four writers and compared byte for
// byte against testdata/golden_*.{csv,json}; regenerate deliberately with
//
//	go test ./internal/sweep -run TestGolden -update
//
// The same golden bytes also pin the service layer's equivalence claims:
// a 3-way sharded run merged back, and a warm-cache rerun, must reproduce
// the files byte for byte.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"otisnet/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden sweep output files")

// goldenWriters maps golden file names to output writers.
func goldenWriters() map[string]func(*bytes.Buffer, []sweep.Result) error {
	return map[string]func(*bytes.Buffer, []sweep.Result) error{
		"golden_results.csv": func(b *bytes.Buffer, r []sweep.Result) error {
			return sweep.WriteResultsCSV(b, r)
		},
		"golden_results.json": func(b *bytes.Buffer, r []sweep.Result) error {
			return sweep.WriteResultsJSON(b, r)
		},
		"golden_curve.csv": func(b *bytes.Buffer, r []sweep.Result) error {
			return sweep.WriteCurveCSV(b, sweep.Aggregate(r))
		},
		"golden_curve.json": func(b *bytes.Buffer, r []sweep.Result) error {
			return sweep.WriteCurveJSON(b, sweep.Aggregate(r))
		},
	}
}

// render produces all four output files for a result set.
func render(t *testing.T, results []sweep.Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, write := range goldenWriters() {
		var b bytes.Buffer
		if err := write(&b, results); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.Bytes()
	}
	return out
}

// compareGolden checks every rendered file against testdata (rewriting
// under -update).
func compareGolden(t *testing.T, rendered map[string][]byte, context string) {
	t.Helper()
	for name, got := range rendered {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %s output drifted from the golden file (regenerate deliberately with -update)\ngot  %d bytes\nwant %d bytes",
				context, name, len(got), len(want))
		}
	}
}

func TestGoldenSweepOutputStability(t *testing.T) {
	results := sweep.Runner{}.Run(serviceGrid().Points())
	compareGolden(t, render(t, results), "single-process run")
}

func TestGoldenOutputFromShardedRun(t *testing.T) {
	if *update {
		t.Skip("goldens are written by TestGoldenSweepOutputStability")
	}
	points := serviceGrid().Points()
	var rows [][]sweep.ShardResult
	for si := 0; si < 3; si++ {
		shard, err := sweep.ShardPoints(points, si, 3)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, shard.ShardResults(sweep.Runner{Workers: 2}.Run(shard.Points)))
	}
	merged, err := sweep.MergeShardResults(points, rows...)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, render(t, merged), "3-shard merged run")
}

func TestGoldenOutputFromWarmCache(t *testing.T) {
	if *update {
		t.Skip("goldens are written by TestGoldenSweepOutputStability")
	}
	points := serviceGrid().Points()
	cache := newMapCache()
	if _, err := (sweep.Runner{}).RunCached(t.Context(), points, cache, nil); err != nil {
		t.Fatal(err)
	}
	warm, err := sweep.Runner{}.RunCached(t.Context(), points, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, render(t, warm), "warm-cache rerun")
}
