package obs_test

// Registry unit tests: histogram bucket boundaries and quantile
// interpolation, sharded-counter aggregation under concurrency (run with
// -race in CI), registration idempotence and type-stickiness, and the
// Prometheus text exposition (header/series shape, cumulative buckets,
// integer rendering). The NDJSON trace sink is covered in trace
// round-trip tests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"

	"otisnet/internal/export"
	"otisnet/internal/obs"
)

func TestCounterShardAggregation(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_shards_total", "")
	const goroutines, per = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddShard(sh, 1)
			}
		}(obs.NextShard())
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("sharded counter summed to %d, want %d", got, goroutines*per)
	}
	c.Add(5)
	if got := c.Value(); got != goroutines*per+5 {
		t.Fatalf("after plain Add: %d, want %d", got, goroutines*per+5)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_hist", "", []float64{1, 2, 4})
	if h.NumBuckets() != 4 {
		t.Fatalf("NumBuckets = %d, want 4 (3 bounds + overflow)", h.NumBuckets())
	}
	// Upper edges are inclusive: a value equal to a bound lands in that
	// bound's bucket, matching Prometheus le semantics.
	for _, tc := range []struct {
		v    float64
		want int
	}{{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {4, 2}, {4.01, 3}, {1000, 3}} {
		if got := h.BucketOf(tc.v); got != tc.want {
			t.Errorf("BucketOf(%g) = %d, want %d", tc.v, got, tc.want)
		}
		h.Observe(tc.v)
	}
	s := h.Snapshot()
	if want := []int64{2, 2, 2, 2}; fmt.Sprint(s.Buckets) != fmt.Sprint(want) {
		t.Fatalf("buckets %v, want %v", s.Buckets, want)
	}
	if s.Count != 8 {
		t.Fatalf("count %d, want 8", s.Count)
	}
}

func TestHistogramAddBucketsMatchesObserve(t *testing.T) {
	r := obs.NewRegistry()
	ho := r.Histogram("test_hist_observe", "", []float64{1, 2, 4})
	hb := r.Histogram("test_hist_binned", "", []float64{1, 2, 4})
	values := []float64{1, 1, 2, 3, 5, 9, 4}
	binned := make([]int64, hb.NumBuckets())
	var sum int64
	for _, v := range values {
		ho.Observe(v)
		binned[hb.BucketOf(v)]++
		sum += int64(v)
	}
	hb.AddBuckets(binned, sum)
	so, sb := ho.Snapshot(), hb.Snapshot()
	if fmt.Sprint(so.Buckets) != fmt.Sprint(sb.Buckets) || so.Count != sb.Count || so.Sum != sb.Sum {
		t.Fatalf("pre-binned merge diverged from Observe:\nobserve %+v\nbinned  %+v", so, sb)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_hist_q", "", []float64{10, 20, 30})
	// 10 observations uniform in (0,10], 10 in (10,20].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q, want float64
	}{{0.5, 10}, {0.75, 15}, {1.0, 20}, {0.25, 5}} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}

	// Everything in the overflow bucket clamps to the last bound.
	ho := r.Histogram("test_hist_q_over", "", []float64{10, 20, 30})
	ho.Observe(100)
	if got := ho.Snapshot().Quantile(0.5); got != 30 {
		t.Errorf("overflow quantile = %g, want 30 (last bound)", got)
	}

	// Empty histogram reports 0.
	he := r.Histogram("test_hist_q_empty", "", []float64{10})
	if got := he.Snapshot().Quantile(0.9); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestRegistryIdempotentAndTypeSticky(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("dup_total", "first help")
	b := r.Counter("dup_total", "second help ignored")
	if a != b {
		t.Fatal("re-registering a counter name returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestSnapshotAndGaugeFunc(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.SecondsCounter("s_seconds_total", "").Add(250_000_000)
	r.Gauge("g", "").Set(-3)
	r.Histogram("h", "", []float64{1}).Observe(2)
	live := 41.0
	r.GaugeFunc("gf", "", func() float64 { live++; return live })
	s := r.Snapshot()
	if s.Counters["c_total"] != 7 || s.Counters["s_seconds_total"] != 0.25 || s.Gauges["g"] != -3 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Gauges["gf"] != 42 {
		t.Fatalf("gauge func read %g, want 42 (evaluated at snapshot time)", s.Gauges["gf"])
	}
	if h := s.Histograms["h"]; h.Count != 1 || h.Buckets[1] != 1 {
		t.Fatalf("histogram snapshot %+v", h)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

// seriesLine matches one Prometheus text exposition sample line.
var seriesLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+][0-9]+)?$`)

func TestWritePrometheus(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("req_total", "requests").Add(3)
	r.Gauge("depth", "queue depth").Set(9)
	h := r.Histogram("lat", "latency", []float64{1, 2.5, 4})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(99)
	r.GaugeFunc("ratio", "hit ratio", func() float64 { return 0.25 })
	r.SecondsCounter("wait_seconds_total", "time waited").AddShard(3, 1_500_000_000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Every family has a TYPE header; every sample line parses.
	for _, want := range []string{
		"# TYPE req_total counter",
		"# TYPE depth gauge",
		"# TYPE lat histogram",
		"# TYPE ratio gauge",
		"# TYPE wait_seconds_total counter",
		"wait_seconds_total 1.5",
		"req_total 3",
		"depth 9",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2.5"} 2`,
		`lat_bucket{le="4"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_count 3",
		"ratio 0.25",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	var prevCum int64 = -1
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !seriesLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
		if strings.HasPrefix(line, "lat_bucket") {
			var cum int64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum)
			if cum < prevCum {
				t.Errorf("histogram buckets not cumulative at %q", line)
			}
			prevCum = cum
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	type ev struct {
		Kind string `json:"kind"`
		Slot int    `json:"slot"`
	}
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf, 0) // < 1 clamps to every slot
	if tr.SampleEvery() != 1 {
		t.Fatalf("SampleEvery = %d, want clamp to 1", tr.SampleEvery())
	}
	for i := 0; i < 5; i++ {
		tr.Emit(ev{Kind: "slot", Slot: i})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 5 {
		t.Fatalf("Events = %d, want 5", tr.Events())
	}
	var got []ev
	truncated, err := export.ForEachNDJSONLine(&buf, func(line []byte) error {
		var e ev
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		got = append(got, e)
		return nil
	})
	if err != nil || truncated {
		t.Fatalf("reading trace back: err=%v truncated=%v", err, truncated)
	}
	if len(got) != 5 || got[4].Slot != 4 {
		t.Fatalf("round-tripped events %+v", got)
	}
}
