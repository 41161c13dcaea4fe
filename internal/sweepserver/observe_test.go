package sweepserver_test

// Observability endpoint tests: /metrics must be valid Prometheus text
// exposition with the engine/sweep/cache/server families present, and
// /api/v1/observe must report live per-job progress that is monotone
// under concurrent jobs and a mid-flight cancel.

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
)

// promSample matches one Prometheus text sample line (name, optional
// labels, float value).
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+][0-9]+)?$`)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	// Families are registered at package init, so they appear before any
	// job has run — the contract the CI scrape smoke relies on.
	text := scrapeMetrics(t, ts.URL)
	for _, family := range []string{
		"# TYPE netsim_engine_scenarios_total counter",
		"# TYPE netsim_engine_slots_total counter",
		"# TYPE netsim_engine_queue_depth histogram",
		"# TYPE netsim_sweep_points_completed_total counter",
		"# TYPE netsim_sweepcache_hits_total counter",
		"# TYPE netsim_server_jobs_submitted_total counter",
		"# TYPE netsim_server_jobs_running gauge",
	} {
		if !strings.Contains(text, family+"\n") {
			t.Errorf("idle exposition missing %q", family)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}

	// After a completed job the engine and sweep counters must have moved.
	spec := testSpec()
	st := submit(t, ts, spec)
	stream(t, ts, st.ID)
	text = scrapeMetrics(t, ts.URL)
	for _, sample := range []struct{ name, zero string }{
		{"netsim_engine_scenarios_total", "netsim_engine_scenarios_total 0"},
		{"netsim_sweep_points_completed_total", "netsim_sweep_points_completed_total 0"},
		{"netsim_server_jobs_completed_total", "netsim_server_jobs_completed_total 0"},
	} {
		if strings.Contains(text, sample.zero+"\n") {
			t.Errorf("%s still zero after a completed job", sample.name)
		}
	}
	if !strings.Contains(text, `netsim_engine_queue_depth_bucket{le="+Inf"}`) {
		t.Error("histogram exposition missing the +Inf bucket")
	}
}

func observe(t *testing.T, ts *httptest.Server) sweepserver.Observation {
	t.Helper()
	var o sweepserver.Observation
	getJSON(t, ts, "/api/v1/observe", &o)
	return o
}

// newPprofServer is newTestServer with the profiling handlers opted in.
func newPprofServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := sweepserver.New(sweep.Runner{}, sweepcache.NewMemory())
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv.Pprof = true
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestObserveProgressMonotonic runs two concurrent jobs, cancels one
// mid-flight, and polls /api/v1/observe throughout: per-job Done and
// ElapsedSec must never decrease, Done never exceeds Points, and the
// terminal observation must be consistent with the job states.
func TestObserveProgressMonotonic(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	spec.Slots = 2000
	spec.Drain = 2000
	spec.Seeds = []int64{1, 2, 3, 4}
	first := submit(t, ts, spec)

	specB := spec
	specB.Seeds = []int64{5, 6, 7, 8}
	second := submit(t, ts, specB)

	prev := map[string]sweepserver.JobObservation{}
	canceled := false
	deadline := time.Now().Add(60 * time.Second)
	for {
		o := observe(t, ts)
		if len(o.Jobs) != 2 {
			t.Fatalf("observe lists %d jobs, want 2", len(o.Jobs))
		}
		if o.Cache.HitRate < 0 || o.Cache.HitRate > 1 {
			t.Fatalf("cache hit rate %g out of [0,1]", o.Cache.HitRate)
		}
		terminal := 0
		for _, j := range o.Jobs {
			if j.Done < 0 || j.Done > j.Points {
				t.Fatalf("job %s: done %d out of range (points %d)", j.ID, j.Done, j.Points)
			}
			if j.ElapsedSec < 0 || j.PointsPerSec < 0 {
				t.Fatalf("job %s: negative rate figures %+v", j.ID, j)
			}
			if p, ok := prev[j.ID]; ok {
				if j.Done < p.Done {
					t.Fatalf("job %s: done regressed %d -> %d", j.ID, p.Done, j.Done)
				}
				if j.ElapsedSec < p.ElapsedSec {
					t.Fatalf("job %s: elapsed regressed %g -> %g", j.ID, p.ElapsedSec, j.ElapsedSec)
				}
				if p.State != "running" && j.State != p.State {
					t.Fatalf("job %s: terminal state changed %s -> %s", j.ID, p.State, j.State)
				}
			}
			prev[j.ID] = j
			if j.State != "running" {
				terminal++
			}
		}
		// Cancel the second job the first time we see any progress at all.
		if !canceled && (prev[second.ID].Done > 0 || prev[first.ID].Done > 0) {
			resp, err := http.Post(ts.URL+"/api/v1/sweeps/"+second.ID+"/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			canceled = true
		}
		if terminal == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still running at deadline: %+v", prev)
		}
		time.Sleep(5 * time.Millisecond)
	}

	final := observe(t, ts)
	for _, j := range final.Jobs {
		switch j.ID {
		case first.ID:
			if j.State != "done" || j.Done != j.Points {
				t.Fatalf("first job terminal observation %+v", j)
			}
			if j.Done > 0 && j.ElapsedSec > 0 && j.PointsPerSec == 0 {
				t.Fatalf("finished job reports zero throughput: %+v", j)
			}
		case second.ID:
			if j.State != "done" && j.State != "canceled" {
				t.Fatalf("second job terminal observation %+v", j)
			}
		}
	}
	if final.Metrics.Counters["netsim_server_jobs_submitted_total"] < 2 {
		t.Fatalf("registry snapshot missing job submissions: %v", final.Metrics.Counters)
	}
	if final.Metrics.Gauges["netsim_server_jobs_running"] != 0 {
		t.Fatalf("jobs_running gauge nonzero after both jobs ended: %v", final.Metrics.Gauges)
	}
}

// TestPprofOptIn: the profiling handlers exist only when Pprof is set.
func TestPprofOptIn(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: status %d", resp.StatusCode)
	}

	srv := newPprofServer(t)
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with opt-in: status %d", resp.StatusCode)
	}
}
