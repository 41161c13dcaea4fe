package sweepserver_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
)

func testSpec() sweepserver.GridSpec {
	return sweepserver.GridSpec{
		Topologies: []sweep.TopoSpec{{Net: "sk", S: 3, D: 2, K: 2}},
		Rates:      []float64{0.1, 0.3},
		Seeds:      []int64{1, 2},
		Modes:      []string{"sf", "deflect"},
		Slots:      150,
		Drain:      150,
		Workloads:  []sweepserver.WorkloadSpec{{Kind: "uniform"}, {Kind: "hotspot", HotGroup: 1, Fraction: 0.4}},
		Faults:     []sweepserver.FaultSpec{{Kind: "node", Count: 0}, {Kind: "node", Count: 1, Slot: 40}},
	}
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := sweepserver.New(sweep.Runner{}, sweepcache.NewMemory())
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func submit(t *testing.T, ts *httptest.Server, spec sweepserver.GridSpec) sweepserver.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st sweepserver.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// stream reads the full NDJSON result stream of a job (blocking until the
// job completes).
func stream(t *testing.T, ts *httptest.Server, id string) []sweepserver.StreamEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []sweepserver.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev sweepserver.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestSubmitStreamAndCurve(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	st := submit(t, ts, spec)

	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	points := grid.Points()
	if st.Points != len(points) {
		t.Fatalf("submit reported %d points, grid has %d", st.Points, len(points))
	}

	events := stream(t, ts, st.ID)
	if len(events) != len(points) {
		t.Fatalf("stream delivered %d events, want %d", len(events), len(points))
	}

	// Every point exactly once, and every record identical to a direct
	// in-process sweep of the same grid.
	want := sweep.Runner{}.Run(points)
	seen := make([]bool, len(points))
	for _, ev := range events {
		if ev.Index < 0 || ev.Index >= len(points) || seen[ev.Index] {
			t.Fatalf("stream index %d out of range or duplicated", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Record != sweep.NewRecord(want[ev.Index]) {
			t.Fatalf("point %d: served record %+v differs from direct run %+v",
				ev.Index, ev.Record, sweep.NewRecord(want[ev.Index]))
		}
		if ev.Cached {
			t.Fatalf("first submission served point %d from cache", ev.Index)
		}
	}

	// Terminal status.
	var got sweepserver.Status
	getJSON(t, ts, "/api/v1/sweeps/"+st.ID, &got)
	if got.State != "done" || got.Done != len(points) {
		t.Fatalf("status after stream: %+v", got)
	}

	// The curve endpoint serves exactly WriteCurveJSON of the same results.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/curve")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gotCurve bytes.Buffer
	if _, err := gotCurve.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var wantCurve bytes.Buffer
	if err := sweep.WriteCurveJSON(&wantCurve, sweep.Aggregate(want)); err != nil {
		t.Fatal(err)
	}
	if gotCurve.String() != wantCurve.String() {
		t.Fatalf("curve endpoint drifted from WriteCurveJSON")
	}
}

// TestBatchedSubmissionMatchesDirectRun submits the grid with the
// batched-dispatch override and requires every served record to equal the
// per-scenario in-process run — the service-level face of the ReplicaSet
// bit-for-bit contract.
func TestBatchedSubmissionMatchesDirectRun(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	auto := -1
	spec.Replicas = &auto
	st := submit(t, ts, spec)

	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	points := grid.Points()
	want := sweep.Runner{}.Run(points)
	for _, ev := range stream(t, ts, st.ID) {
		if ev.Record != sweep.NewRecord(want[ev.Index]) {
			t.Fatalf("batched point %d: served record %+v differs from direct run %+v",
				ev.Index, ev.Record, sweep.NewRecord(want[ev.Index]))
		}
	}
}

func TestResubmissionAnswersFromCache(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	first := submit(t, ts, spec)
	stream(t, ts, first.ID)

	second := submit(t, ts, spec)
	events := stream(t, ts, second.ID)
	for _, ev := range events {
		if !ev.Cached {
			t.Fatalf("resubmitted grid recomputed point %d", ev.Index)
		}
	}
	var stats sweepcache.Stats
	getJSON(t, ts, "/api/v1/cache/stats", &stats)
	if stats.Hits < int64(len(events)) || stats.Entries == 0 {
		t.Fatalf("cache stats after resubmission: %+v", stats)
	}
	var status sweepserver.Status
	getJSON(t, ts, "/api/v1/sweeps/"+second.ID, &status)
	if status.Cached != len(events) {
		t.Fatalf("status cached count %d, want %d", status.Cached, len(events))
	}
}

func TestCancel(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	spec.Slots = 4000 // big enough that the job is still running when we cancel
	spec.Drain = 4000
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	st := submit(t, ts, spec)

	resp, err := http.Post(ts.URL+"/api/v1/sweeps/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		var got sweepserver.Status
		getJSON(t, ts, "/api/v1/sweeps/"+st.ID, &got)
		if got.State == "canceled" {
			break
		}
		if got.State == "done" {
			t.Skip("job finished before the cancel landed; nothing to assert")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q after cancel", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The stream of a canceled job terminates rather than hanging.
	stream(t, ts, st.ID)

	// A canceled job has no curve.
	curveResp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/curve")
	if err != nil {
		t.Fatal(err)
	}
	curveResp.Body.Close()
	if curveResp.StatusCode != http.StatusConflict {
		t.Fatalf("curve of canceled job: status %d, want %d", curveResp.StatusCode, http.StatusConflict)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for name, body := range map[string]string{
		"empty grid":    `{}`,
		"unknown field": `{"topologies":[{"net":"sk"}],"frobnicate":1}`,
		"bad topology":  `{"topologies":[{"net":"torus"}]}`,
		"bad mode":      `{"topologies":[{"net":"sk"}],"modes":["fly"]}`,
		"bad rate":      `{"topologies":[{"net":"sk"}],"rates":[1.5]}`,
		"bad workload":  `{"topologies":[{"net":"sk"}],"workloads":[{"kind":"chaos"}]}`,
		"hot group neg": `{"topologies":[{"net":"sk","s":3,"d":2,"k":2}],"workloads":[{"kind":"hotspot","hot_group":-1}]}`,
		"traceless":     `{"topologies":[{"net":"sk"}],"workloads":[{"kind":"trace"}]}`,
		"trace + rates": `{"topologies":[{"net":"sk"}],"rates":[0.3],"workloads":[{"kind":"trace","trace_file":"testdata/burst_events.ndjson"}]}`,
		"bad mperiod":   `{"topologies":[{"net":"sk"}],"workloads":[{"kind":"multiperiod","amplitude":2}]}`,
		"bad fault":     `{"topologies":[{"net":"sk"}],"faults":[{"kind":"node","count":1,"mtbf":5}]}`,
		"bad replicas":  `{"topologies":[{"net":"sk"}],"replicas":-3}`,
		"neg slots":     `{"topologies":[{"net":"sk"}],"slots":-5}`,
		"neg drain":     `{"topologies":[{"net":"sk"}],"drain":-1}`,
		"neg max_queue": `{"topologies":[{"net":"sk"}],"max_queue":-2}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	for _, path := range []string{"/api/v1/sweeps/nope", "/api/v1/sweeps/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestListJobs(t *testing.T) {
	ts := newTestServer(t)
	spec := testSpec()
	spec.Rates = []float64{0.1}
	spec.Seeds = []int64{1}
	spec.Modes = []string{"sf"}
	spec.Workloads = nil
	spec.Faults = nil
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, spec)
		ids = append(ids, st.ID)
		stream(t, ts, st.ID)
	}
	var list []sweepserver.Status
	getJSON(t, ts, "/api/v1/sweeps", &list)
	if len(list) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("listing order %v, want %v", list, ids)
		}
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
