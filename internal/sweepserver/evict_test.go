package sweepserver_test

// A server keeps its running jobs and the KeepEnded most recent ended
// ones. These tests pin what an evicted id answers, that a running job is
// never evicted, that a kept job reads the same while later jobs push
// older ones out, and that a client whose job was evicted before it read
// it gets it back by resubmitting.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
)

// smallSpec is a 4-point grid without shards.
func smallSpec() sweepserver.GridSpec {
	return sweepserver.GridSpec{
		Topologies: []sweep.TopoSpec{{Net: "sk", S: 3, D: 2, K: 2}},
		Rates:      []float64{0.1, 0.3},
		Seeds:      []int64{1, 2},
		Slots:      100,
		Drain:      100,
	}
}

// newEvictServer serves a server with workers in-process workers.
func newEvictServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	srv := sweepserver.New(sweep.Runner{Workers: workers}, sweepcache.NewMemory())
	srv.Logger = slog.New(slog.DiscardHandler)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// runToEnd submits spec and reads its stream to the end.
func runToEnd(t *testing.T, ts *httptest.Server, spec sweepserver.GridSpec) string {
	t.Helper()
	st := submit(t, ts, spec)
	stream(t, ts, st.ID)
	return st.ID
}

// call sends one request and returns the status code and body.
func call(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// evictedBody is what status, stream, curve and cancel answer for id once
// it was evicted.
func evictedBody(id string) string {
	return "sweep " + id + " ended and was evicted; a resubmission of its grid is answered from the cache\n"
}

// TestEvictedIDsAnswer404: after KeepEnded+1 jobs end, the first answers
// 404 on status, stream, curve and cancel saying it was evicted, while an
// id that was never issued — past the last one (a rejected grid takes
// none), or not in the s<n> form — still answers "no such sweep".
func TestEvictedIDsAnswer404(t *testing.T) {
	ts := newEvictServer(t, 2)
	var ids []string
	for i := 0; i <= sweepserver.KeepEnded; i++ {
		ids = append(ids, runToEnd(t, ts, smallSpec()))
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(`{"topologies":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty grid: status %d, want 400", resp.StatusCode)
	}
	last := "s" + strconv.Itoa(sweepserver.KeepEnded+1)
	if ids[0] != "s1" || ids[len(ids)-1] != last {
		t.Fatalf("ids %s … %s; want s1 … %s", ids[0], ids[len(ids)-1], last)
	}
	const unknown = "no such sweep\n"
	for _, tc := range []struct {
		id   string
		code int
		body string // "" when the request succeeds
	}{
		{"s1", 404, evictedBody("s1")},
		{"s2", 200, ""},
		{last, 200, ""},
		{"s" + strconv.Itoa(sweepserver.KeepEnded+2), 404, unknown}, // a rejected grid takes no id
		{"s0", 404, unknown},
		{"s01", 404, unknown},
		{"s-1", 404, unknown},
		{"1", 404, unknown},
		{"x1", 404, unknown},
	} {
		for _, ep := range []struct{ method, suffix string }{
			{http.MethodGet, ""},
			{http.MethodGet, "/stream"},
			{http.MethodGet, "/curve"},
			{http.MethodPost, "/cancel"},
		} {
			code, body := call(t, ep.method, ts.URL+"/api/v1/sweeps/"+tc.id+ep.suffix)
			if code != tc.code || (tc.body != "" && body != tc.body) {
				t.Errorf("%s %s%s: %d %q, want %d %q", ep.method, tc.id, ep.suffix, code, body, tc.code, tc.body)
			}
		}
	}
}

// TestEvictKeepsRunningJobs: a sharded job with no fleet to run it stays
// running while KeepEnded+3 later jobs end, and is still served; once
// canceled it queues behind them like any ended job, and is evicted when
// KeepEnded more jobs have ended after it.
func TestEvictKeepsRunningJobs(t *testing.T) {
	ts := newEvictServer(t, 2)
	sharded := smallSpec()
	sharded.Shards = 2
	running := submit(t, ts, sharded).ID
	var ended []string
	for i := 0; i < sweepserver.KeepEnded+3; i++ {
		ended = append(ended, runToEnd(t, ts, smallSpec()))
	}
	var st sweepserver.Status
	getJSON(t, ts, "/api/v1/sweeps/"+running, &st)
	if st.State != "running" || st.Points != 4 {
		t.Fatalf("running job after %d later jobs ended: %+v", len(ended), st)
	}
	var list []sweepserver.Status
	getJSON(t, ts, "/api/v1/sweeps", &list)
	want := append([]string{running}, ended[3:]...)
	if len(list) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(list), len(want))
	}
	for i, st := range list {
		if st.ID != want[i] {
			t.Fatalf("listed job %d is %s, want %s", i, st.ID, want[i])
		}
	}
	if code, _ := call(t, http.MethodPost, ts.URL+"/api/v1/sweeps/"+running+"/cancel"); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	if st := waitState(t, ts, running, 5*time.Second); st.State != "canceled" || st.Points != 4 || st.ShardsLeased != 0 {
		t.Fatalf("canceled job: %+v", st)
	}
	for i := 0; i < sweepserver.KeepEnded-1; i++ {
		runToEnd(t, ts, smallSpec())
	}
	if code, _ := call(t, http.MethodGet, ts.URL+"/api/v1/sweeps/"+running); code != http.StatusOK {
		t.Fatalf("canceled job, %d later ends: status %d, want 200", sweepserver.KeepEnded-1, code)
	}
	runToEnd(t, ts, smallSpec())
	if code, body := call(t, http.MethodGet, ts.URL+"/api/v1/sweeps/"+running); code != http.StatusNotFound || body != evictedBody(running) {
		t.Fatalf("canceled job, %d later ends: %d %q, want 404 evicted", sweepserver.KeepEnded, code, body)
	}
}

// TestEvictRetainedBodiesUnchanged: a job's status, stream and curve
// bodies read right after it ends are the same bytes after KeepEnded-1
// later jobs have ended and pushed older ones out. One in-process worker
// makes each job one shard, so the stream order is fixed.
func TestEvictRetainedBodiesUnchanged(t *testing.T) {
	ts := newEvictServer(t, 1)
	spec := testSpec()
	runToEnd(t, ts, spec) // the first job to be pushed out
	id := runToEnd(t, ts, spec)
	bodies := func() []string {
		var out []string
		for _, suffix := range []string{"", "/stream", "/curve"} {
			code, body := call(t, http.MethodGet, ts.URL+"/api/v1/sweeps/"+id+suffix)
			if code != http.StatusOK {
				t.Fatalf("GET %s%s: status %d", id, suffix, code)
			}
			out = append(out, body)
		}
		return out
	}
	fresh := bodies()
	for i := 0; i < sweepserver.KeepEnded-1; i++ {
		runToEnd(t, ts, spec)
	}
	if code, _ := call(t, http.MethodGet, ts.URL+"/api/v1/sweeps/s1"); code != http.StatusNotFound {
		t.Fatalf("s1 after %d later ends: status %d, want 404", sweepserver.KeepEnded, code)
	}
	kept := bodies()
	for i, name := range []string{"status", "stream", "curve"} {
		if fresh[i] != kept[i] {
			t.Errorf("%s body changed:\nafter its end %s\nlater         %s", name, fresh[i], kept[i])
		}
	}
}

// TestEvictConcurrentSubmittersResubmit: more than KeepEnded clients
// submit at once and each reads its own stream. A client whose job was
// evicted before it read the stream gets the documented 404 and
// resubmits; every client ends with the grid's four points and no other
// error.
func TestEvictConcurrentSubmittersResubmit(t *testing.T) {
	ts := newEvictServer(t, 2)
	body, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// submitAndRead returns the stream's event count, or 0 and no error
	// when the job was evicted first.
	submitAndRead := func() (int, error) {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		var st sweepserver.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
		}
		resp, err = http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/stream")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			msg, _ := io.ReadAll(resp.Body)
			if string(msg) != evictedBody(st.ID) {
				return 0, fmt.Errorf("stream %s: 404 %q", st.ID, msg)
			}
			return 0, nil
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("stream %s: status %d", st.ID, resp.StatusCode)
		}
		n := 0
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			n++
		}
		return n, nil
	}
	const clients = sweepserver.KeepEnded + 16
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for try := 0; try < 5; try++ {
				n, err := submitAndRead()
				if err != nil {
					errs <- err
					return
				}
				if n == 4 {
					return
				}
				if n != 0 {
					errs <- fmt.Errorf("stream gave %d events, want 4", n)
					return
				}
			}
			errs <- fmt.Errorf("evicted on five submissions in a row")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
