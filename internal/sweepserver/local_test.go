package sweepserver_test

// Grids without shards run as jobs of the server's private coordinator,
// drained by in-process workers. These tests pin what keeps them apart
// from the fleet and what a cancel does to them.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
)

// recordingLeases is a fleet worker's HTTP client that logs every grant it
// receives and every row index the server accepts from it.
type recordingLeases struct {
	*coordinator.Client

	mu       sync.Mutex
	grants   []coordinator.Grant
	accepted map[string][]int // job -> accepted row indices
}

func (r *recordingLeases) Acquire(ctx context.Context, worker string) (coordinator.Grant, bool, error) {
	g, ok, err := r.Client.Acquire(ctx, worker)
	if ok {
		r.mu.Lock()
		r.grants = append(r.grants, g)
		r.mu.Unlock()
	}
	return g, ok, err
}

func (r *recordingLeases) Complete(ctx context.Context, worker string, g coordinator.Grant, rows []sweep.ShardResult) (coordinator.CompleteStatus, error) {
	st, err := r.Client.Complete(ctx, worker, g, rows)
	if st == coordinator.StatusAccepted {
		r.mu.Lock()
		for _, row := range rows {
			r.accepted[g.Job] = append(r.accepted[g.Job], row.Index)
		}
		r.mu.Unlock()
	}
	return st, err
}

// waitState polls a job's status until it leaves "running" or the
// deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, within time.Duration) sweepserver.Status {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		var st sweepserver.Status
		getJSON(t, ts, "/api/v1/sweeps/"+id, &st)
		if st.State != "running" || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLocalJobsStayOffTheFleet submits a sharded grid, then a grid without
// shards, and only then starts a fleet worker speaking HTTP. The local
// grid's in-process workers start at its submission, while the sharded
// grid's shards are all pending; they must leave those shards alone, and
// the fleet worker must never be granted a local shard. Every row of the
// sharded job arrives over HTTP, and both jobs finish bit for bit equal
// to a direct run.
func TestLocalJobsStayOffTheFleet(t *testing.T) {
	srv := sweepserver.New(sweep.Runner{Workers: 2}, sweepcache.NewMemory())
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	sharded := testSpec()
	sharded.Shards = 4
	shardedJob := submit(t, ts, sharded)
	local := testSpec()
	local.Seeds = []int64{3, 4}
	localJob := submit(t, ts, local)
	if localJob.ShardsTotal != 2 {
		t.Fatalf("local job has %d shards, want one per in-process worker (2)", localJob.ShardsTotal)
	}

	fleet := &recordingLeases{Client: &coordinator.Client{BaseURL: ts.URL}, accepted: map[string][]int{}}
	w := &coordinator.Worker{
		Build:  sweepserver.PointsFromSpec,
		Runner: sweep.Runner{Workers: 1},
		Cache:  sweepcache.NewMemory(),
		Name:   "fleet",
		Log:    srv.Logger,
	}
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ctx.Err() == nil {
			w.Drain(ctx, fleet)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() {
		cancel()
		<-drained
	}()

	checkJob := func(id string, spec sweepserver.GridSpec) {
		t.Helper()
		if st := waitState(t, ts, id, 60*time.Second); st.State != "done" {
			t.Fatalf("job %s ended %+v", id, st)
		}
		grid, err := spec.Grid()
		if err != nil {
			t.Fatal(err)
		}
		want := sweep.Runner{}.Run(grid.Points())
		events := stream(t, ts, id)
		if len(events) != len(want) {
			t.Fatalf("job %s streamed %d events, want %d", id, len(events), len(want))
		}
		for _, ev := range events {
			if ev.Record != sweep.NewRecord(want[ev.Index]) {
				t.Fatalf("job %s point %d: %+v differs from a direct run", id, ev.Index, ev.Record)
			}
		}
	}
	checkJob(shardedJob.ID, sharded)
	fleet.mu.Lock()
	got := len(fleet.accepted[shardedJob.ID])
	fleet.mu.Unlock()
	if got != shardedJob.Points {
		t.Fatalf("%d of the sharded job's %d rows arrived over HTTP", got, shardedJob.Points)
	}
	checkJob(localJob.ID, local)
	fleet.mu.Lock()
	defer fleet.mu.Unlock()
	for _, g := range fleet.grants {
		if g.Job == localJob.ID {
			t.Fatalf("fleet worker was granted shard %d of the local job", g.Shard)
		}
	}
}

// TestLocalCancelStopsInProcessWork cancels a long grid without shards
// right after submitting it: the in-process workers must stop computing
// points soon after (their next lease renewal fails), long before the
// grid would have finished.
func TestLocalCancelStopsInProcessWork(t *testing.T) {
	cache := sweepcache.NewMemory()
	srv := sweepserver.New(sweep.Runner{}, cache)
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec()
	spec.Slots, spec.Drain = 4000, 4000
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	st := submit(t, ts, spec)
	resp, err := http.Post(ts.URL+"/api/v1/sweeps/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitState(t, ts, st.ID, time.Second); got.State != "canceled" {
		t.Fatalf("state %q right after cancel, want canceled", got.State)
	}
	// Stores stop once every in-process worker has seen its lease go; wait
	// for them to hold still for a whole renewal period and more.
	deadline := time.Now().Add(30 * time.Second)
	prev, still := cache.Stats().Stores, time.Time{}
	for {
		time.Sleep(50 * time.Millisecond)
		cur := cache.Stats().Stores
		switch {
		case cur != prev:
			prev, still = cur, time.Time{}
		case still.IsZero():
			still = time.Now()
		case time.Since(still) > time.Second:
			if prev >= int64(st.Points) {
				t.Fatalf("canceled grid computed all %d points", st.Points)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-process workers still computing 30s after the cancel (%d stores)", cur)
		}
	}
}
