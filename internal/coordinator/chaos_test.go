package coordinator_test

// Chaos integration tests: a real coordinator behind httptest, a fleet of
// real Workers running real simulations, and deterministic worker deaths
// injected mid-job. The invariants under test are the tentpole's promises:
// the merged result is byte-for-byte what a single process computes, and
// a re-leased shard resumes from the shared/journaled cache instead of
// recomputing the dead worker's points (asserted through the sweepcache
// hit counters).
//
// Worker "death" is a context cancel fired from the worker's own OnPoint
// hook after a fixed number of computed points — deterministic given the
// seeded choice of doomed workers, and equivalent to a crash as far as
// the protocol can see: the worker stops renewing and never completes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
)

// chaosSpec is the grid the chaos jobs run: 12 cheap SK(3,2,2) points.
// It is shipped to workers as the job payload and expanded identically on
// both sides by chaosBuild.
var chaosSpec = struct {
	Rates []float64 `json:"rates"`
	Seeds []int64   `json:"seeds"`
}{
	Rates: []float64{0.05, 0.1, 0.15, 0.2},
	Seeds: []int64{1, 2, 3},
}

// chaosBuild is the coordinator.PointsBuilder for chaosSpec payloads — a
// stand-in for sweepserver.PointsFromSpec that keeps this package free of
// an inverted sweepserver dependency.
func chaosBuild(payload []byte) ([]sweep.Scenario, error) {
	var spec struct {
		Rates []float64 `json:"rates"`
		Seeds []int64   `json:"seeds"`
	}
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, err
	}
	topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
	if err != nil {
		return nil, err
	}
	return sweep.Grid{
		Topologies: []sweep.Topology{topo},
		Rates:      spec.Rates,
		Seeds:      spec.Seeds,
		Slots:      120,
		Drain:      120,
	}.Points(), nil
}

func chaosPayload(t *testing.T) []byte {
	t.Helper()
	payload, err := json.Marshal(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// soloCSV runs points in one process and renders the reference CSV.
func soloCSV(t *testing.T, points []sweep.Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.WriteResultsCSV(&buf, sweep.Runner{}.Run(points)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosCoordinator starts a coordinator with a short lease TTL (fast
// failure detection) and stealing disabled (so every point is computed at
// most once and the computed/cached accounting below is exact), serves it
// over httptest, and submits one job.
func chaosCoordinator(t *testing.T, points []sweep.Scenario, payload []byte, shards int) (*coordinator.Job, *httptest.Server, chan error) {
	t.Helper()
	coord := coordinator.New(coordinator.Config{
		LeaseTTL:   time.Second,
		StealAfter: time.Hour,
	})
	done := make(chan error, 1)
	job, err := coord.Submit("chaos", points, payload, shards, 0, coordinator.Hooks{
		OnDone: func(_ []sweep.Result, err error) { done <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return job, ts, done
}

// chaosWorker is one fleet member. kill > 0 dooms it: after that many
// computed (non-cached) points it cancels its own context mid-shard.
type chaosWorker struct {
	name     string
	kill     int64
	computed atomic.Int64
	cached   atomic.Int64
}

// run blocks until the worker exits (killed, canceled, or idle).
func (cw *chaosWorker) run(ctx context.Context, t *testing.T, url string, cache sweep.PointCache) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &coordinator.Worker{
		Client: &coordinator.Client{BaseURL: url},
		Build:  chaosBuild,
		Runner: sweep.Runner{Workers: 1},
		Cache:  cache,
		Name:   cw.name,
		Poll:   20 * time.Millisecond,
		Log:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		OnPoint: func(_ string, _ int, hit bool) {
			if hit {
				cw.cached.Add(1)
				return
			}
			if cw.computed.Add(1) == cw.kill {
				cancel() // "crash": stop renewing, never complete
			}
		},
	}
	_ = w.Run(ctx)
}

func waitDone(t *testing.T, job *coordinator.Job, done chan error) []sweep.Result {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("job did not finish; progress %+v", job.Progress())
	}
	results, err := job.Results()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestChaosWorkerDeathsMergeBitForBit kills a seeded subset of a worker
// fleet mid-job and requires (a) the merged CSV to be byte-identical to a
// single-process run, (b) every grid point to be computed exactly once
// across the whole fleet — the survivors resume the dead workers' shards
// from the shared cache instead of recomputing.
func TestChaosWorkerDeathsMergeBitForBit(t *testing.T) {
	points, err := chaosBuild(chaosPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	want := soloCSV(t, points)

	const fleet, shards = 4, 5
	rng := rand.New(rand.NewSource(7)) // deterministic doomed subset
	doomed := map[int]bool{}
	for len(doomed) < 2 {
		doomed[rng.Intn(fleet)] = true
	}

	job, ts, done := chaosCoordinator(t, points, chaosPayload(t), shards)
	cache := sweepcache.NewMemory() // shared by the fleet, like one cachedir
	workers := make([]*chaosWorker, fleet)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The doomed workers start first and the survivors only once every
	// doomed worker has died, so each death happens mid-shard on a point
	// of its own: started together, the survivors could drain every shard
	// before a doomed worker leased one.
	var doomedWG, wg sync.WaitGroup
	start := func(cw *chaosWorker, group *sync.WaitGroup) {
		group.Add(1)
		go func() {
			defer group.Done()
			cw.run(ctx, t, ts.URL, cache)
		}()
	}
	for i := range workers {
		workers[i] = &chaosWorker{name: fmt.Sprintf("w%d", i)}
		if doomed[i] {
			workers[i].kill = 1 // die on the first computed point
			start(workers[i], &doomedWG)
		}
	}
	doomedWG.Wait()
	for i, cw := range workers {
		if !doomed[i] {
			start(cw, &wg)
		}
	}

	results := waitDone(t, job, done)
	cancel()
	wg.Wait()

	var buf bytes.Buffer
	if err := sweep.WriteResultsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("merged CSV differs from single-process run:\nmerged:\n%s\nsolo:\n%s", buf.Bytes(), want)
	}

	var computed, deadComputed int64
	for i, cw := range workers {
		computed += cw.computed.Load()
		if doomed[i] {
			deadComputed += cw.computed.Load()
			if cw.computed.Load() == 0 {
				t.Errorf("doomed worker %s never computed a point — no death was injected", cw.name)
			}
		}
	}
	// Steal is disabled and the cache shared, so exactly-once compute is
	// exact, not approximate: every point computed once fleet-wide...
	if computed != int64(len(points)) {
		t.Errorf("fleet computed %d points, want exactly %d (each point once)", computed, len(points))
	}
	// ...and every point a dead worker computed before dying came back to
	// its re-leaser as a cache hit, never a recompute.
	st := cache.Stats()
	if st.Hits != deadComputed {
		t.Errorf("cache hits %d, want %d (one replay per dead worker's computed point)", st.Hits, deadComputed)
	}
	if st.Stores != int64(len(points)) {
		t.Errorf("cache stores %d, want %d", st.Stores, len(points))
	}
}

// TestChaosEveryWorkerDiesJournalResume kills the ENTIRE first-generation
// fleet (each worker dies after journaling exactly one computed point to
// its own on-disk cache shard) and then starts a fresh generation against
// the same cache directory. The job must still complete — lease expiry
// re-pends every shard, the new workers load the dead generation's
// journals, and the journaled points replay as cache hits.
func TestChaosEveryWorkerDiesJournalResume(t *testing.T) {
	points, err := chaosBuild(chaosPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	want := soloCSV(t, points)

	const fleet, shards = 3, 3 // shard size 4 > 1: no gen-1 shard can finish
	job, ts, done := chaosCoordinator(t, points, chaosPayload(t), shards)
	dir := t.TempDir()

	// Generation 1: every worker computes one point, journals it, dies.
	var wg1 sync.WaitGroup
	gen1 := make([]*chaosWorker, fleet)
	for i := range gen1 {
		cw := &chaosWorker{name: fmt.Sprintf("gen1-%d", i), kill: 1}
		gen1[i] = cw
		cache, err := sweepcache.OpenShard(dir, cw.name)
		if err != nil {
			t.Fatal(err)
		}
		wg1.Add(1)
		go func() {
			defer wg1.Done()
			defer cache.Close()
			cw.run(context.Background(), t, ts.URL, cache)
		}()
	}
	wg1.Wait() // the whole first generation is dead

	if p := job.Progress(); p.ShardsDone != 0 {
		t.Fatalf("a generation-1 shard completed (%+v); deaths were not mid-shard", p)
	}
	// Each dead worker journaled at least its kill point; cancellation is
	// point-granular, so an in-flight point may have slipped through too —
	// count what actually landed, the resume assertions below are exact
	// against it.
	var journaled int64
	for _, cw := range gen1 {
		if cw.computed.Load() < 1 {
			t.Fatalf("worker %s died without journaling a point", cw.name)
		}
		journaled += cw.computed.Load()
	}

	// Generation 2: fresh workers, fresh cache handles on the same
	// directory — the journals of the dead are their inheritance.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg2 sync.WaitGroup
	gen2 := make([]*chaosWorker, fleet)
	caches := make([]*sweepcache.Cache, fleet)
	// Open every cache before any worker runs, so each load sees exactly
	// the dead generation's journals and nothing a sibling wrote since.
	for i := range gen2 {
		gen2[i] = &chaosWorker{name: fmt.Sprintf("gen2-%d", i)}
		cache, err := sweepcache.OpenShard(dir, gen2[i].name)
		if err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); int64(st.Loaded) != journaled {
			t.Fatalf("generation-2 cache loaded %d journal entries, want %d", st.Loaded, journaled)
		}
		caches[i] = cache
		t.Cleanup(func() { cache.Close() })
	}
	for i := range gen2 {
		cw, cache := gen2[i], caches[i]
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			cw.run(ctx, t, ts.URL, cache)
		}()
	}

	results := waitDone(t, job, done)
	cancel()
	wg2.Wait()

	var buf bytes.Buffer
	if err := sweep.WriteResultsCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("merged CSV differs from single-process run:\nmerged:\n%s\nsolo:\n%s", buf.Bytes(), want)
	}

	// Journal-resume accounting: generation 2 replayed exactly the dead
	// generation's points as hits and computed only the remainder.
	var hits, computed int64
	for i, cw := range gen2 {
		computed += cw.computed.Load()
		hits += cw.cached.Load()
		st := caches[i].Stats()
		if st.Hits != cw.cached.Load() {
			t.Errorf("worker %s cache hits %d disagree with its OnPoint count %d", cw.name, st.Hits, cw.cached.Load())
		}
	}
	if hits != journaled {
		t.Errorf("generation 2 replayed %d journaled points, want %d", hits, journaled)
	}
	if computed != int64(len(points))-journaled {
		t.Errorf("generation 2 computed %d points, want %d (grid minus journal)", computed, int64(len(points))-journaled)
	}
}
