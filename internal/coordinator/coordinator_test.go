package coordinator_test

// Lease state-machine unit tests: acquire/renew/expire/complete/steal
// transitions driven by a fake clock — no real sleeps anywhere. The rows
// fed to Complete are fabricated (indices only), which is exactly what the
// state machine validates; content fidelity is the chaos and sweepserver
// tests' job.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// bg is the context of the tests' direct lease calls.
var bg = context.Background()

// fakeClock is a manually advanced coordinator.Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// testPoints is a tiny real grid (hashable points, so merge-time key
// checks are live): 2 rates x 2 seeds on SK(3,2,2) = 4 points.
func testPoints(t *testing.T) []sweep.Scenario {
	t.Helper()
	topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Topologies: []sweep.Topology{topo},
		Rates:      []float64{0.1, 0.3},
		Seeds:      []int64{1, 2},
		Slots:      50,
		Drain:      50,
	}
	return g.Points()
}

// rowsFor fabricates a valid completion for shard of shards over points:
// correct global indices, per-index marker metrics, no keys (key fidelity
// is exercised separately).
func rowsFor(t *testing.T, points []sweep.Scenario, shard, shards int) []sweep.ShardResult {
	t.Helper()
	sh, err := sweep.ShardPoints(points, shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.ShardResult, len(sh.Indices))
	for i, idx := range sh.Indices {
		rows[i] = sweep.ShardResult{Index: idx, Metrics: sim.Metrics{Delivered: idx + 1}}
	}
	return rows
}

// harness bundles a coordinator + fake clock + one submitted job.
type harness struct {
	clock  *fakeClock
	coord  *coordinator.Coordinator
	job    *coordinator.Job
	points []sweep.Scenario
	shards int

	mu      sync.Mutex
	rowIdxs []int // every index delivered through OnRows, in arrival order
	done    bool
	doneErr error
	results []sweep.Result
}

func newHarness(t *testing.T, shards, priority int) *harness {
	t.Helper()
	h := &harness{clock: newFakeClock(), points: testPoints(t), shards: shards}
	h.coord = coordinator.New(coordinator.Config{
		LeaseTTL:   10 * time.Second,
		StealAfter: 5 * time.Second,
		Clock:      h.clock,
	})
	job, err := h.coord.Submit("job-1", h.points, []byte(`{}`), shards, priority, coordinator.Hooks{
		OnRows: func(rows []sweep.ShardResult) {
			h.mu.Lock()
			defer h.mu.Unlock()
			for _, r := range rows {
				h.rowIdxs = append(h.rowIdxs, r.Index)
			}
		},
		OnDone: func(results []sweep.Result, err error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.done {
				t.Errorf("OnDone fired twice")
			}
			h.done = true
			h.doneErr = err
			h.results = results
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.job = job
	return h
}

func (h *harness) acquire(t *testing.T, worker string) coordinator.Grant {
	t.Helper()
	g, ok, _ := h.coord.Acquire(bg, worker)
	if !ok {
		t.Fatalf("%s: acquire returned nothing", worker)
	}
	return g
}

func (h *harness) complete(g coordinator.Grant, worker string, rows []sweep.ShardResult) (coordinator.CompleteStatus, error) {
	return h.coord.Complete(bg, worker, g, rows)
}

func TestSubmitValidation(t *testing.T) {
	c := coordinator.New(coordinator.Config{Clock: newFakeClock()})
	points := testPoints(t)
	if _, err := c.Submit("empty", nil, nil, 2, 0, coordinator.Hooks{}); err == nil {
		t.Errorf("empty point list accepted")
	}
	if _, err := c.Submit("zero", points, nil, 0, 0, coordinator.Hooks{}); err == nil {
		t.Errorf("shard count 0 accepted")
	}
	j, err := c.Submit("clamped", points, nil, 100, 0, coordinator.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Progress().ShardsTotal; got != len(points) {
		t.Errorf("shard count not clamped to point count: got %d, want %d", got, len(points))
	}
	if _, err := c.Submit("clamped", points, nil, 2, 0, coordinator.Hooks{}); err == nil {
		t.Errorf("duplicate job id accepted")
	}
	if _, err := j.Results(); err == nil {
		t.Errorf("Results on a running job did not error")
	}
}

// TestLeaseTransitions is the table-driven core: each case drives the
// machine through a scripted sequence and checks the terminal statuses.
func TestLeaseTransitions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, h *harness)
	}{
		{"acquire assigns distinct shards", func(t *testing.T, h *harness) {
			g1 := h.acquire(t, "w1")
			g2 := h.acquire(t, "w2")
			if g1.Shard == g2.Shard {
				t.Fatalf("both workers leased shard %d", g1.Shard)
			}
			if g1.Epoch != 1 || g2.Epoch != 1 {
				t.Fatalf("fresh leases have epochs %d,%d, want 1,1", g1.Epoch, g2.Epoch)
			}
			p := h.job.Progress()
			if p.ShardsLeased != 2 || p.ShardsDone != 0 {
				t.Fatalf("progress %+v after two acquires", p)
			}
		}},

		{"renew extends the deadline", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			// Renew at 8s, so at 14s the lease (TTL 10s) is alive only if the
			// renewal actually moved the deadline.
			h.clock.Advance(8 * time.Second)
			if _, err := h.coord.Renew(bg, "w1", g); err != nil {
				t.Fatal(err)
			}
			h.clock.Advance(6 * time.Second)
			if _, err := h.coord.Renew(bg, "w1", g); err != nil {
				t.Fatalf("renewed lease expired anyway: %v", err)
			}
			if st, _ := h.complete(g, "w1", rowsFor(t, h.points, g.Shard, h.shards)); st != coordinator.StatusAccepted {
				t.Fatalf("completion on a live renewed lease: %s", st)
			}
		}},

		{"expiry re-pends at a higher epoch and stales the old lease", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			h.clock.Advance(11 * time.Second) // past TTL
			if _, err := h.coord.Renew(bg, "w1", g); !errors.Is(err, coordinator.ErrLeaseLost) {
				t.Fatalf("renew of expired lease: %v, want ErrLeaseLost", err)
			}
			// The shard comes back at a higher epoch.
			g2 := h.acquire(t, "w2")
			if g2.Shard != g.Shard {
				// Two shards in the job; drain until we re-lease the first.
				g3 := h.acquire(t, "w2")
				if g3.Shard != g.Shard {
					t.Fatalf("expired shard %d never re-leased", g.Shard)
				}
				g2 = g3
			}
			if g2.Epoch <= g.Epoch {
				t.Fatalf("re-lease epoch %d not above expired epoch %d", g2.Epoch, g.Epoch)
			}
			// The dead worker's late completion is stale; the new lease wins.
			rows := rowsFor(t, h.points, g.Shard, h.shards)
			if st, _ := h.complete(g, "w1", rows); st != coordinator.StatusStale {
				t.Fatalf("late completion from expired lease: %s, want stale", st)
			}
			if st, _ := h.complete(g2, "w2", rows); st != coordinator.StatusAccepted {
				t.Fatalf("completion on the re-lease: %s, want accepted", st)
			}
		}},

		{"wrong epoch is stale even while the lease lives", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			rows := rowsFor(t, h.points, g.Shard, h.shards)
			bumped := g
			bumped.Epoch++
			if st, _ := h.coord.Complete(bg, "w1", bumped, rows); st != coordinator.StatusStale {
				t.Fatalf("wrong-epoch completion: %s, want stale", st)
			}
			if _, err := h.coord.Renew(bg, "w1", bumped); !errors.Is(err, coordinator.ErrLeaseLost) {
				t.Fatalf("wrong-epoch renew: %v, want ErrLeaseLost", err)
			}
			// The correctly named lease is untouched by the bad calls.
			if st, _ := h.complete(g, "w1", rows); st != coordinator.StatusAccepted {
				t.Fatalf("completion after bad-epoch attempts: %s, want accepted", st)
			}
		}},

		{"double complete is idempotent", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			rows := rowsFor(t, h.points, g.Shard, h.shards)
			if st, _ := h.complete(g, "w1", rows); st != coordinator.StatusAccepted {
				t.Fatalf("first completion: %s", st)
			}
			if st, _ := h.complete(g, "w1", rows); st != coordinator.StatusDuplicate {
				t.Fatalf("second completion: %s, want duplicate", st)
			}
			h.mu.Lock()
			n := len(h.rowIdxs)
			h.mu.Unlock()
			if n != len(rows) {
				t.Fatalf("OnRows delivered %d indices for one shard of %d rows", n, len(rows))
			}
		}},

		{"steal duplicates the straggler and first completion wins", func(t *testing.T, h *harness) {
			g1 := h.acquire(t, "w1")
			h.clock.Advance(2 * time.Second)
			g2 := h.acquire(t, "w2") // both shards now leased; nothing pending
			if _, ok, _ := h.coord.Acquire(bg, "w3"); ok {
				t.Fatalf("steal granted before StealAfter elapsed")
			}
			// g1 is now 6s old (past StealAfter 5s, under TTL 10s); g2 only
			// 4s old — the steal victim is unambiguous.
			h.clock.Advance(4 * time.Second)
			stolen, ok, _ := h.coord.Acquire(bg, "w3")
			if !ok || !stolen.Stolen {
				t.Fatalf("idle worker got no steal grant (ok=%v, grant=%+v)", ok, stolen)
			}
			if stolen.Shard != g1.Shard {
				t.Fatalf("stole shard %d, want the oldest outstanding %d", stolen.Shard, g1.Shard)
			}
			if stolen.Epoch <= g1.Epoch {
				t.Fatalf("steal epoch %d not above victim epoch %d", stolen.Epoch, g1.Epoch)
			}
			// The victim must not be stolen from twice, and the holder never
			// steals its own shard.
			if g, ok, _ := h.coord.Acquire(bg, "w4"); ok && g.Shard == g1.Shard {
				t.Fatalf("doubly-leased shard stolen again")
			}
			// First valid completion wins — here the thief...
			rows := rowsFor(t, h.points, g1.Shard, h.shards)
			if st, _ := h.complete(stolen, "w3", rows); st != coordinator.StatusAccepted {
				t.Fatalf("thief completion: %s", st)
			}
			// ...and the original holder's rows are a duplicate, not an error.
			if st, _ := h.complete(g1, "w1", rows); st != coordinator.StatusDuplicate {
				t.Fatalf("loser completion: %s, want duplicate", st)
			}
			// The non-stolen shard is untouched by all of this.
			if st, _ := h.complete(g2, "w2", rowsFor(t, h.points, g2.Shard, h.shards)); st != coordinator.StatusAccepted {
				t.Fatalf("straggler shard completion: %s", st)
			}
		}},

		{"invalid rows revoke the lease and re-pend the shard", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			bad := rowsFor(t, h.points, g.Shard, h.shards)
			bad[0].Index++ // wrong global index
			st, err := h.complete(g, "w1", bad)
			if st != coordinator.StatusInvalid || err == nil {
				t.Fatalf("mismatched rows: status %s err %v, want invalid + error", st, err)
			}
			// The lease is gone and the shard immediately re-leasable.
			if _, err := h.coord.Renew(bg, "w1", g); !errors.Is(err, coordinator.ErrLeaseLost) {
				t.Fatalf("renew after invalid completion: %v", err)
			}
			seen := map[int]bool{}
			for i := 0; i < h.shards; i++ {
				gi := h.acquire(t, "w2")
				seen[gi.Shard] = true
			}
			if !seen[g.Shard] {
				t.Fatalf("revoked shard %d not re-leased", g.Shard)
			}
		}},

		{"cancel invalidates leases and reports ErrCanceled once", func(t *testing.T, h *harness) {
			g := h.acquire(t, "w1")
			h.coord.Cancel(g.Job)
			if _, err := h.coord.Renew(bg, "w1", g); !errors.Is(err, coordinator.ErrLeaseLost) {
				t.Fatalf("renew after cancel: %v", err)
			}
			if st, _ := h.complete(g, "w1", rowsFor(t, h.points, g.Shard, h.shards)); st != coordinator.StatusStale {
				t.Fatalf("complete after cancel: %s, want stale", st)
			}
			if _, ok, _ := h.coord.Acquire(bg, "w2"); ok {
				t.Fatalf("canceled job still hands out leases")
			}
			h.coord.Cancel(g.Job) // idempotent: OnDone must not refire
			h.mu.Lock()
			defer h.mu.Unlock()
			if !h.done || !errors.Is(h.doneErr, coordinator.ErrCanceled) {
				t.Fatalf("OnDone after cancel: done=%v err=%v", h.done, h.doneErr)
			}
			if _, err := h.job.Results(); !errors.Is(err, coordinator.ErrCanceled) {
				t.Fatalf("Results of canceled job: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newHarness(t, 2, 0))
		})
	}
}

func TestJobCompletesAndMerges(t *testing.T) {
	h := newHarness(t, 3, 0)
	for i := 0; i < 3; i++ {
		g := h.acquire(t, fmt.Sprintf("w%d", i))
		if st, err := h.complete(g, fmt.Sprintf("w%d", i), rowsFor(t, h.points, g.Shard, 3)); st != coordinator.StatusAccepted {
			t.Fatalf("shard %d: %s %v", g.Shard, st, err)
		}
	}
	h.mu.Lock()
	done, doneErr, results, idxs := h.done, h.doneErr, h.results, append([]int{}, h.rowIdxs...)
	h.mu.Unlock()
	if !done || doneErr != nil {
		t.Fatalf("job not done cleanly: done=%v err=%v", done, doneErr)
	}
	if len(results) != len(h.points) {
		t.Fatalf("merged %d results, want %d", len(results), len(h.points))
	}
	for i, r := range results {
		if r.Metrics.Delivered != i+1 {
			t.Fatalf("point %d carries metrics of point %d", i, r.Metrics.Delivered-1)
		}
	}
	seen := map[int]bool{}
	for _, idx := range idxs {
		if seen[idx] {
			t.Fatalf("OnRows repeated index %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != len(h.points) {
		t.Fatalf("OnRows covered %d of %d points", len(seen), len(h.points))
	}
	if got, err := h.job.Results(); err != nil || len(got) != len(h.points) {
		t.Fatalf("Results after done: %d results, err %v", len(got), err)
	}
	if p := h.job.Progress(); p.State != coordinator.JobDone || p.ShardsDone != 3 {
		t.Fatalf("terminal progress %+v", p)
	}
}

// TestCompletionAfterJobEndKeepsResults: the coordinator lets go of a
// job's shard rows once the job ends. A steal racer's completion still
// gets its answer — duplicate while the job runs, stale once it has
// ended, both without reading the rows — and the merged results do not
// change.
func TestCompletionAfterJobEndKeepsResults(t *testing.T) {
	h := newHarness(t, 2, 0)
	g0 := h.acquire(t, "w0")
	h.clock.Advance(2 * time.Second)
	g1 := h.acquire(t, "w1")
	h.clock.Advance(4 * time.Second) // only g0 is past StealAfter
	racer := h.acquire(t, "w2")
	if !racer.Stolen || racer.Shard != g0.Shard {
		t.Fatalf("steal grant %+v, want a steal of shard %d", racer, g0.Shard)
	}
	rows0 := rowsFor(t, h.points, g0.Shard, 2)
	if st, err := h.complete(g0, "w0", rows0); st != coordinator.StatusAccepted {
		t.Fatalf("first completion: %s %v", st, err)
	}
	if st, _ := h.complete(racer, "w2", rows0); st != coordinator.StatusDuplicate {
		t.Fatalf("racer completion on a running job: %s, want duplicate", st)
	}
	if st, err := h.complete(g1, "w1", rowsFor(t, h.points, g1.Shard, 2)); st != coordinator.StatusAccepted {
		t.Fatalf("last completion: %s %v", st, err)
	}
	want, err := h.job.Results()
	if err != nil {
		t.Fatal(err)
	}
	want = append([]sweep.Result(nil), want...)
	poisoned := rowsFor(t, h.points, g0.Shard, 2)
	for i := range poisoned {
		poisoned[i].Metrics.Delivered = -1
	}
	for _, g := range []coordinator.Grant{racer, g0, g1} {
		if st, _ := h.complete(g, "late", poisoned); st != coordinator.StatusStale {
			t.Fatalf("completion of shard %d after the job ended: %s, want stale", g.Shard, st)
		}
	}
	got, err := h.job.Results()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("results after late completions differ (err %v)", err)
	}
}

// TestMergeFailureFailsJob: a worker that ran a *different grid* produces
// rows whose cache keys don't match the coordinator's points. The merge
// must fail the job (OnDone with the error), not panic.
func TestMergeFailureFailsJob(t *testing.T) {
	h := newHarness(t, 1, 0)
	g := h.acquire(t, "w1")
	rows := rowsFor(t, h.points, 0, 1)
	rows[1].Key = "deadbeef" // claims a key the grid point does not have
	if st, _ := h.complete(g, "w1", rows); st != coordinator.StatusAccepted {
		t.Fatalf("completion status %s (row content is not the lease layer's business)", st)
	}
	h.mu.Lock()
	done, doneErr := h.done, h.doneErr
	h.mu.Unlock()
	if !done || doneErr == nil {
		t.Fatalf("merge failure not surfaced: done=%v err=%v", done, doneErr)
	}
	p := h.job.Progress()
	if p.State != coordinator.JobFailed || p.Error == "" {
		t.Fatalf("failed job progress %+v", p)
	}
	if _, err := h.job.Results(); err == nil {
		t.Fatalf("Results of failed job returned no error")
	}
}

func TestAcquirePriorityOrder(t *testing.T) {
	clock := newFakeClock()
	c := coordinator.New(coordinator.Config{LeaseTTL: 10 * time.Second, Clock: clock})
	points := testPoints(t)
	submit := func(id string, prio int) {
		t.Helper()
		if _, err := c.Submit(id, points, nil, 1, prio, coordinator.Hooks{}); err != nil {
			t.Fatal(err)
		}
	}
	submit("low-early", 0)
	submit("high", 5)
	submit("low-late", 0)

	var got []string
	for i := 0; i < 3; i++ {
		g, ok, _ := c.Acquire(bg, "w")
		if !ok {
			t.Fatalf("acquire %d returned nothing", i)
		}
		got = append(got, g.Job)
	}
	want := []string{"high", "low-early", "low-late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("acquire order %v, want %v", got, want)
		}
	}
}

// Every lease RPC records its worker as live, an Acquire that finds
// nothing to do included; a worker stays live for 3×TTL after its last one.
func TestWorkerLivenessWindow(t *testing.T) {
	clock := newFakeClock()
	c := coordinator.New(coordinator.Config{LeaseTTL: 10 * time.Second, Clock: clock})
	seen := func(worker string) {
		if _, ok, err := c.Acquire(bg, worker); ok || err != nil {
			t.Fatalf("idle acquire by %s: ok %v, err %v", worker, ok, err)
		}
	}
	seen("w1")
	seen("w2")
	if got := c.Workers(); got != 2 {
		t.Fatalf("live workers %d, want 2", got)
	}
	clock.Advance(29 * time.Second)
	seen("w2")
	clock.Advance(2 * time.Second) // w1 last seen 31s ago > 3*TTL
	if got := c.Workers(); got != 1 {
		t.Fatalf("live workers %d after window, want 1", got)
	}
}
