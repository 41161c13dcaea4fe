package coordinator

// Worker is the acquire -> run -> complete loop behind `netsim work`: it
// polls the coordinator for leases, rebuilds the leased shard's point
// list from the job payload, executes it on a sweep.Runner (per-worker
// batched engines, shared content-addressed cache) and reports the rows.
// A background goroutine renews the lease at TTL/3 while the shard runs;
// losing the lease (expired, superseded, job canceled) cancels the run
// mid-shard, and the points computed so far survive in the cache for
// whoever re-leases the shard.

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"otisnet/internal/sweep"
)

// PointsBuilder turns a job payload (the submitted grid description)
// into the expanded point list. It must be deterministic and agree with
// the coordinator's own expansion — the shard-row cache keys are checked
// against the coordinator's points at merge time, so a divergent build
// fails the job rather than corrupting it.
type PointsBuilder func(payload []byte) ([]sweep.Scenario, error)

// Worker runs leases until its context is canceled (or IdleExit fires).
type Worker struct {
	// Client talks to the coordinator.
	Client *Client
	// Build expands a job payload into points (e.g.
	// sweepserver.PointsFromSpec). Builds are memoized per payload.
	Build PointsBuilder
	// Runner executes shard points; its Workers/Replicas settings are the
	// worker process's local parallelism (each point itself runs the
	// serial slot loop).
	Runner sweep.Runner
	// Cache is the shared content-addressed result cache; nil disables
	// caching (and with it crash-resume incrementality).
	Cache sweep.PointCache
	// Name identifies this worker to the coordinator.
	Name string
	// Poll is the idle re-acquire interval. Default 500ms.
	Poll time.Duration
	// IdleExit ends Run with nil after this long without a lease to run;
	// 0 runs forever. Lets fleet scripts drain naturally after a job.
	IdleExit time.Duration
	// Log receives lease lifecycle records; nil means slog.Default().
	Log *slog.Logger
	// OnPoint, when set, observes every completed point of every shard
	// this worker runs (the sweep.Progress cadence). Test hook.
	OnPoint func(job string, index int, cached bool)

	points map[string][]sweep.Scenario // payload -> expanded points
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.Default()
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

// Run loops acquire -> execute until ctx is canceled, returning ctx's
// error (or nil after IdleExit). Transport errors are retried at the
// poll interval — a worker outliving a coordinator restart reconnects by
// itself.
func (w *Worker) Run(ctx context.Context) error {
	idleSince := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		g, ok, err := w.Client.Acquire(ctx, w.Name)
		if err != nil && ctx.Err() == nil {
			w.log().Warn("acquire failed; retrying", "worker", w.Name, "err", err)
		}
		if err == nil && ok {
			idleSince = time.Now()
			w.execute(ctx, g)
			continue
		}
		if w.IdleExit > 0 && time.Since(idleSince) >= w.IdleExit {
			w.log().Info("idle limit reached; exiting", "worker", w.Name, "idle", w.IdleExit)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.poll()):
		}
	}
}

// execute runs one leased shard and reports its rows. Errors end the
// lease, not the worker: a failed build or a lost lease is logged and
// the loop moves on — the coordinator re-leases the shard elsewhere.
func (w *Worker) execute(ctx context.Context, g Grant) {
	log := w.log().With("worker", w.Name, "job", g.Job, "shard", g.Shard, "lease", g.LeaseID, "epoch", g.Epoch)
	points, err := w.pointsFor(g.Payload)
	if err != nil {
		log.Error("cannot build job points; abandoning lease", "err", err)
		return
	}
	shard, err := sweep.ShardPoints(points, g.Shard, g.Shards)
	if err != nil {
		log.Error("cannot shard job points; abandoning lease", "err", err)
		return
	}
	log.Info("lease acquired", "points", len(shard.Points), "stolen", g.Stolen)

	// Renew at TTL/3 until the run ends; a lost lease cancels the run.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		interval := g.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				if _, err := w.Client.Renew(runCtx, w.Name, g); errors.Is(err, ErrLeaseLost) {
					log.Warn("lease lost mid-run; dropping shard (computed points stay cached)")
					cancel()
					return
				}
				// Transport errors are tolerated until the lease actually
				// expires server-side; the next tick retries.
			}
		}
	}()

	cached := make([]bool, len(shard.Points))
	results, runErr := w.Runner.RunCached(runCtx, shard.Points, w.Cache, func(i int, res sweep.Result, hit bool) {
		cached[i] = hit
		if w.OnPoint != nil {
			w.OnPoint(g.Job, shard.Indices[i], hit)
		}
	})
	cancel()
	<-renewDone
	if runErr != nil {
		log.Info("shard run interrupted; not completing", "err", runErr)
		return
	}
	rows := shard.ShardResults(results)
	for i := range rows {
		rows[i].Cached = cached[i]
	}
	st, err := w.Client.Complete(ctx, w.Name, g, rows)
	if err != nil && st == "" {
		log.Warn("complete failed", "err", err)
		return
	}
	log.Info("shard completed", "status", string(st), "rows", len(rows))
}

// pointsFor memoizes payload expansion: one build per distinct grid
// description, shared by every lease of the same job (and by jobs
// resubmitting the same grid).
func (w *Worker) pointsFor(payload []byte) ([]sweep.Scenario, error) {
	if w.points == nil {
		w.points = make(map[string][]sweep.Scenario)
	}
	if pts, ok := w.points[string(payload)]; ok {
		return pts, nil
	}
	if w.Build == nil {
		return nil, errors.New("coordinator: worker has no PointsBuilder")
	}
	pts, err := w.Build(payload)
	if err != nil {
		return nil, err
	}
	w.points[string(payload)] = pts
	return pts, nil
}
