// Package coordinator turns the sweep service into a multi-worker
// distributed system: a submitted grid is split into deterministic strided
// shards (sweep.ShardPoints), each shard is handed to a worker as a
// *lease* — id, job, shard index, epoch, deadline — over a small HTTP
// protocol (see http.go) or in process (Leases), and the coordinator
// reassembles completed shard rows with sweep.MergeShardResults so the
// final result slice is bit-for-bit equal to a single-process
// Runner.RunCached over the same points.
//
// The lease state machine is what makes worker failure survivable:
//
//   - A shard is pending, leased or done. Acquire moves the best pending
//     shard (highest job priority, then submission order) to leased and
//     hands out a lease with a deadline.
//   - Workers renew their lease before the deadline; a worker that dies
//     stops renewing, the lease expires, and the shard goes back to
//     pending. The next lease on the shard carries a higher epoch, so a
//     late completion from the dead worker's lease is rejected as stale —
//     completions must name a live (lease id, epoch) pair.
//   - When every shard of a job is pending-free but some are still leased,
//     an idle worker may *steal* the slowest outstanding shard: a second
//     live lease at a higher epoch on the same shard. Both leases are
//     valid; the first completion wins and the loser's completion is a
//     duplicate (idempotent, ignored). Stealing bounds a job's tail
//     latency by the straggler's shard, not the straggler's machine.
//   - Completing a done shard again is idempotent (StatusDuplicate);
//     canceling a job invalidates its outstanding leases, so renewals and
//     completions for them fail and workers drop the abandoned work.
//   - A job that ends — merged, failed at merge or canceled — is removed
//     from the job table and drops its points and payload; the *Job
//     Submit returned keeps its Progress and Results. A late completion
//     names a job the coordinator no longer holds and is stale, so
//     nothing is kept for it.
//
// Workers run shards through sweep.Runner.RunCached against a shared
// content-addressed cache (internal/sweepcache), so a shard re-leased
// after a crash replays the dead worker's journaled points as cache hits
// and recomputation is incremental — the chaos tests in this package
// assert both the byte-identical merge and the no-recompute property.
//
// Time is injected (Clock) so lease expiry is testable without sleeping;
// the coordinator never runs background timers — expiry is swept lazily
// at the top of every state-changing call.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"otisnet/internal/sweep"
)

// Clock abstracts time for lease-deadline bookkeeping. The zero Config
// uses the system clock; tests inject a fake to drive expiry
// deterministically.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Config tunes the coordinator. Zero values select the defaults.
type Config struct {
	// LeaseTTL is how long a lease lives without a renewal. Default 15s.
	LeaseTTL time.Duration
	// StealAfter is the minimum age of the oldest outstanding lease before
	// an idle worker may be handed a duplicate (steal) lease for its
	// shard. Default LeaseTTL / 2.
	StealAfter time.Duration
	// Clock supplies the current time. Default: the system clock.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.StealAfter <= 0 {
		c.StealAfter = c.LeaseTTL / 2
	}
	if c.Clock == nil {
		c.Clock = systemClock{}
	}
	return c
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// CompleteStatus classifies the outcome of a completion attempt.
type CompleteStatus string

const (
	// StatusAccepted: the rows were recorded and the shard is now done.
	StatusAccepted CompleteStatus = "accepted"
	// StatusDuplicate: the shard was already done (another lease won, or
	// the same worker retried); the rows were ignored. Not an error.
	StatusDuplicate CompleteStatus = "duplicate"
	// StatusStale: the named lease is no longer valid — expired, epoch
	// superseded, or its job ended or unknown. The worker must drop the
	// work.
	StatusStale CompleteStatus = "stale"
	// StatusInvalid: the lease was valid but the rows do not describe the
	// leased shard (wrong indices/length). The lease is revoked and the
	// shard re-leased to someone else.
	StatusInvalid CompleteStatus = "invalid"
)

// ErrCanceled is the terminal error a canceled job's OnDone hook receives.
var ErrCanceled = errors.New("coordinator: job canceled")

// ErrLeaseLost is returned by Renew when the lease no longer exists (it
// expired, was superseded, or its job ended).
var ErrLeaseLost = errors.New("coordinator: lease lost")

// Hooks are a job's completion callbacks. Both are invoked outside the
// coordinator lock, so they may call back into the coordinator or take
// their own locks. A job's hook calls run one at a time, in the order the
// coordinator accepted the state changes, so every OnRows precedes OnDone.
// They run on the goroutine of a caller that drove a state change: one
// that finds another caller already running the job's hooks queues its
// calls for that caller and returns without waiting.
type Hooks struct {
	// OnRows fires once per accepted shard completion with that shard's
	// result rows (global point indices). Rows for one job never repeat
	// an index: duplicates are filtered by the lease protocol.
	OnRows func(rows []sweep.ShardResult)
	// OnDone fires exactly once at the job's terminal state: (results,
	// nil) for a successful merge, (nil, err) on merge failure, and
	// (nil, ErrCanceled) on cancel.
	OnDone func(results []sweep.Result, err error)
}

// Grant is a lease handed to a worker: everything it needs to run the
// shard and report back. TTL is serialized as nanoseconds.
type Grant struct {
	LeaseID string `json:"lease_id"`
	Job     string `json:"job"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Epoch   int    `json:"epoch"`
	// TTL is the renewal deadline budget; workers should renew at a
	// comfortable fraction of it (the bundled Worker renews every TTL/3).
	TTL time.Duration `json:"ttl_ns"`
	// Stolen marks a duplicate lease on a straggler's shard.
	Stolen bool `json:"stolen,omitempty"`
	// Payload is the job's opaque grid description (the submitted
	// GridSpec JSON); workers rebuild the point list from it.
	Payload []byte `json:"payload,omitempty"`
}

// Leases is a worker's view of a coordinator: *Coordinator or HTTP *Client.
type Leases interface {
	Acquire(ctx context.Context, worker string) (g Grant, ok bool, err error)
	Renew(ctx context.Context, worker string, g Grant) (time.Duration, error)
	Complete(ctx context.Context, worker string, g Grant, rows []sweep.ShardResult) (CompleteStatus, error)
}

// shardState is the per-shard slot state.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shardSlot tracks one shard of a job.
type shardSlot struct {
	state shardState
	epoch int                 // epoch of the newest lease ever granted for this shard
	live  int                 // live leases (0, 1, or 2 after a steal)
	rows  []sweep.ShardResult // the accepted rows, until the job ends
}

// lease is one live lease record.
type lease struct {
	id       string
	job      *Job
	shard    int
	epoch    int
	worker   string
	granted  time.Time
	deadline time.Time
}

// Job is one submitted grid being executed by the worker fleet.
type Job struct {
	c        *Coordinator
	id       string
	priority int
	seq      int // submission order, tie-break among equal priorities
	payload  []byte
	points   []sweep.Scenario
	shardIdx [][]int // global point indices per shard

	state   JobState
	shards  []shardSlot
	done    int
	results []sweep.Result
	err     error
	hooks   Hooks

	// pending queues the job's hook calls under mu, in acceptance order;
	// delivering marks that a caller is running them (deliverUnlock).
	pending    []func()
	delivering bool
}

// Progress is a snapshot of a job's distributed execution.
type Progress struct {
	State        JobState `json:"state"`
	ShardsTotal  int      `json:"shards_total"`
	ShardsDone   int      `json:"shards_done"`
	ShardsLeased int      `json:"shards_leased"`
	Error        string   `json:"error,omitempty"`
}

// Coordinator owns the job table, the lease table and the worker
// liveness map. All state transitions happen under one mutex; expiry is
// swept lazily at the top of every call, against the injected clock.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // running jobs in submission order
	leases   map[string]*lease
	leaseSeq int
	jobSeq   int
	workers  map[string]time.Time // worker name -> last seen
	mounted  bool                 // Mount ran: this coordinator serves the fleet
}

// New builds a coordinator with the given configuration.
func New(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[string]*Job),
		leases:  make(map[string]*lease),
		workers: make(map[string]time.Time),
	}
}

// Submit registers a job: points are the expanded grid (the merge
// reference), payload the opaque grid description shipped to workers,
// shards the requested shard count (clamped to the point count), and
// priority orders jobs in Acquire (higher first; ties go to earlier
// submissions). The job starts running immediately — workers pick up
// shards on their next acquire.
func (c *Coordinator) Submit(id string, points []sweep.Scenario, payload []byte, shards, priority int, hooks Hooks) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("coordinator: job %s has no points", id)
	}
	if shards < 1 {
		return nil, fmt.Errorf("coordinator: job %s shard count %d < 1", id, shards)
	}
	if shards > len(points) {
		shards = len(points)
	}
	shardIdx := make([][]int, shards)
	for i := 0; i < shards; i++ {
		idx, err := sweep.ShardIndices(len(points), i, shards)
		if err != nil {
			return nil, err
		}
		shardIdx[i] = idx
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.jobs[id]; dup {
		return nil, fmt.Errorf("coordinator: job %s already exists", id)
	}
	c.jobSeq++
	j := &Job{
		c:        c,
		id:       id,
		priority: priority,
		seq:      c.jobSeq,
		payload:  payload,
		points:   points,
		shardIdx: shardIdx,
		state:    JobRunning,
		shards:   make([]shardSlot, shards),
		hooks:    hooks,
	}
	c.jobs[id] = j
	c.order = append(c.order, j)
	coordObs.jobsSubmitted.Add(1)
	coordObs.jobsRunning.Add(1)
	return j, nil
}

// Acquire hands the calling worker a lease, or reports there is nothing
// to do. Pending shards are served first, from the highest-priority
// running job (ties broken by submission order). With no pending shard
// anywhere, the slowest singly-leased shard older than StealAfter is
// duplicated to the caller (a steal) — never a shard the caller already
// holds. The error is always nil; it is there for the Leases shape.
func (c *Coordinator) Acquire(_ context.Context, worker string) (Grant, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	c.sweepLocked(now)
	c.workers[worker] = now
	var best *Job
	for _, j := range c.order {
		if best == nil || j.priority > best.priority {
			if j.hasPendingShard() {
				best = j
			}
		}
	}
	if best != nil {
		for si := range best.shards {
			if best.shards[si].state == shardPending {
				return c.grantLocked(best, si, worker, false, now), true, nil
			}
		}
	}
	// Steal pass: the oldest singly-leased shard past StealAfter.
	var victim *lease
	for _, l := range c.leases {
		if l.job.state != JobRunning || l.worker == worker {
			continue
		}
		slot := &l.job.shards[l.shard]
		if slot.state != shardLeased || slot.live != 1 {
			continue
		}
		if now.Sub(l.granted) < c.cfg.StealAfter {
			continue
		}
		if victim == nil || l.granted.Before(victim.granted) {
			victim = l
		}
	}
	if victim != nil {
		coordObs.leasesStolen.Add(1)
		return c.grantLocked(victim.job, victim.shard, worker, true, now), true, nil
	}
	return Grant{}, false, nil
}

func (j *Job) hasPendingShard() bool {
	for i := range j.shards {
		if j.shards[i].state == shardPending {
			return true
		}
	}
	return false
}

// grantLocked creates a lease on (j, shard) for worker. Caller holds mu.
func (c *Coordinator) grantLocked(j *Job, shard int, worker string, stolen bool, now time.Time) Grant {
	slot := &j.shards[shard]
	slot.epoch++
	slot.state = shardLeased
	slot.live++
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("L%d", c.leaseSeq),
		job:      j,
		shard:    shard,
		epoch:    slot.epoch,
		worker:   worker,
		granted:  now,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	coordObs.leasesGranted.Add(1)
	coordObs.leasesOutstanding.Add(1)
	return Grant{
		LeaseID: l.id,
		Job:     j.id,
		Shard:   shard,
		Shards:  len(j.shards),
		Epoch:   l.epoch,
		TTL:     c.cfg.LeaseTTL,
		Stolen:  stolen,
		Payload: j.payload,
	}
}

// Renew extends g's lease deadline by one TTL. ErrLeaseLost means the
// lease is gone (expired, superseded or its job ended): the worker should
// abandon the shard — any points it already computed live on in the
// shared cache.
func (c *Coordinator) Renew(_ context.Context, worker string, g Grant) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	c.sweepLocked(now)
	c.workers[worker] = now
	l := c.leases[g.LeaseID]
	if l == nil || l.epoch != g.Epoch {
		return 0, ErrLeaseLost
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	return c.cfg.LeaseTTL, nil
}

// Complete reports a shard's result rows under g's lease. The returned
// status classifies the outcome (see CompleteStatus); err is non-nil only
// for a job the coordinator does not hold (never submitted, or ended and
// forgotten), a shard out of range, and StatusInvalid, where it describes
// the row mismatch.
func (c *Coordinator) Complete(_ context.Context, worker string, g Grant, rows []sweep.ShardResult) (CompleteStatus, error) {
	c.mu.Lock()
	now := c.cfg.Clock.Now()
	c.sweepLocked(now)
	c.workers[worker] = now
	j := c.jobs[g.Job]
	if j == nil {
		// Never submitted, or ended and forgotten: either way no lease
		// on it is live.
		c.mu.Unlock()
		coordObs.completionsStale.Add(1)
		return StatusStale, fmt.Errorf("coordinator: unknown job %s", g.Job)
	}
	if g.Shard < 0 || g.Shard >= len(j.shards) {
		c.mu.Unlock()
		return StatusStale, fmt.Errorf("coordinator: job %s has no shard %d", g.Job, g.Shard)
	}
	slot := &j.shards[g.Shard]
	if slot.state == shardDone {
		c.mu.Unlock()
		return StatusDuplicate, nil
	}
	l := c.leases[g.LeaseID]
	if l == nil || l.job != j || l.shard != g.Shard || l.epoch != g.Epoch {
		c.mu.Unlock()
		coordObs.completionsStale.Add(1)
		return StatusStale, nil
	}
	if err := j.validateRows(g.Shard, rows); err != nil {
		// The worker ran the wrong thing; revoke its lease so the shard
		// can go to someone else, and tell it why.
		c.dropLeaseLocked(l)
		if slot.live == 0 {
			slot.state = shardPending
		}
		c.mu.Unlock()
		coordObs.completionsInvalid.Add(1)
		return StatusInvalid, err
	}
	// Accept: the shard is done; every lease on it (including a steal
	// racer) is now dead, and the racer's completion will be a duplicate.
	slot.state = shardDone
	slot.rows = rows
	for id, other := range c.leases {
		if other.job == j && other.shard == g.Shard {
			delete(c.leases, id)
			coordObs.leasesOutstanding.Add(-1)
		}
	}
	j.done++
	coordObs.shardsCompleted.Add(1)
	if onRows := j.hooks.OnRows; onRows != nil {
		j.pending = append(j.pending, func() { onRows(rows) })
	}
	if j.done == len(j.shards) {
		results, jobErr := j.mergeLocked()
		if jobErr != nil {
			j.state = JobFailed
			j.err = jobErr
			coordObs.jobsFailed.Add(1)
		} else {
			j.state = JobDone
			j.results = results
			coordObs.jobsCompleted.Add(1)
		}
		c.forgetLocked(j)
		if onDone := j.hooks.OnDone; onDone != nil {
			j.pending = append(j.pending, func() { onDone(results, jobErr) })
		}
	}
	c.deliverUnlock(j)
	return StatusAccepted, nil
}

// deliverUnlock runs the job's queued hook calls in order and releases
// mu, which the caller holds. The lock is dropped around each batch of
// calls. If another caller is already delivering, this one leaves its
// calls queued for that caller, so it never waits on someone else's hook.
func (c *Coordinator) deliverUnlock(j *Job) {
	if j.delivering {
		c.mu.Unlock()
		return
	}
	j.delivering = true
	for len(j.pending) > 0 {
		calls := j.pending
		j.pending = nil
		c.mu.Unlock()
		for _, call := range calls {
			call()
		}
		c.mu.Lock()
	}
	j.delivering = false
	c.mu.Unlock()
}

// validateRows checks that rows describe exactly the leased shard: one
// row per shard point, in shard order, carrying the global indices
// sweep.ShardPoints assigned. Content (keys, metrics) is deliberately not
// checked here — key conflicts surface at merge time, where they fail the
// job rather than the completion.
func (j *Job) validateRows(shard int, rows []sweep.ShardResult) error {
	idx := j.shardIdx[shard]
	if len(rows) != len(idx) {
		return fmt.Errorf("coordinator: shard %d wants %d rows, got %d", shard, len(idx), len(rows))
	}
	for i, row := range rows {
		if row.Index != idx[i] {
			return fmt.Errorf("coordinator: shard %d row %d has index %d, want %d", shard, i, row.Index, idx[i])
		}
	}
	return nil
}

// mergeLocked reassembles the job's shard rows into the full result
// slice and drops them: no completion reads them once the job ends. A
// merge error (index conflicts, key mismatches — a worker ran a different
// grid) fails the job; it must never panic.
func (j *Job) mergeLocked() ([]sweep.Result, error) {
	all := make([][]sweep.ShardResult, len(j.shards))
	for i := range j.shards {
		all[i], j.shards[i].rows = j.shards[i].rows, nil
	}
	return sweep.MergeShardResults(j.points, all...)
}

// forgetLocked removes an ended job from the job table and the acquire
// order and drops what only a running job reads: the points, the payload
// and the shard indices. The *Job stays whole for whoever holds it —
// Progress and Results keep answering — and a later completion naming it
// is stale as an unknown job's is. Caller holds mu.
func (c *Coordinator) forgetLocked(j *Job) {
	delete(c.jobs, j.id)
	c.order = slices.DeleteFunc(c.order, func(o *Job) bool { return o == j })
	j.points, j.payload, j.shardIdx = nil, nil, nil
	coordObs.jobsRunning.Add(-1)
}

// dropLeaseLocked removes one lease record. Caller holds mu.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	if _, ok := c.leases[l.id]; !ok {
		return
	}
	delete(c.leases, l.id)
	l.job.shards[l.shard].live--
	coordObs.leasesOutstanding.Add(-1)
}

// Cancel moves a running job to canceled, invalidates its outstanding
// leases (their renewals and completions now fail) and fires OnDone with
// ErrCanceled. Canceling a job that has ended, or an unknown one, is a
// no-op.
func (c *Coordinator) Cancel(jobID string) {
	c.mu.Lock()
	j := c.jobs[jobID]
	if j == nil {
		c.mu.Unlock()
		return
	}
	j.state = JobCanceled
	j.err = ErrCanceled
	for id, l := range c.leases {
		if l.job == j {
			delete(c.leases, id)
			j.shards[l.shard].live--
			coordObs.leasesOutstanding.Add(-1)
		}
	}
	for i := range j.shards {
		// No lease is live now: a leased shard reads as pending again, so
		// Progress reports no leased shards for a canceled job.
		if j.shards[i].state == shardLeased {
			j.shards[i].state = shardPending
		}
		j.shards[i].rows = nil
	}
	c.forgetLocked(j)
	coordObs.jobsCanceled.Add(1)
	if onDone := j.hooks.OnDone; onDone != nil {
		j.pending = append(j.pending, func() { onDone(nil, ErrCanceled) })
	}
	c.deliverUnlock(j)
}

// sweepLocked expires leases whose deadline has passed: the lease record
// dies (its completion becomes stale) and a shard with no remaining live
// lease returns to pending, to be re-leased at a higher epoch. It also
// prunes stale worker entries and, once mounted, refreshes the live-worker
// gauge (workers seen within three TTLs). Caller holds mu.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(c.leases, id)
		coordObs.leasesOutstanding.Add(-1)
		coordObs.leasesExpired.Add(1)
		slot := &l.job.shards[l.shard]
		slot.live--
		if slot.live == 0 && slot.state == shardLeased {
			slot.state = shardPending
		}
	}
	window := 3 * c.cfg.LeaseTTL
	live := 0
	for w, seen := range c.workers {
		if now.Sub(seen) > window {
			delete(c.workers, w)
			continue
		}
		live++
	}
	if c.mounted {
		coordObs.workersLive.Set(int64(live))
	}
}

// Progress returns a snapshot of the job's execution state.
func (j *Job) Progress() Progress {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	p := Progress{
		State:       j.state,
		ShardsTotal: len(j.shards),
		ShardsDone:  j.done,
	}
	for i := range j.shards {
		if j.shards[i].state == shardLeased {
			p.ShardsLeased++
		}
	}
	if j.err != nil {
		p.Error = j.err.Error()
	}
	return p
}

// Results returns the merged result slice of a done job, or the job's
// terminal error (merge failure or ErrCanceled). Calling it on a running
// job is an error.
func (j *Job) Results() ([]sweep.Result, error) {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	switch j.state {
	case JobDone:
		return j.results, nil
	case JobRunning:
		return nil, fmt.Errorf("coordinator: job %s still running", j.id)
	default:
		return nil, j.err
	}
}

// Workers returns the number of workers seen within the liveness window
// (three lease TTLs).
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.cfg.Clock.Now())
	return len(c.workers)
}
