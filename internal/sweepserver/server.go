// Package sweepserver exposes the sweep service layer over HTTP/JSON:
// submit a scenario grid, stream its per-point results as NDJSON while
// workers complete them, poll job status, cancel a running grid, and read
// result-cache statistics. It is the `netsim serve` subcommand's engine
// room. Jobs run on a sweep.Runner whose workers reuse compiled engines
// per topology, and every completed point flows through the shared
// content-addressed cache (internal/sweepcache), so repeated or
// overlapping submissions answer from cache instead of simulating again.
//
// API (all under /api/v1):
//
//	POST /api/v1/sweeps        — submit a GridSpec; returns {id, points}
//	GET  /api/v1/sweeps        — list jobs
//	GET  /api/v1/sweeps/{id}   — job status
//	GET  /api/v1/sweeps/{id}/stream — NDJSON, one line per completed point
//	                             (already-completed points replay first)
//	GET  /api/v1/sweeps/{id}/curve  — aggregated curve (completed jobs)
//	POST /api/v1/sweeps/{id}/cancel — stop handing out points
//	GET  /api/v1/cache/stats   — sweepcache counters
//	GET  /api/v1/observe       — one-call observability snapshot: every
//	                             registry instrument, cache hit rate, and
//	                             live per-job progress with throughput
//	GET  /metrics              — Prometheus text exposition of the shared
//	                             obs registry (and /debug/pprof/ when the
//	                             server is built with Pprof set)
//
// Distributed execution (internal/coordinator): a grid submitted with
// "shards" > 0 is not run in-process — its points split into leased
// shards executed by `netsim work` processes over the worker protocol
// the server also mounts:
//
//	POST /api/v1/leases/acquire    — worker asks for a shard lease
//	POST /api/v1/leases/renew      — keep a lease alive
//	POST /api/v1/leases/complete   — report a shard's result rows
//	POST /api/v1/workers/heartbeat — idle-worker liveness
//
// Jobs are in-memory; the cache is what persists across restarts. A
// resubmitted grid after a restart replays instantly from the cache.
package sweepserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/export"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
)

// Server owns the job table. Construct with New; serve Handler().
type Server struct {
	// Pprof opts the net/http/pprof handlers into Handler's mux (under
	// /debug/pprof/). Set before calling Handler.
	Pprof bool
	// Logger receives job-lifecycle events (submitted/done/canceled) with
	// a job_id attribute on every record; nil means slog.Default().
	Logger *slog.Logger
	// Coord executes distributed submissions (GridSpec.Shards > 0) over
	// the worker-lease protocol; Handler mounts its endpoints. New
	// installs a default-configured coordinator — replace it before the
	// first submission to tune lease TTLs (tests use short ones).
	Coord *coordinator.Coordinator

	runner sweep.Runner
	cache  *sweepcache.Cache

	mu   sync.Mutex
	jobs map[string]*job
	seq  int

	// topos reuses built-and-validated topologies across submissions,
	// keyed by canonical spec. Built topologies are read-only (fault
	// scenarios wrap them per engine), so jobs share them freely — exactly
	// as CLI sweep workers share one base topology, and each topology's
	// sweep.TopologyFingerprint is computed once, not once per request.
	topoMu sync.Mutex
	topos  map[sweep.TopoSpec]sweep.Topology
}

// New builds a server running grids on runner, caching through cache (a
// sweepcache.NewMemory() when nil).
func New(runner sweep.Runner, cache *sweepcache.Cache) *Server {
	if cache == nil {
		cache = sweepcache.NewMemory()
	}
	return &Server{
		Coord:  coordinator.New(coordinator.Config{}),
		runner: runner,
		cache:  cache,
		jobs:   make(map[string]*job),
		topos:  make(map[sweep.TopoSpec]sweep.Topology),
	}
}

// buildTopo returns the memoized topology for a spec, building and
// validating it on first use.
func (s *Server) buildTopo(ts sweep.TopoSpec) (sweep.Topology, error) {
	key := ts.Canonical()
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if topo, ok := s.topos[key]; ok {
		return topo, nil
	}
	topo, err := buildAndCheck(key)
	if err != nil {
		return sweep.Topology{}, err
	}
	s.topos[key] = topo
	return topo, nil
}

// job states.
const (
	stateRunning  = "running"
	stateDone     = "done"
	stateCanceled = "canceled"
	// stateFailed is reached only by distributed jobs whose shard rows
	// fail to merge (a worker ran a different grid definition); in-process
	// runs cannot produce conflicting rows.
	stateFailed = "failed"
)

// StreamEvent is one NDJSON line of a result stream: the point's index in
// the grid, whether it came from the cache, and the flat result row.
type StreamEvent struct {
	Index  int  `json:"index"`
	Cached bool `json:"cached"`
	sweep.Record
}

// job is one submitted grid. cond (over mu) broadcasts every append and
// the terminal state change, which is what lets any number of stream
// handlers tail the events slice without channels per subscriber.
type job struct {
	id       string
	points   []sweep.Scenario
	cancel   context.CancelFunc
	started  time.Time
	coordJob *coordinator.Job // non-nil for distributed (sharded) jobs

	mu       sync.Mutex
	cond     *sync.Cond
	events   []StreamEvent
	cached   int
	state    string
	errMsg   string         // set when state == stateFailed
	results  []sweep.Result // set when state == stateDone
	finished time.Time      // set at the terminal state change
}

// Status is the JSON status of a job. The Shards* fields appear only for
// distributed jobs; Error only for failed ones.
type Status struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Points       int    `json:"points"`
	Done         int    `json:"done"`
	Cached       int    `json:"cached"`
	ShardsTotal  int    `json:"shards_total,omitempty"`
	ShardsDone   int    `json:"shards_done,omitempty"`
	ShardsLeased int    `json:"shards_leased,omitempty"`
	Error        string `json:"error,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	st := Status{ID: j.id, State: j.state, Points: len(j.points), Done: len(j.events), Cached: j.cached, Error: j.errMsg}
	j.mu.Unlock()
	// Shard progress reads the coordinator after j.mu is released: hooks
	// take j.mu with no coordinator lock held, so the two locks must never
	// nest in the other order here.
	if j.coordJob != nil {
		p := j.coordJob.Progress()
		st.ShardsTotal, st.ShardsDone, st.ShardsLeased = p.ShardsTotal, p.ShardsDone, p.ShardsLeased
	}
	return st
}

// submit registers a grid and starts executing it, returning the job
// immediately. Grids with Shards > 0 go to the coordinator's worker
// fleet instead of the in-process runner.
func (s *Server) submit(spec GridSpec) (*job, error) {
	grid, err := spec.grid(s.buildTopo)
	if err != nil {
		return nil, err
	}
	points := grid.Points()
	if spec.Shards < 0 {
		return nil, fmt.Errorf("shards %d invalid (want >= 0)", spec.Shards)
	}
	if spec.Shards > 0 {
		return s.submitDistributed(spec, points)
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{points: points, cancel: cancel, state: stateRunning, started: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("s%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()
	serverObs.submitted.Add(1)
	serverObs.running.Add(1)
	s.logger().Info("sweep submitted", "job_id", j.id, "points", len(points))
	go s.run(ctx, j)
	return j, nil
}

// submitDistributed hands the grid to the coordinator: points become
// leased shards executed by `netsim work` processes, accepted shard rows
// stream into the job's event log exactly like in-process progress
// events, and the merged results (bit-for-bit equal to an in-process
// RunCached) arrive through the OnDone hook. A merge failure — a worker
// ran a different grid definition — lands the job in stateFailed with
// the merge error in its status, never a panic.
func (s *Server) submitDistributed(spec GridSpec, points []sweep.Scenario) (*job, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	j := &job{points: points, state: stateRunning, started: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("s%d", s.seq)
	s.mu.Unlock()
	hooks := coordinator.Hooks{
		OnRows: func(rows []sweep.ShardResult) {
			j.mu.Lock()
			for _, row := range rows {
				j.events = append(j.events, StreamEvent{
					Index:  row.Index,
					Cached: row.Cached,
					Record: sweep.NewRecord(sweep.Result{Scenario: j.points[row.Index], Metrics: row.Metrics}),
				})
				if row.Cached {
					j.cached++
				}
			}
			j.mu.Unlock()
			j.cond.Broadcast()
		},
		OnDone: func(results []sweep.Result, err error) {
			j.mu.Lock()
			switch {
			case err == nil:
				j.state = stateDone
				j.results = results
			case errors.Is(err, coordinator.ErrCanceled):
				j.state = stateCanceled
			default:
				j.state = stateFailed
				j.errMsg = err.Error()
			}
			j.finished = time.Now()
			state, done, cached, elapsed := j.state, len(j.events), j.cached, j.finished.Sub(j.started)
			j.mu.Unlock()
			j.cond.Broadcast()
			serverObs.running.Add(-1)
			switch state {
			case stateDone:
				serverObs.completed.Add(1)
				s.logger().Info("sweep done", "job_id", j.id, "points", len(j.points), "cached", cached, "elapsed", elapsed, "distributed", true)
			case stateCanceled:
				serverObs.canceled.Add(1)
				s.logger().Info("sweep canceled", "job_id", j.id, "done", done, "points", len(j.points), "elapsed", elapsed, "distributed", true)
			default:
				s.logger().Error("sweep failed at merge", "job_id", j.id, "err", err, "distributed", true)
			}
		},
	}
	cj, err := s.Coord.Submit(j.id, points, payload, spec.Shards, spec.Priority, hooks)
	if err != nil {
		return nil, err
	}
	j.coordJob = cj
	j.cancel = func() { s.Coord.Cancel(j.id) }
	// Register only after coordJob is set: the job table is what makes j
	// visible to status/stream handlers, which read j.coordJob unlocked.
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	serverObs.submitted.Add(1)
	serverObs.running.Add(1)
	s.logger().Info("sweep submitted", "job_id", j.id, "points", len(points),
		"shards", cj.Progress().ShardsTotal, "priority", spec.Priority, "distributed", true)
	return j, nil
}

// logger returns the configured job-lifecycle logger.
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// run executes the job's points and drives its event log.
func (s *Server) run(ctx context.Context, j *job) {
	results, err := s.runner.RunCached(ctx, j.points, s.cache, func(i int, res sweep.Result, cached bool) {
		ev := StreamEvent{Index: i, Cached: cached, Record: sweep.NewRecord(res)}
		j.mu.Lock()
		j.events = append(j.events, ev)
		if cached {
			j.cached++
		}
		j.mu.Unlock()
		j.cond.Broadcast()
	})
	j.mu.Lock()
	if err != nil {
		j.state = stateCanceled
	} else {
		j.state = stateDone
		j.results = results
	}
	j.finished = time.Now()
	done, cached, elapsed := len(j.events), j.cached, j.finished.Sub(j.started)
	j.mu.Unlock()
	j.cond.Broadcast()
	serverObs.running.Add(-1)
	if err != nil {
		serverObs.canceled.Add(1)
		s.logger().Info("sweep canceled", "job_id", j.id, "done", done, "points", len(j.points), "elapsed", elapsed)
	} else {
		serverObs.completed.Add(1)
		s.logger().Info("sweep done", "job_id", j.id, "points", len(j.points), "cached", cached, "elapsed", elapsed)
	}
}

// Handler returns the API router.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/curve", s.handleCurve)
	mux.HandleFunc("POST /api/v1/sweeps/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /api/v1/observe", s.handleObserve)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.Coord.Mount(mux)
	if s.Pprof {
		registerPprof(mux)
	}
	return mux
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such sweep", http.StatusNotFound)
	}
	return j
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec GridSpec
	if err := coordinator.DecodeStrict(r.Body, &spec); err != nil {
		http.Error(w, "bad grid spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		http.Error(w, "bad grid spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	sortStatuses(out, func(st Status) string { return st.ID })
	writeJSON(w, out)
}

// sortStatuses orders job rows by id. Ids are s<seq>, so
// shorter-then-lexicographic sorts them numerically.
func sortStatuses[T any](rows []T, id func(T) string) {
	sort.Slice(rows, func(a, b int) bool {
		ia, ib := id(rows[a]), id(rows[b])
		if len(ia) != len(ib) {
			return len(ia) < len(ib)
		}
		return ia < ib
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, j.status())
	}
}

// handleStream tails the job's event log as NDJSON: completed points
// replay first, then lines are written as workers finish points, each
// flushed immediately. The stream ends when the job reaches a terminal
// state (or the client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// A canceled request must wake the cond wait below. The broadcast takes
	// j.mu first: the condition it signals (the request context's error)
	// changes outside the lock, and a lock-free Broadcast could fire between
	// the waiter's predicate check and its Wait registration — a missed
	// wakeup that would leave the handler blocked past the disconnect.
	stop := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()
	next := 0
	var line []byte // encoded lines not yet written, reused across batches
	for {
		j.mu.Lock()
		for next >= len(j.events) && j.state == stateRunning && r.Context().Err() == nil {
			j.cond.Wait()
		}
		events := j.events[next:]
		next += len(events)
		terminal := j.state != stateRunning
		j.mu.Unlock()
		if r.Context().Err() != nil {
			return
		}
		for i := range events {
			var ok bool
			if line, ok = appendStreamLine(line, &events[i]); ok && len(line) < streamChunk {
				continue
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			line = line[:0]
			// A NaN or ±Inf metric: encoding/json refuses the event, and
			// the stream ends at it.
			if !ok && export.WriteNDJSONLine(w, events[i]) != nil {
				return
			}
		}
		if len(line) > 0 {
			if _, err := w.Write(line); err != nil {
				return
			}
			line = line[:0]
		}
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		// On a terminal state, one more pass drains events appended between
		// the snapshot and the state change; the empty pass after that ends
		// the stream.
		if terminal && len(events) == 0 {
			return
		}
	}
}

// streamChunk is the most encoded lines handleStream holds before
// writing them out.
const streamChunk = 32 << 10

// appendStreamLine appends ev as one NDJSON line, byte-identical to
// export.WriteNDJSONLine's. It returns b unchanged and false when the
// event holds a NaN or ±Inf float, which only encoding/json may report.
func appendStreamLine(b []byte, ev *StreamEvent) ([]byte, bool) {
	n := len(b)
	b = strconv.AppendInt(append(b, `{"index":`...), int64(ev.Index), 10)
	b = strconv.AppendBool(append(b, `,"cached":`...), ev.Cached)
	b, ok := sweep.AppendRecordFields(append(b, ','), &ev.Record)
	if !ok {
		return b[:n], false
	}
	return append(b, "}\n"...), true
}

// handleCurve aggregates a completed job's results into curve points.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, results := j.state, j.results
	j.mu.Unlock()
	if state != stateDone {
		http.Error(w, fmt.Sprintf("sweep is %s; the curve needs a completed job", state), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sweep.WriteCurveJSON(w, sweep.Aggregate(results))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	s.logger().Info("sweep cancel requested", "job_id", j.id)
	writeJSON(w, j.status())
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.cache.Stats())
}
