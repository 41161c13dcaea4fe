// Package sweepserver exposes the sweep service layer over HTTP/JSON:
// submit a scenario grid, stream its per-point results as NDJSON while
// workers complete them, poll job status, cancel a running grid, and read
// result-cache statistics. It is the `netsim serve` subcommand's engine
// room.
//
// Every grid runs as a job of a lease coordinator (internal/coordinator):
// with "shards" on the one the server mounts, for `netsim work` processes;
// without, on a private one, one shard per in-process worker, against the
// server's content-addressed cache (internal/sweepcache), so repeated or
// overlapping submissions answer from cache instead of simulating again.
//
// API (all under /api/v1):
//
//	POST /api/v1/sweeps        — submit a GridSpec; returns {id, points}
//	GET  /api/v1/sweeps        — list jobs
//	GET  /api/v1/sweeps/{id}   — job status
//	GET  /api/v1/sweeps/{id}/stream — NDJSON, one line per completed point,
//	                             a shard at a time (completed points
//	                             replay first)
//	GET  /api/v1/sweeps/{id}/curve  — aggregated curve (completed jobs)
//	POST /api/v1/sweeps/{id}/cancel — stop handing out shards
//	GET  /api/v1/cache/stats   — sweepcache counters
//	GET  /api/v1/observe       — one-call observability snapshot: every
//	                             registry instrument, cache hit rate, and
//	                             live per-job progress with throughput
//	GET  /metrics              — Prometheus text exposition of the shared
//	                             obs registry (and /debug/pprof/ when the
//	                             server is built with Pprof set)
//	POST /api/v1/leases/acquire  — worker asks for a shard lease (every
//	                               lease call also records the worker
//	                               as live)
//	POST /api/v1/leases/renew    — keep a lease alive
//	POST /api/v1/leases/complete — report a shard's result rows
//
// Jobs are in-memory, and only the 32 most recent ended ones are kept
// (keepEnded); a running job is never dropped. An ended job's status,
// stream and curve stay readable while it is kept; after that its id
// answers 404 saying it was evicted, and a client resubmits. The
// coordinators forget a job as soon as it ends. Nothing is lost: the
// cache is what persists, across evictions and restarts alike, so a
// resubmitted grid replays from it.
package sweepserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
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
	// Coord executes sharded submissions (GridSpec.Shards > 0) over the
	// worker-lease protocol; Handler mounts its endpoints. New installs a
	// default-configured coordinator — replace it before the first
	// submission to tune lease TTLs (tests use short ones).
	Coord *coordinator.Coordinator

	cache *sweepcache.Cache
	// local runs grids without shards on `workers` in-process workers; it
	// is never mounted, so no fleet worker leases their shards.
	local   *coordinator.Coordinator
	workers int

	mu    sync.Mutex
	jobs  map[string]*job
	seq   int      // the last id issued is s<seq>
	ended []string // ids of the kept ended jobs, oldest first

	// topos reuses built-and-validated topologies across submissions,
	// keyed by canonical spec. Built topologies are read-only (fault
	// scenarios wrap them per engine), so jobs share them freely — exactly
	// as CLI sweep workers share one base topology, and each topology's
	// sweep.TopologyFingerprint is computed once, not once per request.
	topoMu sync.Mutex
	topos  map[sweep.TopoSpec]sweep.Topology
}

// localLeaseTTL is s.local's lease TTL: a renewal there is a mutex, so a
// short TTL costs nothing and stops a canceled job's workers within TTL/3.
// s.local never steals: its workers die only with the server.
const localLeaseTTL = 600 * time.Millisecond

// New builds a server with runner.Workers in-process workers (GOMAXPROCS
// at 0), caching through cache (a sweepcache.NewMemory() when nil).
func New(runner sweep.Runner, cache *sweepcache.Cache) *Server {
	if cache == nil {
		cache = sweepcache.NewMemory()
	}
	if runner.Workers <= 0 {
		runner.Workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		Coord:   coordinator.New(coordinator.Config{}),
		local:   coordinator.New(coordinator.Config{LeaseTTL: localLeaseTTL, StealAfter: math.MaxInt64}),
		workers: runner.Workers,
		cache:   cache,
		jobs:    make(map[string]*job),
		topos:   make(map[sweep.TopoSpec]sweep.Topology),
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
	// stateFailed: the shard rows failed to merge (a worker ran another grid).
	stateFailed = "failed"
)

// StreamEvent is one NDJSON line of a result stream: the point's index in
// the grid, whether it came from the cache, and the flat result row.
type StreamEvent struct {
	Index  int  `json:"index"`
	Cached bool `json:"cached"`
	sweep.Record
}

// job is one submitted grid, run as a job of coord (s.Coord or s.local).
// cond (over mu) broadcasts every append and the terminal state change,
// which is what lets any number of stream handlers tail the events slice
// without channels per subscriber.
type job struct {
	id      string
	npoints int
	started time.Time
	coord   *coordinator.Coordinator
	cj      *coordinator.Job

	mu       sync.Mutex
	cond     *sync.Cond
	points   []sweep.Scenario // the expanded grid, until the terminal state
	events   []StreamEvent
	cached   int
	state    string
	finished time.Time // set at the terminal state change
}

// Status is the JSON status of a job. Error appears only for failed jobs.
type Status struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Points       int    `json:"points"`
	Done         int    `json:"done"`
	Cached       int    `json:"cached"`
	ShardsTotal  int    `json:"shards_total"`
	ShardsDone   int    `json:"shards_done"`
	ShardsLeased int    `json:"shards_leased"`
	Error        string `json:"error,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	st := Status{ID: j.id, State: j.state, Points: j.npoints, Done: len(j.events), Cached: j.cached}
	j.mu.Unlock()
	// Shard progress reads the coordinator after j.mu is released: hooks
	// take j.mu with no coordinator lock held, so the two locks must never
	// nest in the other order here.
	p := j.cj.Progress()
	st.ShardsTotal, st.ShardsDone, st.ShardsLeased = p.ShardsTotal, p.ShardsDone, p.ShardsLeased
	if st.State == stateFailed {
		st.Error = p.Error
	}
	return st
}

// submit registers a grid as a job of s.Coord (with shards) or of s.local
// (without: one shard per in-process worker, started here).
func (s *Server) submit(spec GridSpec) (*job, error) {
	grid, err := spec.grid(s.buildTopo)
	if err != nil {
		return nil, err
	}
	points := grid.Points()
	if spec.Shards < 0 {
		return nil, fmt.Errorf("shards %d invalid (want >= 0)", spec.Shards)
	}
	coord, shards, payload := s.Coord, spec.Shards, []byte(nil)
	if shards == 0 {
		coord, shards = s.local, min(s.workers, len(points))
	} else if payload, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	j := &job{points: points, npoints: len(points), coord: coord, state: stateRunning, started: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	s.mu.Lock()
	j.id = "s" + strconv.Itoa(s.seq+1)
	if coord == s.local {
		payload = []byte(j.id) // see localPoints
	}
	if j.cj, err = coord.Submit(j.id, points, payload, shards, spec.Priority, s.hooks(j)); err == nil {
		s.seq++          // only a registered job uses up an id (see lookup)
		s.jobs[j.id] = j // j.cj is set: handlers read it unlocked
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	serverObs.submitted.Add(1)
	serverObs.running.Add(1)
	// A local job's workers drain s.local against the server's cache; their
	// lease logs are plumbing, as the server logs each job's lifecycle.
	for i := 0; coord == s.local && i < shards; i++ {
		w := &coordinator.Worker{
			Build:  s.localPoints,
			Runner: sweep.Runner{Workers: 1},
			Cache:  s.cache,
			Name:   "local",
			Log:    slog.New(slog.DiscardHandler),
		}
		go w.Drain(context.Background(), ownLeases{s.local})
	}
	s.logger().Info("sweep submitted", "job_id", j.id, "points", len(points),
		"shards", shards, "priority", spec.Priority, "fleet", coord == s.Coord)
	return j, nil
}

// localPoints is the in-process workers' PointsBuilder: a local job's
// payload is its id, and they run the server's own expansion of its grid.
// A job that has ended has dropped its points; a lease granted just
// before the end gets an error and is abandoned.
func (s *Server) localPoints(id []byte) ([]sweep.Scenario, error) {
	s.mu.Lock()
	j := s.jobs[string(id)]
	s.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.points != nil {
			return j.points, nil
		}
	}
	return nil, fmt.Errorf("sweepserver: no running job %s", id)
}

// ownLeases is s.local as its in-process workers see it. They run the
// merge reference itself (localPoints), so Complete drops the row keys
// rather than have the merge hash every point a second time.
type ownLeases struct{ *coordinator.Coordinator }

func (o ownLeases) Complete(ctx context.Context, worker string, g coordinator.Grant, rows []sweep.ShardResult) (coordinator.CompleteStatus, error) {
	for i := range rows {
		rows[i].Key = ""
	}
	return o.Coordinator.Complete(ctx, worker, g, rows)
}

// hooks drive j's event log and terminal state; a merge error fails j.
func (s *Server) hooks(j *job) coordinator.Hooks {
	return coordinator.Hooks{
		OnRows: func(rows []sweep.ShardResult) {
			j.mu.Lock()
			for _, row := range rows {
				rec := sweep.NewRecord(sweep.Result{Scenario: j.points[row.Index], Metrics: row.Metrics})
				j.events = append(j.events, StreamEvent{Index: row.Index, Cached: row.Cached, Record: rec})
				if row.Cached {
					j.cached++
				}
			}
			j.mu.Unlock()
			j.cond.Broadcast()
		},
		OnDone: func(_ []sweep.Result, err error) {
			state, log, attrs := stateDone, s.logger().Info, []any{"job_id", j.id, "points", j.npoints}
			switch {
			case errors.Is(err, coordinator.ErrCanceled):
				state = stateCanceled
				serverObs.canceled.Add(1)
			case err != nil:
				state, log, attrs = stateFailed, s.logger().Error, append(attrs, "err", err)
			default:
				serverObs.completed.Add(1)
			}
			serverObs.running.Add(-1)
			// Evict before the end is published: once j reads as ended,
			// the jobs it pushes out of the bound are gone.
			s.retire(j.id)
			j.mu.Lock()
			// Every OnRows has run, so the points have no use left; a
			// worker that still asks for them gets an error (localPoints).
			j.state, j.finished, j.points = state, time.Now(), nil
			attrs = append(attrs, "done", len(j.events), "cached", j.cached, "elapsed", j.finished.Sub(j.started))
			j.mu.Unlock()
			j.cond.Broadcast()
			log("sweep "+state, attrs...)
		},
	}
}

// keepEnded is how many ended jobs (done, failed or canceled) the server
// keeps readable; older ones are evicted in the order they ended.
const keepEnded = 32

// retire queues an ending job's id and evicts the oldest ended jobs past
// keepEnded. Only ending jobs enter the queue, so no running job is
// evicted; a stream handler already tailing an evicted job holds its own
// pointer and finishes.
func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ended = append(s.ended, id)
	for len(s.ended) > keepEnded {
		delete(s.jobs, s.ended[0])
		s.ended = s.ended[1:]
	}
}

// logger returns the configured job-lifecycle logger.
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
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

// lookup finds the job a request names, or answers 404. Ids are s<seq>
// and only registered jobs use one up, so an issued id (s1 to s<seq>, as
// strconv writes it) missing from the table is a job that was evicted.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j, seq := s.jobs[id], s.seq
	s.mu.Unlock()
	if j != nil {
		return j
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n >= 1 && n <= seq && id == "s"+strconv.Itoa(n) {
		http.Error(w, "sweep "+id+" ended and was evicted; a resubmission of its grid is answered from the cache", http.StatusNotFound)
		return nil
	}
	http.Error(w, "no such sweep", http.StatusNotFound)
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
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
	writeJSON(w, http.StatusAccepted, j.status())
}

// jobList snapshots the job table.
func (s *Server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobList()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	sortStatuses(out, func(st Status) string { return st.ID })
	writeJSON(w, http.StatusOK, out)
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
		writeJSON(w, http.StatusOK, j.status())
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
	results, err := j.cj.Results()
	if err != nil {
		http.Error(w, fmt.Sprintf("sweep is %s; the curve needs a completed job", j.cj.Progress().State), http.StatusConflict)
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
	j.coord.Cancel(j.id)
	s.logger().Info("sweep cancel requested", "job_id", j.id)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}
