package sweepserver

// Server observability: the /metrics Prometheus exposition, the
// /api/v1/observe JSON snapshot (registry + per-job live progress +
// cache effectiveness), and the server's own job-lifecycle instruments.
// Everything reads the shared obs.Default registry the engine, sweep and
// cache layers flush into, so one scrape covers the whole process.

import (
	"net/http"
	"net/http/pprof"
	"time"

	"otisnet/internal/obs"
	"otisnet/internal/sweepcache"
)

// serverObs is the job-lifecycle metric family, registered at package
// init so /metrics exposes the families on an idle server.
var serverObs = struct {
	submitted *obs.Counter
	completed *obs.Counter
	canceled  *obs.Counter
	running   *obs.Gauge
}{
	submitted: obs.Default().Counter("netsim_server_jobs_submitted_total",
		"Sweep jobs accepted by POST /api/v1/sweeps."),
	completed: obs.Default().Counter("netsim_server_jobs_completed_total",
		"Sweep jobs that ran every point to completion."),
	canceled: obs.Default().Counter("netsim_server_jobs_canceled_total",
		"Sweep jobs that ended canceled."),
	running: obs.Default().Gauge("netsim_server_jobs_running",
		"Sweep jobs currently executing."),
}

// JobObservation is the live progress of one job as reported by
// GET /api/v1/observe: the plain Status plus wall-clock rate figures.
// Done and ElapsedSec are monotonically non-decreasing across successive
// observations of a live job.
type JobObservation struct {
	Status
	// ElapsedSec is wall-clock seconds from submission to now (frozen at
	// the terminal state change for finished jobs).
	ElapsedSec float64 `json:"elapsed_sec"`
	// PointsPerSec is Done / ElapsedSec — the job's average delivery
	// throughput including cache replays.
	PointsPerSec float64 `json:"points_per_sec"`
}

// CacheObservation is the cache block of an observe response: the
// sweepcache counters plus the derived hit rate (hits / lookups, 0 when
// nothing was looked up yet).
type CacheObservation struct {
	sweepcache.Stats
	HitRate float64 `json:"hit_rate"`
}

// Observation is the GET /api/v1/observe response body.
type Observation struct {
	Metrics obs.Snapshot     `json:"metrics"`
	Cache   CacheObservation `json:"cache"`
	Jobs    []JobObservation `json:"jobs"`
}

// observation reads one job's live progress. Status (via j.status())
// includes per-shard progress, for jobs on in-process workers and on the
// fleet alike.
func (j *job) observation(now time.Time) JobObservation {
	st := j.status()
	j.mu.Lock()
	end := now
	if !j.finished.IsZero() {
		end = j.finished
	}
	j.mu.Unlock()
	o := JobObservation{Status: st, ElapsedSec: end.Sub(j.started).Seconds()}
	if o.ElapsedSec > 0 {
		o.PointsPerSec = float64(o.Done) / o.ElapsedSec
	}
	return o
}

// handleMetrics serves the shared registry in the Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// handleObserve serves the one-call JSON snapshot: every registry
// instrument, cache effectiveness, and live per-job progress (sorted
// like the job list).
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	jobs := s.jobList()
	out := Observation{
		Metrics: obs.Default().Snapshot(),
		Jobs:    make([]JobObservation, len(jobs)),
	}
	st := s.cache.Stats()
	out.Cache = CacheObservation{Stats: st}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		out.Cache.HitRate = float64(st.Hits) / float64(lookups)
	}
	for i, j := range jobs {
		out.Jobs[i] = j.observation(now)
	}
	sortStatuses(out.Jobs, func(o JobObservation) string { return o.ID })
	writeJSON(w, http.StatusOK, out)
}

// registerPprof wires the net/http/pprof handlers onto mux — explicit
// registration, not the package's DefaultServeMux side effect, so
// profiling stays opt-in behind the -pprof flag.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
