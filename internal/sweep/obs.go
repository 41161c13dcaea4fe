package sweep

// Sweep observability: per-point counters feeding the
// shared obs.Default registry. Each worker goroutine takes one counter
// shard at construction (obs.NextShard) so a saturated pool increments
// private cache lines; aggregation happens only when the registry is
// read. Busy time is wall clock spent inside engine execution — cache
// hits and dispatch bookkeeping are excluded — so
// busy_ns / (elapsed * workers) approximates pool utilization.

import "otisnet/internal/obs"

// sweepObs is the sweep metric family, registered at package init so
// /metrics exposes the families before the first grid runs.
var sweepObs = struct {
	started   *obs.Counter
	completed *obs.Counter
	cached    *obs.Counter
	busyNS    *obs.Counter
}{
	started: obs.Default().Counter("netsim_sweep_points_started_total",
		"Grid points picked up by a sweep worker (computed, cached or skipped)."),
	completed: obs.Default().Counter("netsim_sweep_points_completed_total",
		"Grid points computed by an engine (cache misses run to completion)."),
	cached: obs.Default().Counter("netsim_sweep_points_cached_total",
		"Grid points served from the result cache without touching an engine."),
	busyNS: obs.Default().Counter("netsim_sweep_worker_busy_ns_total",
		"Wall-clock nanoseconds sweep workers spent executing engines."),
}
