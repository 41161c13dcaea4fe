package coordinator

// Coordinator observability: lease-protocol and job-lifecycle counters in
// the shared obs.Default registry, registered at package init so
// `netsim serve` exposes the families on /metrics before the first job
// arrives. All increments happen on cold control-plane paths (lease
// calls), so the unsharded Counter.Add is fine. Per-job
// shard progress is not a labeled metric — the registry is label-free by
// design — it is served as JSON through /api/v1/observe instead
// (Job.Progress via the sweep server's job table).

import "otisnet/internal/obs"

var coordObs = struct {
	leasesGranted      *obs.Counter
	leasesExpired      *obs.Counter
	leasesStolen       *obs.Counter
	shardsCompleted    *obs.Counter
	completionsStale   *obs.Counter
	completionsInvalid *obs.Counter
	jobsSubmitted      *obs.Counter
	jobsCompleted      *obs.Counter
	jobsFailed         *obs.Counter
	jobsCanceled       *obs.Counter
	leasesOutstanding  *obs.Gauge
	workersLive        *obs.Gauge
	jobsRunning        *obs.Gauge
}{
	leasesGranted: obs.Default().Counter("netsim_coord_leases_granted_total",
		"Shard leases handed to workers (including steals)."),
	leasesExpired: obs.Default().Counter("netsim_coord_leases_expired_total",
		"Leases that died unrenewed past their deadline; their shards were re-leased at a higher epoch."),
	leasesStolen: obs.Default().Counter("netsim_coord_leases_stolen_total",
		"Duplicate leases granted on straggler shards to idle workers (first valid completion wins)."),
	shardsCompleted: obs.Default().Counter("netsim_coord_shards_completed_total",
		"Shard completions accepted and recorded."),
	completionsStale: obs.Default().Counter("netsim_coord_completions_stale_total",
		"Completions rejected because their lease was expired, superseded or canceled, or their job had ended or was never submitted."),
	completionsInvalid: obs.Default().Counter("netsim_coord_completions_invalid_total",
		"Completions rejected because the rows did not describe the leased shard."),
	jobsSubmitted: obs.Default().Counter("netsim_coord_jobs_submitted_total",
		"Jobs registered with a coordinator."),
	jobsCompleted: obs.Default().Counter("netsim_coord_jobs_completed_total",
		"Jobs whose shards all completed and merged cleanly."),
	jobsFailed: obs.Default().Counter("netsim_coord_jobs_failed_total",
		"Jobs that failed at merge (conflicting or mismatched shard rows)."),
	jobsCanceled: obs.Default().Counter("netsim_coord_jobs_canceled_total",
		"Jobs canceled before completion."),
	leasesOutstanding: obs.Default().Gauge("netsim_coord_leases_outstanding",
		"Live leases currently held by workers."),
	workersLive: obs.Default().Gauge("netsim_coord_workers_live",
		"Workers seen within the last three lease TTLs by the coordinator serving the lease endpoints."),
	jobsRunning: obs.Default().Gauge("netsim_coord_jobs_running",
		"Jobs currently executing."),
}
