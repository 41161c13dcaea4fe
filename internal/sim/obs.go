package sim

// Engine observability: the replica core accumulates plain local tallies
// while it steps (no atomics, no locks, no interface calls — the hot
// path's overhead contract) and flushes them into the shared obs.Default
// registry once per completed scenario, through a counter shard picked at
// construction so concurrent sweep workers never contend on a cache
// line. Tracing rides the same philosophy: every emission site hides
// behind a nil *obs.Trace check, so an untraced run pays one predictable
// branch per site.

import (
	"math/bits"

	"otisnet/internal/obs"
)

// qDepthBuckets is the number of queue-depth histogram buckets: bounds
// 1, 2, 4, ..., 1024 plus the overflow bucket. Power-of-two edges make
// the hot-path bucket index a bits.Len, not a search.
const qDepthBuckets = 12

// engineObs is the engine metric family, registered at package init so
// /metrics exposes the families before the first scenario runs.
var engineObs = struct {
	scenarios   *obs.Counter
	slots       *obs.Counter
	injected    *obs.Counter
	delivered   *obs.Counter
	dropped     *obs.Counter
	deflections *obs.Counter
	activeNodes *obs.Counter
	touched     *obs.Counter
	queueDepth  *obs.Histogram
	batchRuns   *obs.Counter
	batchSize   *obs.Histogram
}{
	scenarios: obs.Default().Counter("netsim_engine_scenarios_total",
		"Completed engine scenarios (Engine.Run and retired ReplicaSet replicas)."),
	slots: obs.Default().Counter("netsim_engine_slots_total",
		"Simulated slots across completed scenarios."),
	injected: obs.Default().Counter("netsim_engine_messages_injected_total",
		"Messages injected across completed scenarios."),
	delivered: obs.Default().Counter("netsim_engine_messages_delivered_total",
		"Messages delivered across completed scenarios."),
	dropped: obs.Default().Counter("netsim_engine_messages_dropped_total",
		"Messages dropped (queue cap, unroutable, faults) across completed scenarios."),
	deflections: obs.Default().Counter("netsim_engine_deflections_total",
		"Hot-potato deflections across completed scenarios."),
	activeNodes: obs.Default().Counter("netsim_engine_active_node_slots_total",
		"Sum over slots of nodes with queued traffic; divide by netsim_engine_slots_total for mean active-node occupancy."),
	touched: obs.Default().Counter("netsim_engine_touched_coupler_slots_total",
		"Sum over slots of couplers that carried a transmission; divide by netsim_engine_slots_total for mean touched-coupler occupancy."),
	queueDepth: obs.Default().Histogram("netsim_engine_queue_depth",
		"Queue length observed at each enqueue, across completed scenarios.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
	batchRuns: obs.Default().Counter("netsim_engine_batch_runs_total",
		"ReplicaSet.RunAll batch executions."),
	batchSize: obs.Default().Histogram("netsim_engine_batch_replicas",
		"Replicas configured per ReplicaSet batch (per-replica batch utilization).",
		[]float64{1, 2, 4, 8, 16, 32}),
}

// obsState is the replica's embedded local tally block. Everything here
// is plain memory written by exactly one goroutine; flush pushes it into
// the sharded registry counters and re-zeros it.
type obsState struct {
	shard      int // counter shard hint, picked once at construction
	activeSum  int64
	touchedSum int64
	qDepth     [qDepthBuckets]int64
	qDepthSum  int64
}

// qDepthBucket maps an observed queue length (>= 1) onto its histogram
// bucket: bits.Len(d-1) lands d in the first power-of-two edge >= d.
func qDepthBucket(d int) int {
	i := bits.Len(uint(d - 1))
	if i >= qDepthBuckets {
		i = qDepthBuckets - 1
	}
	return i
}

// flushObs publishes the scenario's tallies into the registry — a dozen
// sharded atomic adds once per scenario, nothing per slot — and re-zeros
// the local block for the next scenario. Called when a run completes
// (Engine.Run, ReplicaSet retirement); manually stepped engines
// accumulate until their next completed run.
func (e *replica) flushObs() {
	sh := e.obs.shard
	engineObs.scenarios.AddShard(sh, 1)
	engineObs.slots.AddShard(sh, int64(e.slot))
	engineObs.injected.AddShard(sh, int64(e.metrics.Injected))
	engineObs.delivered.AddShard(sh, int64(e.metrics.Delivered))
	engineObs.dropped.AddShard(sh, int64(e.metrics.Dropped))
	engineObs.deflections.AddShard(sh, int64(e.metrics.Deflections))
	engineObs.activeNodes.AddShard(sh, e.obs.activeSum)
	engineObs.touched.AddShard(sh, e.obs.touchedSum)
	engineObs.queueDepth.AddBuckets(e.obs.qDepth[:], e.obs.qDepthSum)
	e.obs.activeSum, e.obs.touchedSum, e.obs.qDepthSum = 0, 0, 0
	e.obs.qDepth = [qDepthBuckets]int64{}
}

// TraceSlotEvent is the per-slot summary line of an engine trace
// (kind "slot"), emitted after each sampled slot completes. Counters are
// cumulative for the run, so consecutive sampled lines difference into
// per-interval rates.
type TraceSlotEvent struct {
	Kind        string `json:"kind"` // "slot"
	Slot        int    `json:"slot"`
	Backlog     int    `json:"backlog"`
	Active      int    `json:"active"` // nodes with queued traffic
	Injected    int    `json:"injected"`
	Delivered   int    `json:"delivered"`
	Dropped     int    `json:"dropped"`
	Deflections int    `json:"deflections"`
}

// TraceDeliverEvent is one delivery on a sampled slot (kind "deliver"):
// the message identity plus its final hop count and delivery slot,
// enough to replay a delivery timeline offline.
type TraceDeliverEvent struct {
	Kind string `json:"kind"` // "deliver"
	Slot int    `json:"slot"` // delivery slot
	ID   int    `json:"id"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	Born int    `json:"born"`
	Hops int    `json:"hops"`
}

// SetTrace points the engine at an event sink (nil disables tracing).
// On slots where slot % trace.SampleEvery() == 0 the engine emits each
// delivery and a closing per-slot summary. Tracing allocates per event;
// it is a diagnostic mode, not a sweep-scale facility.
func (e *Engine) SetTrace(t *obs.Trace) { e.trace = t }

// traceSampled reports whether the current slot is sampled; called only
// when e.trace != nil.
func (e *replica) traceSampled() bool {
	return e.slot%e.trace.SampleEvery() == 0
}

// emitTraceSlot writes the sampled slot's summary line.
func (e *replica) emitTraceSlot() {
	e.trace.Emit(TraceSlotEvent{
		Kind:        "slot",
		Slot:        e.slot,
		Backlog:     e.backlog,
		Active:      len(e.active),
		Injected:    e.metrics.Injected,
		Delivered:   e.metrics.Delivered,
		Dropped:     e.metrics.Dropped,
		Deflections: e.metrics.Deflections,
	})
}
