package sim

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"otisnet/internal/obs"
)

// Message is an in-flight unicast message.
type Message struct {
	ID   int
	Src  int
	Dst  int
	Born int // injection slot
	Hops int
}

// Config controls a simulation run.
type Config struct {
	// Seed seeds the private RNG (deterministic runs).
	Seed int64
	// MaxQueue caps each node's FIFO; 0 means unbounded. Injections and
	// relays beyond the cap are dropped and counted.
	MaxQueue int
	// Deflection enables hot-potato routing: messages that lose coupler
	// arbitration are deflected onto any free coupler of their node instead
	// of waiting. With deflection, queues only hold locally injected
	// messages awaiting the first transmission.
	Deflection bool
	// Wavelengths is the number of wavelengths per coupler (WDM extension;
	// the paper's networks are single-wavelength). Each coupler carries up
	// to this many simultaneous messages per slot. 0 means 1.
	Wavelengths int
}

// wavelengths returns the effective per-coupler capacity.
func (c Config) wavelengths() int {
	if c.Wavelengths < 1 {
		return 1
	}
	return c.Wavelengths
}

// Canonical returns the configuration that runs exactly as c on a
// topology of coupler fan-in fanIn (FanIn): Wavelengths becomes
// min(max(W, 1), F), and Deflection is off when W >= F. The proof: a node
// makes at most one request per slot, on one of its out-couplers, so a
// coupler never has more than F requests; a window of min(W, F) grants
// therefore grants every request W grants, in the same round-robin order.
// When W >= F every request is granted, no message loses arbitration,
// and deflection, which acts only on losers, never fires. Faults only
// shrink out-lists, so a base topology's F bounds every fault plan on
// it. The engine runs this form, and sweep cache keys hash it, so
// scenarios the model cannot tell apart share one key.
func (c Config) Canonical(fanIn int) Config {
	w := c.wavelengths()
	if w >= fanIn {
		c.Deflection = false
	}
	c.Wavelengths = min(w, max(fanIn, 1))
	return c
}

// Metrics accumulates run statistics.
type Metrics struct {
	Slots        int
	Injected     int
	Delivered    int
	Dropped      int
	Deflections  int
	TotalLatency int // sum over delivered of (deliverySlot - Born)
	TotalHops    int // sum over delivered of hop count
	PeakQueue    int // max FIFO length observed
	Backlog      int // messages still queued at the end

	// Fault metrics (all zero on static topologies). Unroutable and
	// LostToFaults are sub-counts of Dropped, so the conservation invariant
	// Injected == Delivered + Dropped + Backlog is unchanged.
	Unroutable   int // dropped because no route to the destination existed
	LostToFaults int // dropped because their queue's node failed
	Reroutes     int // queued messages whose routing changed under them
	// RecoverySlots sums, over fault events that disturbed queued traffic,
	// the slots from the event until the backlog first returned to its
	// immediate post-event level — a time-to-recover measure of transient
	// disruption. Events nobody was routing through do not start the clock.
	RecoverySlots int
}

// AvgLatency returns mean delivery latency in slots (0 when nothing was
// delivered).
func (m Metrics) AvgLatency() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalLatency) / float64(m.Delivered)
}

// AvgHops returns mean hop count of delivered messages.
func (m Metrics) AvgHops() float64 {
	if m.Delivered == 0 {
		return 0
	}
	return float64(m.TotalHops) / float64(m.Delivered)
}

// Throughput returns delivered messages per slot.
func (m Metrics) Throughput() float64 {
	if m.Slots == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.Slots)
}

// String summarizes the metrics on one line. Fault counters appear only
// when a fault actually disturbed the run, so fault-free output is
// unchanged.
func (m Metrics) String() string {
	s := fmt.Sprintf("slots=%d injected=%d delivered=%d dropped=%d backlog=%d thr=%.3f/slot lat=%.2f hops=%.2f peakQ=%d defl=%d",
		m.Slots, m.Injected, m.Delivered, m.Dropped, m.Backlog,
		m.Throughput(), m.AvgLatency(), m.AvgHops(), m.PeakQueue, m.Deflections)
	if m.Unroutable > 0 || m.LostToFaults > 0 || m.Reroutes > 0 || m.RecoverySlots > 0 {
		s += fmt.Sprintf(" unroutable=%d lost=%d reroutes=%d recovery=%d",
			m.Unroutable, m.LostToFaults, m.Reroutes, m.RecoverySlots)
	}
	return s
}

// Engine simulates a Topology slot by slot: queues, cursors, scratch,
// metrics and the slot clock, stepping over its own snapshot of the
// topology — CSR copies of the out-coupler and head lists, and the route
// blocks the topology lends (RouteBlocks), re-read after every fault
// event. Inside Step there are no Topology interface calls — routing is one
// packed-cell decode from the route plane of the blocks (a cell per row
// class × column class) and one load from the row's dictionary, whose
// route entry's delivers-here bit replaces the per-transmission head-set
// scan; only deflection reads the distance plane, one packed-cell decode
// a distance; and the coupler structure is read from CSR arrays. The two
// planes are kept apart so the one the slot loop reads for every head
// stays small: on SK(4,2,10) the route plane is 4 bits a cell, 1.2 MiB,
// and the distance plane another 4 bits a cell. A node whose head-of-line
// message changes is put on a pending list, and the whole list is resolved
// in one batch at the top of the next step, so the route loads — most of
// them cache misses on a large network — are independent and overlap
// instead of each stalling the transmit chain. Steady-state slot cost is
// O(active nodes + touched couplers), not O(N + M): nodes with queued
// traffic live on an active list, and only couplers that saw a request or
// grant this slot are arbitrated, transmitted and cleared. Every queued
// message lives in one message pool, chained into its node's FIFO, and a
// node's queue, active-list position and head-of-line request share one
// 32-byte record, so a relay relinks a message instead of copying it. The
// hot path is allocation-free once the pool and scratch high-water marks
// are reached, and Reset re-arms the engine for another scenario without
// reallocating any of it.
type Engine struct {
	// OnDeliver, when non-nil, is invoked for every delivered message with
	// its final hop count and the delivery slot. It lets experiments record
	// per-(src,dst) path lengths — e.g. to cross-check the §2.5 fault bound
	// against kautz.RouteAvoiding — without burdening Metrics.
	OnDeliver func(msg Message, slot int)

	// fanIn is the topology's F (FanIn), counted once at construction on
	// the pristine lists: a dynamic topology only masks them, which can
	// only lower it.
	fanIn int

	cfg Config
	// gen is Run's end of the traffic pipeline (pipeline.go), made on
	// the first Run.
	gen *genPipe

	// The topology snapshot. The CSR slots are sized by the pristine lists
	// at construction; the counts follow the live lists (sync). The block
	// fields alias the arrays of the lent RouteBlocks, held as local slice
	// headers so the hot path stays one indirection flat.
	n, m      int
	outStart  []int32 // node u transmits on outList[outStart[u]:outStart[u]+outCount[u]]
	outCount  []int32
	outList   []int32
	headStart []int32 // coupler c is heard by headList[headStart[c]:headStart[c]+headCount[c]]
	headCount []int32
	headList  []int32
	rowOf     []int32 // node -> row class of the blocks (source side)
	colOf     []int32 // node -> column class of the blocks (destination side)
	cols      int
	shift     uint         // route cells are 1<<shift bits wide
	mask      uint64       // cellMask(shift)
	cells     []uint64     // the route plane: (u, dst) is cell rowOf[u]*cols+colOf[dst]
	base      []int32      // row class r's dictionary starts at dict[base[r]]
	dict      []RouteEntry // the route dictionaries
	dshift    uint         // distance cells are 1<<dshift bits wide
	dmask     uint64       // cellMask(dshift), the unreachable value
	dists     []uint64     // the distance plane, indexed as the route plane

	// nodes holds each node's queue, active-list position and head-of-line
	// request (nodeRec); the queues chain slots of pool, whose free slots
	// chain from free (-1 when none is free).
	nodes []nodeRec
	pool  []qmsg
	free  int32
	// rr holds per-coupler round-robin grant cursors for fairness.
	rr      []int32
	nextID  int
	slot    int
	backlog int // queued messages, tracked incrementally

	// active lists the nodes with a non-empty queue; nodes[u].pos is u's
	// index in it (-1 when idle). Order is arbitrary — every order-sensitive
	// consumer sorts its own working set — so activation and deactivation
	// are O(1) swap-removes. pend lists the head-of-line requests to
	// recompute at the top of the next step (nodeRec).
	active []int32
	pend   []pendHead

	metrics Metrics

	// Reusable per-step scratch; only the entries touched this slot are
	// cleared, so an idle network steps in near-O(1). touched is a bitmap
	// of couplers with requests or grants this slot. Scanning its words
	// visits touched couplers in ascending id order — the order
	// transmission must happen in — for O(M/64 + touched) per slot,
	// cheaper than keeping a sorted list.
	touched []uint64
	winners []bool // node -> won arbitration this slot
	// reqMask is the deflection counterpart of touched: a bitmap of nodes
	// that requested this slot, scanned in word order so losers deflect in
	// ascending node id order without sorting. Maintained only when
	// deflection is on.
	reqMask []uint64
	// Grant windows: touched coupler c holds its grants in
	// grantSlot[c*w : c*w+w], sorted by their keys in bestKey — the
	// round-robin key for an arbitration grant, deflectKey for a
	// deflection grant, which so sorts after every arbitration grant —
	// and followed by emptyKey entries. A window is valid only while c's
	// touched bit is set, so it is never cleared. fold sizes the windows
	// from the scenario's w and only ever grows them.
	w         int // window width: the canonical wavelength count, min(W, F)
	bestKey   []int32
	grantSlot []txRequest
	// defl is the canonical Deflection: off when w covers the fan-in, as
	// no request can then lose arbitration (Config.Canonical).
	defl bool

	// dyn is non-nil when the topology injects fault/repair events; the
	// engine polls it for changes at the top of every step. An event marks
	// the snapshot dirty, so Reset only re-syncs it when something changed.
	dyn   DynamicTopology
	dirty bool
	// Recovery tracking: while recovering, backlog has not yet returned to
	// recoverBaseline (its level right after the disrupting event).
	recovering      bool
	recoverStart    int
	recoverBaseline int

	// obs holds the scenario's local observability tallies (plain memory,
	// single writer), flushed into the shared registry once per completed
	// run; see obs.go for the overhead contract.
	obs obsState
	// trace, when non-nil, receives sampled per-slot NDJSON events;
	// traceSlot caches "this slot is sampled" so hot emission sites test
	// one bool. Both stay nil/false in normal (untraced) runs.
	trace     *obs.Trace
	traceSlot bool
}

// NewEngine snapshots the topology and prepares a simulation over it. A
// topology that also implements DynamicTopology (e.g.
// faults.FaultedTopology) is reset to its pre-event state first, so the
// CSR slots fit its pristine lists, and polled for fault events every
// Step.
func NewEngine(topo Topology, cfg Config) *Engine {
	n, m := topo.Nodes(), topo.Couplers()
	e := &Engine{
		n:         n,
		m:         m,
		outStart:  make([]int32, n+1),
		outCount:  make([]int32, n),
		headStart: make([]int32, m+1),
		headCount: make([]int32, m),
		nodes:     make([]nodeRec, n),
		rr:        make([]int32, m),
		touched:   make([]uint64, (m+63)/64),
		winners:   make([]bool, n),
		reqMask:   make([]uint64, (n+63)/64),
	}
	e.obs.shard = obs.NextShard()
	if e.dyn, _ = topo.(DynamicTopology); e.dyn != nil {
		e.dyn.Reset()
	}
	for u := 0; u < n; u++ {
		e.outStart[u+1] = e.outStart[u] + int32(len(topo.OutCouplers(u)))
	}
	for c := 0; c < m; c++ {
		e.headStart[c+1] = e.headStart[c] + int32(len(topo.Heads(c)))
	}
	e.outList = make([]int32, e.outStart[n])
	e.headList = make([]int32, e.headStart[m])
	e.fanIn = FanIn(topo)
	e.sync(topo)
	e.Reset(cfg)
	return e
}

// sync copies the topology's current out-coupler and head lists into the
// CSR slots and points the block fields at the blocks it lends now.
// Called at construction and again after every topology change; between
// changes Step reads only the snapshot. A dynamic topology only masks its
// pristine lists (DynamicTopology), so every list fits its slot.
func (e *Engine) sync(t Topology) {
	for u := 0; u < e.n; u++ {
		copyList(e.outList[e.outStart[u]:e.outStart[u+1]], &e.outCount[u], t.OutCouplers(u), "out-list of node", u)
	}
	for c := 0; c < e.m; c++ {
		copyList(e.headList[e.headStart[c]:e.headStart[c+1]], &e.headCount[c], t.Heads(c), "head-list of coupler", c)
	}
	b := t.RouteBlocks()
	e.rowOf, e.colOf, e.cols = b.Row, b.Col, b.Cols
	e.shift, e.mask, e.cells, e.base, e.dict = b.Shift, cellMask(b.Shift), b.Cells, b.Base, b.Dict
	e.dshift, e.dmask, e.dists = b.DistShift, cellMask(b.DistShift), b.Dists
}

// copyList copies list into its CSR slot and sets its count, panicking
// when a dynamic topology grew the list past its pristine length.
func copyList(slot []int32, count *int32, list []int, what string, i int) {
	if len(list) > len(slot) {
		panic(fmt.Sprintf("sim: dynamic topology grew the %s %d to %d entries, past its pristine %d: a DynamicTopology may only mask its pristine lists",
			what, i, len(list), len(slot)))
	}
	for k, x := range list {
		slot[k] = int32(x)
	}
	*count = int32(len(list))
}

// Reset re-arms the engine for a fresh scenario under cfg: queues,
// cursors, metrics and the slot clock return to their initial state while
// every buffer (the message pool, truncated to empty, scratch, topology
// snapshot) keeps its capacity, so repeated scenarios on one engine
// allocate nothing. A run after Reset is bit-for-bit identical to a run on
// a newly constructed engine. Dynamic topologies are rewound to their
// pre-event state.
func (e *Engine) Reset(cfg Config) {
	e.cfg = cfg
	for i := range e.nodes {
		e.nodes[i] = nodeRec{pos: -1}
	}
	e.pool, e.free = e.pool[:0], -1
	for i := range e.rr {
		e.rr[i] = 0
	}
	for i := range e.winners {
		e.winners[i] = false
	}
	e.active = e.active[:0]
	// step leaves the touched bitmap zero; clearing it here is defense
	// against a hypothetical aborted slot, not a per-scenario cost that
	// matters.
	for i := range e.touched {
		e.touched[i] = 0
	}
	for i := range e.reqMask {
		e.reqMask[i] = 0
	}
	e.pend = e.pend[:0]
	e.nextID, e.slot, e.backlog = 0, 0, 0
	e.metrics = Metrics{}
	e.recovering = false
	// Discard unflushed tallies from an abandoned manual-stepping session;
	// completed runs flush (and re-zero) them before the next reset.
	e.obs.activeSum, e.obs.touchedSum, e.obs.qDepthSum, e.obs.genWaitNs = 0, 0, 0, 0
	e.obs.qDepth = [qDepthBuckets]int64{}
	e.traceSlot = false
	if e.dyn != nil {
		e.dyn.Reset()
		if e.dirty {
			e.sync(e.dyn)
			e.dirty = false
		}
	}
	e.fold()
}

// fold applies the fan-in rule (Config.Canonical) to the scenario's
// configuration: the grant windows are min(W, F) wide, and Phases 2 and 3
// run only while a request can lose arbitration.
func (e *Engine) fold() {
	run := e.cfg.Canonical(e.fanIn)
	e.w, e.defl = run.Wavelengths, run.Deflection
	if need := e.m * e.w; len(e.grantSlot) < need {
		e.bestKey = make([]int32, need)
		e.grantSlot = make([]txRequest, need)
	}
}

// Metrics returns a snapshot of the accumulated metrics, with Backlog and
// Slots refreshed. Backlog is tracked incrementally, so this is O(1). A
// recovery still in progress contributes its elapsed slots.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.Slots = e.slot
	m.Backlog = e.backlog
	if e.recovering {
		m.RecoverySlots += e.slot - e.recoverStart
	}
	return m
}

// Backlog returns the number of currently queued messages, O(1). Drain
// loops test it directly instead of materializing a Metrics copy per slot.
func (e *Engine) Backlog() int { return e.backlog }

// Inject enqueues a message at its source, honoring MaxQueue.
func (e *Engine) Inject(src, dst int) {
	if src == dst {
		return
	}
	e.metrics.Injected++
	if !e.drops(src) {
		i := e.alloc()
		m := &e.pool[i]
		m.id, m.src, m.dst, m.born, m.hops = int32(e.nextID), int32(src), int32(dst), int32(e.slot), 0
		e.link(src, i)
	}
	e.nextID++
}

// pendHead is a deferred head-of-line resolution: node's head message
// changed, and dst is the new head's destination. at is scratch of
// resolveHeads: the position of the (node, dst) cell's entry in the
// route dictionaries.
type pendHead struct {
	node, dst, at int32
}

// deferHead queues node's head-of-line request for resolveHeads.
func (e *Engine) deferHead(node int, dst int32) {
	e.pend = append(e.pend, pendHead{node: int32(node), dst: dst})
}

// resolveHeads computes every pending head-of-line request in two tight
// loops: the first decodes each entry's route cell into its dictionary
// position, the second loads the route entries. Within each loop the
// loads do not depend on each other, so their cache misses overlap. Only
// the route plane is read, which on SK(4,2,10) is 1152 KiB of 4-bit cells
// and 60 KiB of dictionaries: it stays in a 2 MiB L2 next to the node
// records, where cells that carried distances too would not.
// Entries are in the order the heads changed, so a node listed twice ends
// with its latest head; nodes that went idle since are skipped. The
// tables are held in locals: the stores would otherwise make the compiler
// reload every slice header per entry.
func (e *Engine) resolveHeads() {
	pend := e.pend
	rowOf, colOf, cols := e.rowOf, e.colOf, e.cols
	shift, mask, cells, base := e.shift, e.mask, e.cells, e.base
	for i := range pend {
		p := &pend[i]
		r := int(rowOf[p.node])
		p.at = base[r] + int32(unpack(cells, shift, mask, r*cols+int(colOf[p.dst])))
	}
	nodes, dict := e.nodes, e.dict
	for _, p := range pend {
		if q := &nodes[p.node]; q.pos >= 0 {
			q.req = headRequest(p.node, dict[p.at])
		}
	}
	e.pend = pend[:0]
}

// routeOf returns the route entry of the (u, dst) cell, u != dst. A
// delivering entry's next hop is not meaningful; transmit never reads it.
func (e *Engine) routeOf(u, dst int) RouteEntry {
	r := int(e.rowOf[u])
	return e.dict[int(e.base[r])+unpack(e.cells, e.shift, e.mask, r*e.cols+int(e.colOf[dst]))]
}

// distOf returns the hop distance from u to dst, u != dst, read from the
// distance plane: digraph.Unreachable when there is no path.
func (e *Engine) distOf(u, dst int) int32 {
	return hops(e.dists, e.dshift, e.dmask, int(e.rowOf[u])*e.cols+int(e.colOf[dst]))
}

// computeHeadReq refreshes node's precompiled head-of-line request from
// the route blocks; dst is the head message's destination.
func (e *Engine) computeHeadReq(node int, dst int32) {
	e.nodes[node].req = headRequest(int32(node), e.routeOf(node, int(dst)))
}

// headRequest is node's request for a head message whose route entry is r.
func headRequest(node int32, r RouteEntry) txRequest {
	if r.c < 0 {
		return txRequest{node: node, coupler: -1}
	}
	return txRequest{node: node, coupler: r.c &^ deliverFlag, nextHop: r.h, delivers: r.c&deliverFlag != 0}
}

// Step advances the simulation by one slot: head-of-line resolution, fault
// events, then the slot kernel (arbitrateAndTransmit), which serves every
// wavelength count W. No Topology interface calls and no allocations
// happen here in steady state; per-slot work is proportional to the active
// nodes and touched couplers (plus an O(M/64 + N/64) bitmap-word scan), not
// to N or M.
func (e *Engine) Step() {
	// Heads changed by the last slot's transmissions and by the injections
	// since are resolved first, against the tables those changes saw: fault
	// events only replace the tables in Phase 0, below.
	e.resolveHeads()
	// Phase 0: apply fault/repair events scheduled for this slot, purging
	// queues stranded on failed nodes and counting re-routed messages.
	if e.dyn != nil {
		if ch := e.dyn.Advance(e.slot); ch.Changed {
			e.applyTopologyChange(ch)
		}
	}
	// Active-node occupancy tally (one add on local memory per slot) and
	// the sampled-slot trace gate (false for the life of untraced runs).
	e.obs.activeSum += int64(len(e.active))
	if e.trace != nil {
		e.traceSlot = e.traceSampled()
	}

	e.arbitrateAndTransmit()

	if e.traceSlot {
		e.emitTraceSlot()
	}
	e.slot++
	if e.recovering && e.backlog <= e.recoverBaseline {
		e.metrics.RecoverySlots += e.slot - e.recoverStart
		e.recovering = false
	}
}

// arbitrateAndTransmit is the slot kernel. Each coupler grants up to W
// senders per slot by round-robin over node ids, so no node starves. Phase
// 1 folds the arbitration into the request scan: a touched coupler c keeps
// its grants in its window, sorted by round-robin key, so the window holds
// the W smallest keys — the argmin at W = 1, sort-then-take-W above it —
// and no request or candidate list is built. Keys are distinct because a
// node makes at most one request per slot.
func (e *Engine) arbitrateAndTransmit() {
	// Phase 1: requests, each inserted into its coupler's window. The
	// active list replaces the full O(N) queue scan; its order is
	// irrelevant because the windows and every later phase order their own
	// work.
	n32 := int32(e.n)
	w := e.w
	defl := e.defl
	bestKey, grantSlot := e.bestKey, e.grantSlot
	for i := 0; i < len(e.active); {
		u := int(e.active[i])
		r := e.nodes[u].req
		if r.coupler < 0 {
			// Unroutable: on the static, strongly connected topologies this
			// cannot happen; under faults it means the destination (or the
			// queue's own node) is cut off. Count-drop. The drop may
			// swap-remove u from the active slot we are standing on, in
			// which case the moved node is processed at the same index.
			e.dropFront(u)
			e.metrics.Dropped++
			e.metrics.Unroutable++
			if e.nodes[u].pos >= 0 {
				i++
			}
			continue
		}
		i++
		if defl {
			e.reqMask[u>>6] |= 1 << (u & 63)
		}
		c := r.coupler
		// Round-robin key of node u on coupler c: (u - cursor) mod n via a
		// conditional add (both operands are in [0, n)).
		key := int32(u) - e.rr[c]
		if key < 0 {
			key += n32
		}
		base := int(c) * w
		if wIdx, bit := c>>6, uint64(1)<<(c&63); e.touched[wIdx]&bit == 0 {
			e.touched[wIdx] |= bit
			e.openWindow(base, key, r)
			continue
		}
		if key > bestKey[base+w-1] {
			continue // loses to every grant of a full window
		}
		// The new key takes the last entry, empty or the worst grant, and
		// moves up past every larger key.
		j := base + w - 1
		for ; j > base && bestKey[j-1] > key; j-- {
			bestKey[j], grantSlot[j] = bestKey[j-1], grantSlot[j-1]
		}
		bestKey[j], grantSlot[j] = key, r
	}

	// Phase 2 + 3 (deflection only, and only while w < F: at w >= F every
	// request is granted, so no loser exists). Without them the winners
	// set is never read — every arbitration outcome already sits in the
	// windows — so both the winner-marking scan and its cleanup are
	// skipped and the round-robin cursors advance in Phase 4 instead (they
	// are not read again until the next slot).
	if defl {
		// Finalize the winners and advance each cursor past its window's
		// last grant (the cursors must stay fixed while keys are being
		// computed above, and only request-carrying couplers move them —
		// deflection grants below do not).
		for wi, word := range e.touched {
			for word != 0 {
				c := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				grants := grantSlot[c*w : c*w+e.windowLen(c*w)]
				for _, r := range grants {
					e.winners[r.node] = true
				}
				e.rr[c] = rrNext(grants[len(grants)-1].node, n32)
			}
		}

		// Losers grab any coupler of their node whose window holds fewer
		// than W grants, appending after them; the message is deflected
		// toward the head node closest to its destination. Losers act in
		// ascending node id order — the order the legacy full-scan engine
		// implied — which the requested-node bitmap scan yields directly;
		// its words are consumed (zeroed) as the scan goes.
		for wi := range e.reqMask {
			word := e.reqMask[wi]
			if word == 0 {
				continue
			}
			e.reqMask[wi] = 0
			for word != 0 {
				u := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if e.winners[u] {
					continue
				}
				dst := int(e.front(u).dst)
				ob, oc := e.outStart[u], e.outCount[u]
				for oi := ob; oi < ob+oc; oi++ {
					c := int(e.outList[oi])
					wIdx, bit := c>>6, uint64(1)<<(c&63)
					touched := e.touched[wIdx]&bit != 0
					g := 0
					if touched {
						if g = e.windowLen(c * w); g == w {
							continue // full window
						}
					}
					bestHop, delivers := e.deflectTarget(c, dst)
					if bestHop < 0 {
						continue
					}
					r := txRequest{node: int32(u), coupler: int32(c), nextHop: bestHop, delivers: delivers}
					if touched {
						bestKey[c*w+g], grantSlot[c*w+g] = deflectKey, r // partly filled window
					} else {
						e.touched[wIdx] |= bit
						e.openWindow(c*w, deflectKey, r)
					}
					e.winners[u] = true
					e.metrics.Deflections++
					break
				}
			}
		}
	}

	// Phase 4: transmissions in ascending coupler order, each window in
	// grant order — the bitmap word scan yields exactly that order, so
	// deliveries and relays interleave as a full coupler scan would. The
	// precompiled delivers-here bit replaces the per-transmission head-set
	// scan. With deflection the winners set is cleared as its grants are
	// consumed; without it the round-robin cursors advance here (every
	// grant is then an arbitration grant).
	for wi := range e.touched {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		e.touched[wi] = 0
		e.obs.touchedSum += int64(bits.OnesCount64(word))
		for word != 0 {
			c := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			grants := grantSlot[c*w : c*w+e.windowLen(c*w)]
			if !defl {
				e.rr[c] = rrNext(grants[len(grants)-1].node, n32)
			}
			for _, r := range grants {
				if defl {
					e.winners[r.node] = false
				}
				e.transmit(r)
			}
		}
	}
}

// Window keys beyond the round-robin keys, which lie in [0, n): a
// deflection grant sorts after every arbitration grant, and an empty entry
// after every grant.
const (
	deflectKey = math.MaxInt32 - 1
	emptyKey   = math.MaxInt32
)

// openWindow starts the window at base with the one grant r under key.
func (e *Engine) openWindow(base int, key int32, r txRequest) {
	e.bestKey[base], e.grantSlot[base] = key, r
	for k := base + 1; k < base+e.w; k++ {
		e.bestKey[k] = emptyKey
	}
}

// windowLen returns the number of grants in the open window at base.
func (e *Engine) windowLen(base int) int {
	g := 1
	for g < e.w && e.bestKey[base+g] != emptyKey {
		g++
	}
	return g
}

// deflectTarget scans coupler c's compiled head set for the live head
// closest to dst (the deflection target), reporting whether dst itself
// hears the coupler. bestHop is -1 when no head has a live path to dst.
// Each head's distance is one load from the distance plane, the only
// place the slot loop reads it.
func (e *Engine) deflectTarget(c, dst int) (bestHop int32, delivers bool) {
	bestHop, bestDist := int32(-1), int32(1<<30)
	hb, hc := e.headStart[c], e.headCount[c]
	for hi := hb; hi < hb+hc; hi++ {
		h := e.headList[hi]
		d := int32(0)
		if int(h) == dst {
			delivers = true
		} else {
			d = e.distOf(int(h), dst)
		}
		if d >= 0 && d < bestDist {
			bestDist = d
			bestHop = h
		}
	}
	return bestHop, delivers
}

// transmit executes one granted transmission: the sender takes its
// head-of-line message off its queue; the message is delivered if the
// destination hears the coupler (the precompiled delivers bit) and
// relinked onto the chosen next hop's queue otherwise.
func (e *Engine) transmit(r txRequest) {
	src := int(r.node)
	msg := e.front(src)
	if r.delivers {
		// Read the delivered message in place; nothing is copied.
		hops := int(msg.hops) + 1
		e.metrics.Delivered++
		e.metrics.TotalLatency += e.slot + 1 - int(msg.born)
		e.metrics.TotalHops += hops
		if e.OnDeliver != nil {
			e.OnDeliver(Message{
				ID: int(msg.id), Src: int(msg.src), Dst: int(msg.dst),
				Born: int(msg.born), Hops: hops,
			}, e.slot+1)
		}
		if e.traceSlot {
			e.trace.Emit(TraceDeliverEvent{
				Kind: "deliver", Slot: e.slot + 1,
				ID: int(msg.id), Src: int(msg.src), Dst: int(msg.dst),
				Born: int(msg.born), Hops: hops,
			})
		}
		e.dropFront(src)
	} else {
		// Unlinking first mirrors the legacy dequeue-then-enqueue order:
		// it matters when a deflection relays a message back onto its own
		// bounded queue, which the unlink has just made room in.
		i := e.unlink(src)
		if next := int(r.nextHop); e.drops(next) {
			e.release(i)
		} else {
			msg.hops++
			e.link(next, i)
		}
	}
}

// applyTopologyChange reacts to a fault/repair batch: queues at nodes that
// just failed are purged (LostToFaults), the CSR lists and the route
// blocks are re-read from the topology (sync), and surviving
// queued messages whose routing decision changed to another live path are
// counted as Reroutes — with table routing they silently follow the new
// path at their next transmission (messages left without any route are not
// reroutes; they surface as Unroutable when they reach the head of their
// queue).
func (e *Engine) applyTopologyChange(ch TopologyChange) {
	e.dirty = true
	disrupted := false
	for _, u := range ch.FailedNodes {
		for e.nodes[u].n > 0 {
			e.dropFront(u)
			e.metrics.Dropped++
			e.metrics.LostToFaults++
			disrupted = true
		}
	}
	e.sync(e.dyn)
	// Refresh every active head-of-line request, immediately: the pending
	// list was resolved at the top of the step against the pre-event
	// blocks, and the new blocks may number their classes differently, so
	// even a cell whose per-node entry did not change may name another
	// representative head.
	for _, ui := range e.active {
		u := int(ui)
		e.computeHeadReq(u, e.front(u).dst)
	}
	if ch.EntryChanged != nil {
		// Only active nodes hold queued messages; order does not matter for
		// counting.
		for _, ui := range e.active {
			u := int(ui)
			for i := e.nodes[u].head; i >= 0; i = e.pool[i].next {
				dst := int(e.pool[i].dst)
				if !ch.EntryChanged(u, dst) {
					continue
				}
				disrupted = true
				if e.routeOf(u, dst).c >= 0 {
					e.metrics.Reroutes++
				}
			}
		}
	}
	// Start (or re-baseline) the time-to-recover clock, but only when the
	// batch actually disturbed queued traffic: repairs on an idle network
	// (or events nobody was routing through) are not disruptions. Recovery
	// completes when the backlog next returns to its post-purge level.
	if !disrupted {
		return
	}
	if !e.recovering {
		e.recovering = true
		e.recoverStart = e.slot
	}
	e.recoverBaseline = e.backlog
}

// Run resets the engine with cfg and executes a full scenario on it:
// `slots` slots of traffic generation plus up to `drain` extra slots to
// let queues empty, returning the metrics. The traffic is drawn on a
// producer goroutine from an RNG seeded with cfg.Seed, ahead of the slots
// this goroutine steps (pipeline.go); uniform traffic (UniformRater) is
// drawn through a UniformStream, which continues the RNG exactly where
// Generate would. All scratch lives on the engine and the parked
// producers, so a warmed engine runs whole scenarios without allocating;
// results are bit-for-bit identical to sim.Run on a fresh engine. A
// traffic that implements io.Closer (a trace replay holding its file) is
// closed once its last slot is drawn. A panic in traffic.Generate is
// raised again here with its original value.
func (e *Engine) Run(traffic Traffic, slots, drain int, cfg Config) Metrics {
	e.Reset(cfg)
	if slots > 0 {
		e.generate(traffic, slots, cfg.Seed)
	}
	if c, ok := traffic.(io.Closer); ok {
		c.Close() // generators only read: a close error loses nothing
	}
	for s := 0; s < drain && e.backlog > 0; s++ {
		e.Step()
	}
	m := e.Metrics()
	e.flushObs()
	return m
}

// txRequest is one node's wish to drive one coupler toward one next hop.
// delivers carries the precompiled delivers-here bit so Phase 4 never
// scans a head set.
type txRequest struct {
	node     int32
	coupler  int32
	nextHop  int32
	delivers bool
}

// rrNext advances a round-robin cursor past the granted node: (node+1)
// mod n without the divide (node is always in [0, n)).
func rrNext(node, n int32) int32 {
	if node+1 == n {
		return 0
	}
	return node + 1
}

// Run executes a full simulation over a freshly constructed engine. Callers
// running many scenarios over one topology should construct the engine
// once and call Engine.Run per scenario instead (see internal/sweep).
func Run(topo Topology, traffic Traffic, slots, drain int, cfg Config) Metrics {
	return NewEngine(topo, cfg).Run(traffic, slots, drain, cfg)
}
