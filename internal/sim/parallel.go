package sim

// Intra-slot parallelism: one slot's work is partitioned across P shard
// workers — by coupler range for arbitration/transmission and by node
// range for queue mutation — with a deterministic merge, so a parallel
// step is bit-for-bit identical to the serial step (same Metrics, same
// OnDeliver stream, same queue evolution). The phases per slot:
//
//	A  (parallel, by active-list chunk): read-only request generation.
//	   Each worker peeks the head-of-line message of its share of active
//	   nodes (skipping unroutable heads exactly as the serial phase 1
//	   drops them — the drops are recorded as ops, not applied), and
//	   routes the resulting request, message included, to the outbox of
//	   the worker owning its coupler.
//	B  (parallel, by coupler range): each worker drains its inboxes and
//	   arbitrates its own couplers — argmin by round-robin key for W = 1,
//	   sorted take-W for W > 1. Round-robin keys are distinct per
//	   coupler, so arbitration is independent of inbox drain order.
//	C  (serial, deflection only): losers grab free couplers in ascending
//	   node order. Free-coupler availability is inherently sequential, so
//	   this phase runs on the coordinator; its cost is bounded by the
//	   losers of the slot.
//	D  (parallel, by coupler range): each worker scans its own touched
//	   words in ascending coupler order and converts grants into queue
//	   ops (pop at the sender, push at the next hop) routed to the
//	   worker owning each node, plus shard-local delivery tallies and
//	   buffered OnDeliver events. Without deflection B and D fuse into
//	   one phase.
//	E  (parallel, by node range): each worker applies the ops addressed
//	   to its nodes — phase A drops first, then transmission ops in
//	   source-worker order, which is globally coupler-ascending because
//	   each source owns a contiguous coupler range. Per-node op order
//	   therefore matches the serial phase 4 exactly (MaxQueue drops and
//	   queue-depth tallies included). Changed heads are collected and
//	   resolved in one pass at the end of the phase, as the serial
//	   engine's pending list is at the top of the next step.
//	   Activations/deactivations are recorded locally, not applied.
//	F  (serial): merge shard tallies into Metrics, fix up the active
//	   list (deactivations then activations — no node can activate
//	   before its only pop), and replay buffered OnDeliver events in
//	   worker order, i.e. ascending coupler order.
//
// Workers are persistent goroutines parked on channels between phases
// (no per-slot spawn); a phase cycle is two channel hops per helper.
// Slots whose active-node count is under the engagement threshold step
// serially — both paths produce identical state, so mixing is safe.
// The same crew primitive parallelizes ReplicaSet.StepAll across
// replicas (independent state over one shared snapshot).

import (
	"math/bits"
	"runtime"
	"time"

	"otisnet/internal/obs"
)

// maxParallelShards caps the shard-worker count; beyond this the
// per-slot barrier cost dominates any conceivable per-shard work.
const maxParallelShards = 64

// defaultParallelThreshold is the active-node count below which a
// parallel-armed replica steps serially: under ~a few hundred active
// nodes the phase barriers (a handful of microseconds) cost more than
// the sharded work saves. Tests lower it to force tiny-N slots through
// the parallel path.
const defaultParallelThreshold = 512

// parImbBuckets is the shard-imbalance histogram size: power-of-two
// bounds from 1 µs to ~1 ms plus the overflow bucket.
const parImbBuckets = 12

// parObs is the parallel-path metric family; like every engine family it
// is registered at package init and fed only at scenario flush (see the
// obs.go overhead contract) — per-slot tallies stay in replica-local
// memory.
var parObs = struct {
	shards    *obs.Gauge
	slots     *obs.Counter
	imbalance *obs.Histogram
}{
	shards: obs.Default().Gauge("netsim_sim_parallel_shards",
		"Shard workers of the most recently armed parallel engine (0 until SetParallel enables one)."),
	slots: obs.Default().Counter("netsim_sim_parallel_slots_total",
		"Slots stepped through the sharded parallel path across completed scenarios."),
	imbalance: obs.Default().Histogram("netsim_sim_parallel_imbalance_ns",
		"Per-slot shard imbalance (max minus min shard busy-nanoseconds) on parallel slots, across completed scenarios.",
		[]float64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20}),
}

// parImbBucket maps a per-slot busy-ns imbalance onto its histogram
// bucket (same power-of-two trick as qDepthBucket, in units of 1024 ns).
func parImbBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len(uint(ns-1) >> 10)
	if i >= parImbBuckets {
		i = parImbBuckets - 1
	}
	return i
}

// wReq is a shard-routed transmission request: the precompiled route
// decision plus the peeked head-of-line message. The message rides along
// so the coupler-owner worker never reads another shard's queue — queues
// stay unmutated until phase E, so the peek equals front() at
// transmission time.
type wReq struct {
	q qmsg
	r txRequest
}

// qOp is one queue mutation routed to the owner of its node: a pop of
// the head-of-line message, or a push of a relayed message.
type qOp struct {
	node int32
	push bool
	msg  qmsg // valid when push
}

// aDrop is a phase A unroutable-head drop, deferred to phase E: the
// node's head-of-line message is discarded. Serial phase 1 drops exactly
// one unroutable head per node per slot and the node issues no request
// that slot — the refreshed head waits for the next arbitration round.
type aDrop struct {
	node int32
}

// deliverEvent is one buffered delivery, replayed through onDeliver in
// ascending coupler order during the merge.
type deliverEvent struct {
	q    qmsg
	hops int32
}

// shardTally is one worker's slot-local metric deltas; all of it is
// order-free (sums and maxes), merged serially in phase F.
type shardTally struct {
	delivered    int
	dropped      int
	unroutable   int
	totalLatency int
	totalHops    int
	backlogDelta int
	peakQueue    int
	touchedSum   int64
	qDepth       [qDepthBuckets]int64
	qDepthSum    int64
}

// parShard is one worker's preallocated scratch. Outboxes are indexed by
// destination shard, so every cross-shard handoff is a single-writer
// append in one phase and a read-only drain in the next.
type parShard struct {
	inbox   [][]wReq  // [dst] requests for couplers owned by dst (phase A -> B)
	drops   [][]aDrop // [dst] unroutable-head drops for nodes owned by dst (A -> E)
	ops     [][]qOp   // [dst] queue mutations for nodes owned by dst (D -> E)
	reqMask []uint64  // deflection: nodes of this shard's chunk that requested
	events  []deliverEvent
	reqBuf  []wReq     // W > 1: drained candidates, indexed by byCoupler
	keys    []int      // W > 1: per-worker arbitration sort keys
	acts    []int32    // phase E: nodes that became active
	deacts  []int32    // phase E: nodes that went idle
	pend    []pendHead // phase E: changed heads, resolved at the end of the phase
	t       shardTally
	busyNs  int64
}

// Parallel phase ids; the crew workers dispatch on the current one.
const (
	parPhaseA    = iota // request generation
	parPhaseBD1         // W = 1, no deflection: arbitration fused with transmission
	parPhaseArb1        // W = 1, deflection: arbitration only
	parPhaseTx1         // W = 1, deflection: transmission
	parPhaseBDW         // W > 1, no deflection: fused
	parPhaseArbW        // W > 1, deflection: arbitration only
	parPhaseTxW         // W > 1, deflection: transmission
	parPhaseE           // queue-op application
)

// parState is a replica's parallel machinery: shard ranges, per-shard
// scratch and the worker crew. Created by Engine.SetParallel.
type parState struct {
	e         *replica
	p         int
	threshold int
	phase     int

	nodeRange  []int32 // p+1 boundaries over [0, n), 64-aligned interiors
	coupRange  []int32 // p+1 boundaries over [0, m), 64-aligned interiors
	nodeOwnerW []int8  // node bitmap word -> owning shard
	coupOwnerW []int8  // coupler bitmap word -> owning shard

	shards []parShard
	pgrant []wReq // per-coupler winning grant (W = 1), valid under touched
	// Lazily sized on first use of the feature that needs them:
	pGranted [][]wReq // per-coupler grant lists (W > 1 with deflection)
	preq     []wReq   // per-node peeked request (deflection phase C)
	mask     []uint64 // deflection scratch: OR of shard reqMasks

	crew *crew
}

// crew is a pool of persistent phase workers parked on channels. The
// coordinator goroutine acts as worker 0, so a p-shard crew spawns p-1
// goroutines; cycle is a full barrier (every worker runs fn once).
type crew struct {
	p     int
	fn    func(worker int)
	start []chan struct{}
	done  chan struct{}
}

func newCrew(p int, fn func(worker int)) *crew {
	c := &crew{p: p, fn: fn, start: make([]chan struct{}, p), done: make(chan struct{}, p)}
	for i := 1; i < p; i++ {
		ch := make(chan struct{}, 1)
		c.start[i] = ch
		go func(w int) {
			for range ch {
				fn(w)
				c.done <- struct{}{}
			}
		}(i)
	}
	return c
}

// cycle releases every helper, runs worker 0's share inline and waits
// for all helpers — one phase, one barrier. The channel handoffs give
// the usual happens-before edges: coordinator writes (the phase id)
// are visible to workers, worker writes are visible after the drain.
func (c *crew) cycle() {
	for i := 1; i < c.p; i++ {
		c.start[i] <- struct{}{}
	}
	c.fn(0)
	for i := 1; i < c.p; i++ {
		<-c.done
	}
}

// close releases the helper goroutines; the crew must not be cycled
// afterwards.
func (c *crew) close() {
	for i := 1; i < c.p; i++ {
		close(c.start[i])
	}
}

// shardRanges splits [0, total) into p contiguous ranges, returned as
// p+1 boundaries. Interior boundaries are multiples of 64 so each
// shard's bitmap words are private; trailing shards may be empty when
// p exceeds total/64.
func shardRanges(total, p int) []int32 {
	b := make([]int32, p+1)
	words := (total + 63) / 64
	for i := 1; i < p; i++ {
		b[i] = int32(words * i / p * 64)
		if b[i] > int32(total) {
			b[i] = int32(total)
		}
	}
	b[p] = int32(total)
	return b
}

// ownerWords flattens range boundaries into a bitmap-word -> shard
// lookup (owners are per 64-entry word because boundaries are aligned).
func ownerWords(b []int32, total int) []int8 {
	words := (total + 63) / 64
	ow := make([]int8, words)
	w := 0
	for i := 0; i < words; i++ {
		for w < len(b)-2 && int32(i<<6) >= b[w+1] {
			w++
		}
		ow[i] = int8(w)
	}
	return ow
}

func newParState(e *replica, p int) *parState {
	ps := &parState{e: e, p: p, threshold: defaultParallelThreshold}
	ps.nodeRange = shardRanges(e.n, p)
	ps.coupRange = shardRanges(e.m, p)
	ps.nodeOwnerW = ownerWords(ps.nodeRange, e.n)
	ps.coupOwnerW = ownerWords(ps.coupRange, e.m)
	ps.pgrant = make([]wReq, e.m)
	ps.shards = make([]parShard, p)
	nw := (e.n + 63) / 64
	for w := range ps.shards {
		sh := &ps.shards[w]
		sh.inbox = make([][]wReq, p)
		sh.drops = make([][]aDrop, p)
		sh.ops = make([][]qOp, p)
		sh.reqMask = make([]uint64, nw)
	}
	ps.crew = newCrew(p, ps.dispatch)
	return ps
}

// dispatch runs the current phase for one shard, accumulating busy time
// for the imbalance histogram (two clock reads per worker per phase,
// merged locally — nothing touches the registry here).
func (ps *parState) dispatch(w int) {
	t0 := time.Now()
	e := ps.e
	switch ps.phase {
	case parPhaseA:
		e.parRequests(w)
	case parPhaseBD1:
		e.parArb1(w, true)
	case parPhaseArb1:
		e.parArb1(w, false)
	case parPhaseTx1:
		e.parTxRange(w, false)
	case parPhaseBDW:
		e.parArbW(w, true)
	case parPhaseArbW:
		e.parArbW(w, false)
	case parPhaseTxW:
		e.parTxW(w)
	case parPhaseE:
		e.parApply(w)
	}
	ps.shards[w].busyNs += time.Since(t0).Nanoseconds()
}

func (ps *parState) cycle(phase int) {
	ps.phase = phase
	ps.crew.cycle()
}

// stepParallel executes one slot through the sharded phases. Phase 0
// (fault events) and the trailing slot/recovery bookkeeping stay in
// step, shared with the serial paths.
func (e *replica) stepParallel() {
	ps := e.par
	defl, multi := e.cfg.Deflection, e.cfg.Wavelengths > 1
	if defl && ps.preq == nil {
		ps.preq = make([]wReq, e.n)
		ps.mask = make([]uint64, (e.n+63)/64)
	}
	if multi && defl && ps.pGranted == nil {
		ps.pGranted = make([][]wReq, e.m)
	}
	ps.cycle(parPhaseA)
	switch {
	case !defl && !multi:
		ps.cycle(parPhaseBD1)
	case !defl && multi:
		ps.cycle(parPhaseBDW)
	case defl && !multi:
		ps.cycle(parPhaseArb1)
		e.parDeflect(false)
		ps.cycle(parPhaseTx1)
	default:
		ps.cycle(parPhaseArbW)
		e.parDeflect(true)
		ps.cycle(parPhaseTxW)
	}
	ps.cycle(parPhaseE)
	e.parMerge()
}

// parRequests is phase A: a read-only scan of this worker's chunk of the
// active list. The request comes from the precompiled headReq table, NOT
// a fresh route lookup: after a masked topology-change refresh the two
// can legitimately differ for entries the fault layer left standing, and
// the serial oracle arbitrates on headReq. An unroutable head is
// recorded as a deferred drop and the node sits the slot out, exactly as
// serial phase 1 does; the peeked message travels with the request
// because queues stay unmutated until phase E.
func (e *replica) parRequests(w int) {
	ps := e.par
	sh := &ps.shards[w]
	for d := 0; d < ps.p; d++ {
		sh.inbox[d] = sh.inbox[d][:0]
		sh.drops[d] = sh.drops[d][:0]
	}
	defl := e.cfg.Deflection
	lo := len(e.active) * w / ps.p
	hi := len(e.active) * (w + 1) / ps.p
	for _, u32 := range e.active[lo:hi] {
		u := int(u32)
		hr := e.headReq[u]
		if hr.coupler < 0 {
			sh.drops[ps.nodeOwnerW[u>>6]] = append(sh.drops[ps.nodeOwnerW[u>>6]], aDrop{node: u32})
			sh.t.dropped++
			sh.t.unroutable++
			continue
		}
		req := wReq{q: *e.queues[u].at(0), r: hr}
		d := ps.coupOwnerW[hr.coupler>>6]
		sh.inbox[d] = append(sh.inbox[d], req)
		if defl {
			sh.reqMask[u>>6] |= 1 << (u & 63)
			ps.preq[u] = req
		}
	}
}

// parArb1 is the W = 1 arbitration: drain every inbox addressed to this
// worker and keep the argmin-by-round-robin-key grant per owned coupler.
// Keys are distinct per coupler (one per requesting node), so the result
// is independent of drain order. When fused (no deflection) the owned
// touched range is transmitted immediately — no barrier in between,
// because arbitration wrote only this worker's coupler range.
func (e *replica) parArb1(w int, fused bool) {
	ps := e.par
	n32 := int32(e.n)
	for s := range ps.shards {
		box := ps.shards[s].inbox[w]
		for i := range box {
			req := &box[i]
			c := req.r.coupler
			key := req.r.node - e.rr[c]
			if key < 0 {
				key += n32
			}
			wIdx, bit := c>>6, uint64(1)<<(c&63)
			if e.touched[wIdx]&bit == 0 {
				e.touched[wIdx] |= bit
				e.bestKey[c] = key
				ps.pgrant[c] = *req
			} else if key < e.bestKey[c] {
				e.bestKey[c] = key
				ps.pgrant[c] = *req
			}
		}
	}
	if fused {
		e.parTxRange(w, true)
	}
}

// parTxRange is the W = 1 transmission half: scan the owned touched
// words in ascending coupler order, convert each grant into queue ops
// and tallies. advanceRR distinguishes the fused no-deflection path
// (cursors advance here, as in the serial phase 4) from the deflection
// path (phase C already advanced them; consume the winners set instead).
func (e *replica) parTxRange(w int, advanceRR bool) {
	ps := e.par
	sh := &ps.shards[w]
	for d := 0; d < ps.p; d++ {
		sh.ops[d] = sh.ops[d][:0]
	}
	sh.events = sh.events[:0]
	n32 := int32(e.n)
	loW := int(ps.coupRange[w]) >> 6
	hiW := (int(ps.coupRange[w+1]) + 63) >> 6
	for wi := loW; wi < hiW; wi++ {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		e.touched[wi] = 0
		sh.t.touchedSum += int64(bits.OnesCount64(word))
		for word != 0 {
			c := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			g := &ps.pgrant[c]
			if advanceRR {
				e.rr[c] = rrNext(g.r.node, n32)
			} else {
				e.winners[g.r.node] = false
			}
			e.parEmit(sh, g)
		}
	}
}

// parEmit converts one grant into its queue ops and shard-local
// delivery bookkeeping (the parallel analogue of transmit). The pop is
// emitted before the push so a deflection relaying a message back onto
// its own bounded queue sees the dequeue-then-enqueue order.
func (e *replica) parEmit(sh *parShard, g *wReq) {
	ps := e.par
	if g.r.delivers {
		hops := g.q.hops + 1
		sh.t.delivered++
		sh.t.totalLatency += e.slot + 1 - int(g.q.born)
		sh.t.totalHops += int(hops)
		if e.onDeliver != nil {
			sh.events = append(sh.events, deliverEvent{q: g.q, hops: hops})
		}
		d := ps.nodeOwnerW[g.r.node>>6]
		sh.ops[d] = append(sh.ops[d], qOp{node: g.r.node})
	} else {
		m := g.q
		m.hops++
		d := ps.nodeOwnerW[g.r.node>>6]
		sh.ops[d] = append(sh.ops[d], qOp{node: g.r.node})
		t := ps.nodeOwnerW[g.r.nextHop>>6]
		sh.ops[t] = append(sh.ops[t], qOp{node: g.r.nextHop, push: true, msg: m})
	}
}

// parArbW is the W > 1 arbitration: candidates per owned coupler are
// collected from the inboxes, sorted by round-robin key and granted up
// to W senders — the serial phase 2 restricted to this worker's coupler
// range. Fused (no deflection) it emits immediately; with deflection the
// grants are parked in pGranted and the winners set for phase C.
func (e *replica) parArbW(w int, fused bool) {
	ps := e.par
	sh := &ps.shards[w]
	sh.reqBuf = sh.reqBuf[:0]
	for s := range ps.shards {
		box := ps.shards[s].inbox[w]
		for i := range box {
			c := box[i].r.coupler
			e.touched[c>>6] |= 1 << (c & 63)
			e.byCoupler[c] = append(e.byCoupler[c], int32(len(sh.reqBuf)))
			sh.reqBuf = append(sh.reqBuf, box[i])
		}
	}
	if fused {
		for d := 0; d < ps.p; d++ {
			sh.ops[d] = sh.ops[d][:0]
		}
		sh.events = sh.events[:0]
	}
	n32 := int32(e.n)
	wv := e.cfg.wavelengths()
	loW := int(ps.coupRange[w]) >> 6
	hiW := (int(ps.coupRange[w+1]) + 63) >> 6
	for wi := loW; wi < hiW; wi++ {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		if fused {
			e.touched[wi] = 0
			sh.t.touchedSum += int64(bits.OnesCount64(word))
		}
		for word != 0 {
			c := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			idxs := e.byCoupler[c]
			var take int
			if len(idxs) == 1 {
				take = 1
				e.rr[c] = rrNext(sh.reqBuf[idxs[0]].r.node, n32)
			} else {
				cursor := e.rr[c]
				sh.keys = sh.keys[:0]
				for _, ri := range idxs {
					k := sh.reqBuf[ri].r.node - cursor
					if k < 0 {
						k += n32
					}
					sh.keys = append(sh.keys, int(k))
				}
				sortByRRKey(idxs, sh.keys)
				take = wv
				if take > len(idxs) {
					take = len(idxs)
				}
				e.rr[c] = rrNext(sh.reqBuf[idxs[take-1]].r.node, n32)
			}
			if fused {
				for _, ri := range idxs[:take] {
					e.parEmit(sh, &sh.reqBuf[ri])
				}
			} else {
				for _, ri := range idxs[:take] {
					g := sh.reqBuf[ri]
					ps.pGranted[c] = append(ps.pGranted[c], g)
					e.winners[g.r.node] = true
				}
			}
			e.byCoupler[c] = e.byCoupler[c][:0]
		}
	}
}

// parTxW is the W > 1 deflection transmission: consume the owned
// touched range and its parked grant lists in ascending coupler order.
func (e *replica) parTxW(w int) {
	ps := e.par
	sh := &ps.shards[w]
	for d := 0; d < ps.p; d++ {
		sh.ops[d] = sh.ops[d][:0]
	}
	sh.events = sh.events[:0]
	loW := int(ps.coupRange[w]) >> 6
	hiW := (int(ps.coupRange[w+1]) + 63) >> 6
	for wi := loW; wi < hiW; wi++ {
		word := e.touched[wi]
		if word == 0 {
			continue
		}
		e.touched[wi] = 0
		sh.t.touchedSum += int64(bits.OnesCount64(word))
		for word != 0 {
			c := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			grants := ps.pGranted[c]
			for gi := range grants {
				e.winners[grants[gi].r.node] = false
				e.parEmit(sh, &grants[gi])
			}
			ps.pGranted[c] = grants[:0]
		}
	}
}

// parDeflect is phase C, serial on the coordinator: finalize winners
// (W = 1 advances the request-coupler cursors here, mirroring the serial
// phase 2b; W > 1 already did both during arbitration), then let losers
// grab free couplers in ascending node order — the same order the serial
// reqMask scan yields. The loser's message comes from its peeked request
// rather than front(), which may still be behind pending phase A drops.
func (e *replica) parDeflect(multi bool) {
	ps := e.par
	n32 := int32(e.n)
	wv := e.cfg.wavelengths()
	if !multi {
		for wi, word := range e.touched {
			for word != 0 {
				c := int32(wi<<6 + bits.TrailingZeros64(word))
				word &= word - 1
				g := &ps.pgrant[c]
				e.winners[g.r.node] = true
				e.rr[c] = rrNext(g.r.node, n32)
			}
		}
	}
	for wi := range ps.mask {
		word := uint64(0)
		for s := range ps.shards {
			word |= ps.shards[s].reqMask[wi]
			ps.shards[s].reqMask[wi] = 0
		}
		for word != 0 {
			u := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if e.winners[u] {
				continue
			}
			pq := &ps.preq[u]
			dst := int(pq.q.dst)
			ob, oc := e.outStart[u], e.outCount[u]
			for oi := ob; oi < ob+oc; oi++ {
				c := int(e.outList[oi])
				wIdx, bit := c>>6, uint64(1)<<(c&63)
				if multi {
					if len(ps.pGranted[c]) >= wv {
						continue
					}
				} else if e.touched[wIdx]&bit != 0 {
					continue
				}
				bestHop, delivers := e.deflectTarget(c, dst)
				if bestHop < 0 {
					continue
				}
				e.touched[wIdx] |= bit
				g := wReq{q: pq.q, r: txRequest{node: int32(u), coupler: int32(c), nextHop: bestHop, delivers: delivers}}
				if multi {
					ps.pGranted[c] = append(ps.pGranted[c], g)
				} else {
					ps.pgrant[c] = g
				}
				e.winners[u] = true
				e.metrics.Deflections++
				break
			}
		}
	}
}

// parApply is phase E: the owner of each node range applies the ops
// addressed to it — phase A drops first (the serial engine applies them
// before any transmission), then transmission ops concatenated in
// source-worker order, which is ascending coupler order globally, so
// each node's queue sees exactly the serial op sequence. The changed
// heads are then resolved in one pass. None of them belongs to an idle
// node: a node pops at most once per slot, and only while it holds a
// message, so a node that a push reactivated is never emptied again.
func (e *replica) parApply(w int) {
	ps := e.par
	sh := &ps.shards[w]
	sh.acts = sh.acts[:0]
	sh.deacts = sh.deacts[:0]
	for s := range ps.shards {
		for _, d := range ps.shards[s].drops[w] {
			e.parPop(sh, int(d.node))
		}
	}
	for s := range ps.shards {
		box := ps.shards[s].ops[w]
		for i := range box {
			op := &box[i]
			if op.push {
				e.parPush(sh, int(op.node), op.msg)
			} else {
				e.parPop(sh, int(op.node))
			}
		}
	}
	for _, p := range sh.pend {
		e.computeHeadReq(int(p.node), p.dst)
	}
	sh.pend = sh.pend[:0]
}

// parPop is dropFront with the active-list mutation recorded instead of
// applied (phase F owns the shared list).
func (e *replica) parPop(sh *parShard, node int) {
	sh.t.backlogDelta--
	q := &e.queues[node]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	if q.n == 0 {
		sh.deacts = append(sh.deacts, int32(node))
	} else {
		sh.pend = append(sh.pend, pendHead{node: int32(node), dst: q.buf[q.head].dst})
	}
}

// parPush is enqueue with shard-local tallies and the activation
// recorded instead of applied.
func (e *replica) parPush(sh *parShard, node int, msg qmsg) {
	q := &e.queues[node]
	if e.cfg.MaxQueue > 0 && q.n >= e.cfg.MaxQueue {
		sh.t.dropped++
		return
	}
	q.push(msg)
	sh.t.backlogDelta++
	d := q.n
	sh.t.qDepth[qDepthBucket(d)]++
	sh.t.qDepthSum += int64(d)
	if d > sh.t.peakQueue {
		sh.t.peakQueue = d
	}
	if d == 1 {
		sh.acts = append(sh.acts, int32(node))
		sh.pend = append(sh.pend, pendHead{node: int32(node), dst: msg.dst})
	}
}

// parMerge is phase F, serial: fold the shard tallies into Metrics and
// the obs block, fix up the active list and replay buffered deliveries.
// Deactivations run before activations: per node the only possible
// same-slot sequence is deactivate-then-(re)activate, because a node
// needs a queued message at slot start to earn its single pop. The
// OnDeliver replay walks shards in order — ascending coupler order, the
// serial delivery order.
func (e *replica) parMerge() {
	ps := e.par
	minBusy, maxBusy := int64(1)<<62, int64(0)
	for w := range ps.shards {
		sh := &ps.shards[w]
		t := &sh.t
		e.metrics.Delivered += t.delivered
		e.metrics.Dropped += t.dropped
		e.metrics.Unroutable += t.unroutable
		e.metrics.TotalLatency += t.totalLatency
		e.metrics.TotalHops += t.totalHops
		e.backlog += t.backlogDelta
		if t.peakQueue > e.metrics.PeakQueue {
			e.metrics.PeakQueue = t.peakQueue
		}
		e.obs.touchedSum += t.touchedSum
		for i, v := range t.qDepth {
			e.obs.qDepth[i] += v
		}
		e.obs.qDepthSum += t.qDepthSum
		*t = shardTally{}
		if sh.busyNs < minBusy {
			minBusy = sh.busyNs
		}
		if sh.busyNs > maxBusy {
			maxBusy = sh.busyNs
		}
		sh.busyNs = 0
	}
	for w := range ps.shards {
		for _, u := range ps.shards[w].deacts {
			e.deactivate(int(u))
		}
	}
	for w := range ps.shards {
		for _, u := range ps.shards[w].acts {
			e.activePos[u] = int32(len(e.active))
			e.active = append(e.active, u)
		}
	}
	if e.onDeliver != nil {
		for w := range ps.shards {
			for _, ev := range ps.shards[w].events {
				e.onDeliver(Message{
					ID: int(ev.q.id), Src: int(ev.q.src), Dst: int(ev.q.dst),
					Born: int(ev.q.born), Hops: int(ev.hops),
				}, e.slot+1)
			}
		}
	}
	e.obs.parSlots++
	e.obs.parImb[parImbBucket(maxBusy-minBusy)]++
	e.obs.parImbSum += maxBusy - minBusy
}

// closePar releases the replica's parallel crew, if any.
func (e *replica) closePar() {
	if e.par != nil {
		e.par.crew.close()
		e.par = nil
	}
}

// SetParallel arms (or re-arms) intra-slot parallelism with p shard
// workers: p <= 0 picks runtime.GOMAXPROCS(0), p == 1 restores the
// serial path. Workers are persistent goroutines parked between slots —
// call Close to release them. Slots with fewer active nodes than the
// engagement threshold still step serially; parallel and serial slots
// produce bit-for-bit identical state, so runs may mix them freely.
// Parallelism is an execution knob, not part of Config: it never changes
// results, so sweep cache keys are unaffected.
func (e *Engine) SetParallel(p int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxParallelShards {
		p = maxParallelShards
	}
	if e.par != nil {
		if e.par.p == p {
			return
		}
		e.closePar()
	}
	if p <= 1 {
		return
	}
	e.par = newParState(&e.replica, p)
	parObs.shards.Set(int64(p))
}

// SetParallelThreshold overrides the active-node count a slot needs to
// engage the sharded path (default 512; 0 engages it on every slot).
// Meant for benchmarks and differential tests that must force tiny
// slots through the parallel machinery; a no-op on serial engines.
func (e *Engine) SetParallelThreshold(threshold int) {
	if e.par != nil {
		e.par.threshold = threshold
	}
}

// Parallel reports the armed shard-worker count (1 when serial).
func (e *Engine) Parallel() int {
	if e.par == nil {
		return 1
	}
	return e.par.p
}

// Close releases the engine's parallel worker goroutines; the engine
// stays usable on the serial path. A no-op for serial engines.
func (e *Engine) Close() { e.closePar() }

// rsPar is a ReplicaSet's replica-level parallelism: the crew steps
// disjoint chunks of the live list, each replica's mutable state being
// private to its slab section. Replicas with a dynamic topology or an
// OnDeliver callback step on the coordinator (their fault events and
// user callbacks must not run concurrently); everything else shards.
type rsPar struct {
	p       int
	crew    *crew
	parLive []int32
	serLive []int32
}

// SetParallel arms StepAll to fan live replicas across p workers
// (p <= 0 picks runtime.GOMAXPROCS(0), p == 1 restores serial). Results
// are bit-for-bit unchanged — replicas are independent, so stepping
// order never mattered. Call Close to release the workers.
func (rs *ReplicaSet) SetParallel(p int) {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > maxParallelShards {
		p = maxParallelShards
	}
	if rs.par != nil {
		if rs.par.p == p {
			return
		}
		rs.Close()
	}
	if p <= 1 {
		return
	}
	pp := &rsPar{p: p}
	pp.crew = newCrew(p, func(w int) {
		lo := len(pp.parLive) * w / p
		hi := len(pp.parLive) * (w + 1) / p
		for _, ri := range pp.parLive[lo:hi] {
			rs.reps[ri].step()
		}
	})
	rs.par = pp
	parObs.shards.Set(int64(p))
}

// Close releases the set's parallel worker goroutines; the set stays
// usable on the serial path. A no-op for serial sets.
func (rs *ReplicaSet) Close() {
	if rs.par != nil {
		rs.par.crew.close()
		rs.par = nil
	}
}

// stepAllParallel fans the live replicas across the crew. The split is
// recomputed per slot because replicas retire between slots.
func (rs *ReplicaSet) stepAllParallel() {
	pp := rs.par
	pp.parLive = pp.parLive[:0]
	pp.serLive = pp.serLive[:0]
	for _, ri := range rs.live {
		rp := &rs.reps[ri]
		if rp.dyn == nil && rp.onDeliver == nil {
			pp.parLive = append(pp.parLive, ri)
		} else {
			pp.serLive = append(pp.serLive, ri)
		}
	}
	pp.crew.cycle()
	for _, ri := range pp.serLive {
		rs.reps[ri].step()
	}
}
