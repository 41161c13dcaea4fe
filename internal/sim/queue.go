package sim

// qmsg is the in-queue message representation: the fields of Message
// packed into int32s, and the link that chains it into its node's queue
// (or into the pool's free list). All queued messages live in one
// engine-wide pool, so a relay moves a message between nodes by relinking
// it, without copying it. The public Message form is reconstructed only
// at delivery (OnDeliver) time. Counters and slots beyond 2^31 are
// outside the engine's operating envelope.
type qmsg struct {
	id   int32
	src  int32
	dst  int32
	born int32 // injection slot
	hops int32
	next int32 // pool index of the next message in the list; -1 ends it
}

// nodeRec is one node's state in 32 bytes: its FIFO queue, a list of
// pool slots from head (oldest) to tail; its index in the active list
// (-1 when idle); and the precompiled request of its head-of-line message
// (coupler < 0 when it is unroutable), valid while the node is active.
// The request is recomputed when the head changes — link to an empty
// queue, unlink leaving a survivor, topology events — so the per-slot
// request scan reads one record per active node instead of re-deriving
// the route. The first two defer the recompute: they append the node and
// its new head's destination to pend, and resolveHeads computes the whole
// list at the top of the next step, before anything reads req.
type nodeRec struct {
	head, tail int32
	n          int32 // queue length
	pos        int32
	req        txRequest
}

// alloc takes a pool slot off the free list, or appends one when the list
// is empty, so the pool only grows while the backlog sets a new high.
func (e *Engine) alloc() int32 {
	if i := e.free; i >= 0 {
		e.free = e.pool[i].next
		return i
	}
	e.pool = append(e.pool, qmsg{})
	return int32(len(e.pool) - 1)
}

// release returns pool slot i to the free list.
func (e *Engine) release(i int32) {
	e.pool[i].next = e.free
	e.free = i
}

// drops reports whether MaxQueue drops a message arriving at node, counting
// the drop.
func (e *Engine) drops(node int) bool {
	if e.cfg.MaxQueue > 0 && int(e.nodes[node].n) >= e.cfg.MaxQueue {
		e.metrics.Dropped++
		return true
	}
	return false
}

// link appends the message in pool slot i to node's queue, activating the
// node when the queue was empty.
func (e *Engine) link(node int, i int32) {
	q := &e.nodes[node]
	e.pool[i].next = -1
	if q.n == 0 {
		q.head = i
	} else {
		e.pool[q.tail].next = i
	}
	q.tail = i
	q.n++
	e.backlog++
	d := int(q.n)
	// Queue-depth histogram tally: a bits.Len bucket pick and two plain
	// adds on engine-local memory, published only at scenario flush.
	e.obs.qDepth[qDepthBucket(d)]++
	e.obs.qDepthSum += int64(d)
	if d > e.metrics.PeakQueue {
		e.metrics.PeakQueue = d
	}
	if d == 1 {
		q.pos = int32(len(e.active))
		e.active = append(e.active, int32(node))
		e.deferHead(node, e.pool[i].dst)
	}
}

// unlink takes the head-of-line message off node's queue and returns its
// pool slot, whose contents stay in place, keeping backlog and the active
// list in sync. The emptied-queue bookkeeping lives in deactivate so
// unlink stays small.
func (e *Engine) unlink(node int) int32 {
	e.backlog--
	q := &e.nodes[node]
	i := q.head
	q.head = e.pool[i].next
	q.n--
	if q.n == 0 {
		e.deactivate(node)
	} else {
		e.deferHead(node, e.pool[q.head].dst)
	}
	return i
}

// dropFront discards node's head-of-line message.
func (e *Engine) dropFront(node int) { e.release(e.unlink(node)) }

// deactivate swap-removes a now-idle node from the active list, O(1).
func (e *Engine) deactivate(node int) {
	p := e.nodes[node].pos
	last := int32(len(e.active) - 1)
	moved := e.active[last]
	e.active[p] = moved
	e.nodes[moved].pos = p
	e.active = e.active[:last]
	e.nodes[node].pos = -1
}

// front returns node's head-of-line message. Only valid while node is
// active.
func (e *Engine) front(node int) *qmsg { return &e.pool[e.nodes[node].head] }
