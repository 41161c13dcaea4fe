// Package legacysim freezes the pre-compiled-topology simulation engine as
// a regression oracle. It is a line-for-line port of the interface-dispatch
// engine (per-slot O(N) queue scan, O(M) coupler clear, Heads scan on
// delivery) that internal/sim replaced with the compiled-topology core.
// The port keeps the exact phase structure and iteration order, so for any
// (topology, traffic, seed, config) its metrics — and its per-delivery
// OnDeliver event stream — define the bit-for-bit contract the compiled
// engine must reproduce. It reads only a topology's lists, never its route
// blocks: it routes by its own per-node tables (Oracle), so a wrong cell
// in the blocks the compiled engine reads shows up as a divergence. It is
// imported only by tests; nothing in the production tree depends on it.
package legacysim

import (
	"math/rand"

	"otisnet/internal/digraph"
	"otisnet/internal/sim"
)

// Engine is the frozen reference engine. See sim.Engine for the live
// counterpart; the exported surface here is the subset the equivalence
// tests drive (Inject, Step, Metrics, OnDeliver).
type Engine struct {
	topo    sim.Topology
	cfg     sim.Config
	rng     *rand.Rand
	queues  []ring
	rr      []int
	nextID  int
	slot    int
	backlog int
	metrics sim.Metrics

	requests  []txRequest
	byCoupler [][]int
	granted   [][]txRequest
	winners   []bool

	dyn             sim.DynamicTopology
	recovering      bool
	recoverStart    int
	recoverBaseline int
	dist            [][]int          // Oracle's tables of the live lists,
	route           []sim.RouteEntry // rebuilt after every topology change

	// OnDeliver mirrors sim.Engine.OnDeliver: invoked per delivered message
	// with its final hop count and the delivery slot.
	OnDeliver func(msg sim.Message, slot int)
}

// wavelengths mirrors sim.Config.wavelengths.
func wavelengths(c sim.Config) int {
	if c.Wavelengths < 1 {
		return 1
	}
	return c.Wavelengths
}

// NewEngine prepares the reference simulation over the topology.
func NewEngine(topo sim.Topology, cfg sim.Config) *Engine {
	e := &Engine{
		topo:      topo,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		queues:    make([]ring, topo.Nodes()),
		rr:        make([]int, topo.Couplers()),
		byCoupler: make([][]int, topo.Couplers()),
		granted:   make([][]txRequest, topo.Couplers()),
		winners:   make([]bool, topo.Nodes()),
	}
	if dyn, ok := topo.(sim.DynamicTopology); ok {
		dyn.Reset()
		e.dyn = dyn
	}
	e.dist, e.route = Oracle(topo)
	return e
}

// Oracle computes the per-node routing state of a topology's current
// lists: dist[u][v] by one BFS per node over the node-to-node digraph, and
// route[u*n+v] from the first head of u's couplers, in list order,
// strictly closer to v than u and every head before it (scan).
func Oracle(t sim.Topology) (dist [][]int, route []sim.RouteEntry) {
	n := t.Nodes()
	g := digraph.New(n)
	for u := 0; u < n; u++ {
		for _, c := range t.OutCouplers(u) {
			for _, h := range t.Heads(c) {
				g.AddArc(u, h)
			}
		}
	}
	dist = make([][]int, n)
	for u := range dist {
		dist[u] = g.BFS(u)
	}
	route = make([]sim.RouteEntry, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			c, hop := scan(t, dist, u, v)
			route[u*n+v] = sim.MakeRouteEntry(c, hop, c >= 0 && hop == v)
		}
	}
	return dist, route
}

// scan returns Oracle's coupler and next hop for (u, v): (-1, u) when
// u == v and (-1, -1) when v is unreachable.
func scan(t sim.Topology, dist [][]int, u, v int) (int, int) {
	if u == v {
		return -1, u
	}
	best, bestHop, bestDist := -1, -1, dist[u][v]
	for _, c := range t.OutCouplers(u) {
		for _, h := range t.Heads(c) {
			if d := dist[h][v]; d != digraph.Unreachable && d < bestDist {
				best, bestHop, bestDist = c, h, d
			}
		}
	}
	return best, bestHop
}

// nextCoupler returns the coupler and next hop Oracle chose for a message
// at u bound for dst.
func (e *Engine) nextCoupler(u, dst int) (int, int) {
	r := e.route[u*e.topo.Nodes()+dst]
	return r.Coupler(), r.NextHop()
}

// Metrics returns a snapshot of the accumulated metrics.
func (e *Engine) Metrics() sim.Metrics {
	m := e.metrics
	m.Slots = e.slot
	m.Backlog = e.backlog
	if e.recovering {
		m.RecoverySlots += e.slot - e.recoverStart
	}
	return m
}

// Inject enqueues a message at its source, honoring MaxQueue.
func (e *Engine) Inject(src, dst int) {
	if src == dst {
		return
	}
	e.metrics.Injected++
	e.enqueue(src, sim.Message{ID: e.nextID, Src: src, Dst: dst, Born: e.slot})
	e.nextID++
}

func (e *Engine) enqueue(node int, msg sim.Message) {
	if e.cfg.MaxQueue > 0 && e.queues[node].len() >= e.cfg.MaxQueue {
		e.metrics.Dropped++
		return
	}
	e.queues[node].push(msg)
	e.backlog++
	if e.queues[node].len() > e.metrics.PeakQueue {
		e.metrics.PeakQueue = e.queues[node].len()
	}
}

func (e *Engine) dequeue(node int) sim.Message {
	e.backlog--
	return e.queues[node].pop()
}

// Step advances the reference simulation by one slot, with the original
// per-slot O(N) queue scan, O(M) scratch clear and Heads-scan delivery
// check.
func (e *Engine) Step() {
	if e.dyn != nil {
		if ch := e.dyn.Advance(e.slot); ch.Changed {
			e.applyTopologyChange(ch)
		}
	}

	e.requests = e.requests[:0]
	for c := range e.byCoupler {
		e.byCoupler[c] = e.byCoupler[c][:0]
		e.granted[c] = e.granted[c][:0]
	}
	for u := 0; u < e.topo.Nodes(); u++ {
		if e.queues[u].len() == 0 {
			continue
		}
		msg := e.queues[u].front()
		c, hop := e.nextCoupler(u, msg.Dst)
		if c < 0 {
			e.dequeue(u)
			e.metrics.Dropped++
			e.metrics.Unroutable++
			continue
		}
		e.requests = append(e.requests, txRequest{node: u, coupler: c, nextHop: hop})
		e.byCoupler[c] = append(e.byCoupler[c], len(e.requests)-1)
	}

	w := wavelengths(e.cfg)
	for c := 0; c < e.topo.Couplers(); c++ {
		idxs := e.byCoupler[c]
		if len(idxs) == 0 {
			continue
		}
		sortByRRKey(idxs, e.requests, e.rr[c], e.topo.Nodes())
		take := w
		if take > len(idxs) {
			take = len(idxs)
		}
		for _, i := range idxs[:take] {
			e.granted[c] = append(e.granted[c], e.requests[i])
			e.winners[e.requests[i].node] = true
		}
		e.rr[c] = (e.requests[idxs[take-1]].node + 1) % e.topo.Nodes()
	}

	if e.cfg.Deflection {
		for _, r := range e.requests {
			if e.winners[r.node] {
				continue
			}
			for _, c := range e.topo.OutCouplers(r.node) {
				if len(e.granted[c]) >= w {
					continue
				}
				msg := e.queues[r.node].front()
				bestHop, bestDist := -1, 1<<30
				for _, h := range e.topo.Heads(c) {
					if d := e.dist[h][msg.Dst]; d >= 0 && d < bestDist {
						bestDist = d
						bestHop = h
					}
				}
				if bestHop < 0 {
					continue
				}
				e.granted[c] = append(e.granted[c], txRequest{node: r.node, coupler: c, nextHop: bestHop})
				e.winners[r.node] = true
				e.metrics.Deflections++
				break
			}
		}
	}

	for c := 0; c < e.topo.Couplers(); c++ {
		for _, r := range e.granted[c] {
			msg := e.dequeue(r.node)
			msg.Hops++
			delivered := false
			for _, h := range e.topo.Heads(r.coupler) {
				if h == msg.Dst {
					delivered = true
					break
				}
			}
			if delivered {
				e.metrics.Delivered++
				e.metrics.TotalLatency += e.slot + 1 - msg.Born
				e.metrics.TotalHops += msg.Hops
				if e.OnDeliver != nil {
					e.OnDeliver(msg, e.slot+1)
				}
			} else {
				e.enqueue(r.nextHop, msg)
			}
		}
	}
	for _, r := range e.requests {
		e.winners[r.node] = false
	}
	e.slot++
	if e.recovering && e.backlog <= e.recoverBaseline {
		e.metrics.RecoverySlots += e.slot - e.recoverStart
		e.recovering = false
	}
}

func (e *Engine) applyTopologyChange(ch sim.TopologyChange) {
	disrupted := false
	for _, u := range ch.FailedNodes {
		for e.queues[u].len() > 0 {
			e.dequeue(u)
			e.metrics.Dropped++
			e.metrics.LostToFaults++
			disrupted = true
		}
	}
	prev, n := e.route, e.topo.Nodes()
	e.dist, e.route = Oracle(e.topo)
	for u := 0; u < n; u++ {
		for i := 0; i < e.queues[u].len(); i++ {
			dst := e.queues[u].at(i).Dst
			if e.route[u*n+dst] == prev[u*n+dst] {
				continue
			}
			disrupted = true
			if c, _ := e.nextCoupler(u, dst); c >= 0 {
				e.metrics.Reroutes++
			}
		}
	}
	if !disrupted {
		return
	}
	if !e.recovering {
		e.recovering = true
		e.recoverStart = e.slot
	}
	e.recoverBaseline = e.backlog
}

type txRequest struct {
	node    int
	coupler int
	nextHop int
}

// sortByRRKey is the original comparator-recomputing insertion sort.
func sortByRRKey(idxs []int, requests []txRequest, cursor, n int) {
	key := func(i int) int { return (requests[i].node - cursor + n) % n }
	for a := 1; a < len(idxs); a++ {
		for b := a; b > 0 && key(idxs[b]) < key(idxs[b-1]); b-- {
			idxs[b], idxs[b-1] = idxs[b-1], idxs[b]
		}
	}
}

// Run executes a full reference simulation, mirroring sim.Run.
func Run(topo sim.Topology, traffic sim.Traffic, slots, drain int, cfg sim.Config) sim.Metrics {
	e := NewEngine(topo, cfg)
	var buf []sim.Injection
	for s := 0; s < slots; s++ {
		buf = traffic.Generate(buf[:0], s, topo.Nodes(), e.rng)
		for _, inj := range buf {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
	}
	for s := 0; s < drain && e.Metrics().Backlog > 0; s++ {
		e.Step()
	}
	return e.Metrics()
}

// ring is the original circular-buffer FIFO.
type ring struct {
	buf  []sim.Message
	head int
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) front() *sim.Message { return &r.buf[r.head] }

func (r *ring) at(i int) *sim.Message {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

func (r *ring) push(m sim.Message) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = m
	r.n++
}

func (r *ring) pop() sim.Message {
	m := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return m
}

func (r *ring) grow() {
	capNew := 2 * len(r.buf)
	if capNew < 4 {
		capNew = 4
	}
	buf := make([]sim.Message, capNew)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf, r.head = buf, 0
}
