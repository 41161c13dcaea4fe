package faults

import (
	"fmt"

	"otisnet/internal/digraph"
	"otisnet/internal/sim"
)

// FaultedTopology wraps any sim.Topology and replays a fault Plan into it.
// Failed elements are masked out of OutCouplers/Heads, distances are
// recomputed on the surviving structure, and the precomputed route table is
// repaired row by row: a fault/repair event rebuilds only the rows whose
// routing inputs actually changed (RowsRebuilt counts them), and between
// events NextCoupler remains an O(1) lookup, preserving the engine's
// allocation-free steady-state Step.
//
// The tables are kept per node — sim.RouteBlocks with identity classes, a
// flat []sim.RouteEntry (with the packed delivers-here bit) and a flat
// []int32 of distances — because events repair them one node's row at a
// time; they are lent to the engine through RouteBlocks, so the compiled
// engine reads the same memory this type repairs, and a fault event
// invalidates exactly the compiled rows it rebuilds, with no copying or
// notification beyond the sim.TopologyChange the engine already consumes.
//
// FaultedTopology is stateful and single-engine: concurrent scenarios (e.g.
// sweep workers) must each wrap their own instance around the shared
// read-only base. With an empty plan it reproduces the base topology's
// routing decisions exactly, so fault-free runs are bit-for-bit identical
// to runs on the unwrapped topology.
type FaultedTopology struct {
	base sim.Topology
	plan Plan
	next int // next unapplied plan event
	// pristine is true while no event has fired since the last full Reset:
	// masks clear, live structure and tables identical to the base. It
	// lets the back-to-back Resets of engine reuse (SetPlan followed by
	// Engine.Run) skip the O(n²) table restore all but once.
	pristine bool

	n, m int

	// Immutable caches of the base structure.
	baseOut   [][]int // node -> couplers it transmits on
	baseHeads [][]int // coupler -> listening nodes
	tails     [][]int // coupler -> transmitting nodes
	headOf    [][]int // node -> couplers it listens on

	// Fault masks. txDown[u] is parallel to baseOut[u].
	nodeDown    []bool
	couplerDown []bool
	txDown      [][]bool

	// Live (masked) structure and routing state. dist and route are row
	// views of blocks, the per-node tables lent to the engine.
	liveOut   [][]int
	liveHeads [][]int
	dist      [][]int32
	route     [][]sim.RouteEntry
	blocks    sim.RouteBlocks

	// Event-time scratch.
	prevDist     []int32 // previous dist row during recompute
	distChanged  []bool  // node -> dist row changed this event
	dirty        []bool  // node -> route row must be rebuilt this event
	entryChanged []bool  // n*n bitmap of changed route entries
	changedRows  []int   // rows marked in entryChanged (cleared next event)
	failedNodes  []int   // nodes that went down this event
	bfsQueue     []int

	rowsRebuilt int
}

// Wrap prepares a faulted view of base driven by plan. Event element ids
// are validated against the base topology.
//
// A wrapper is private mutable state: it may be shared between one engine
// run and a later one (SetPlan re-arms it), but never between two
// concurrently live engines. A sweep worker therefore holds one wrapper
// per base topology, with the engine compiled over it.
func Wrap(base sim.Topology, plan Plan) *FaultedTopology {
	n, m := base.Nodes(), base.Couplers()
	ft := &FaultedTopology{
		base: base, plan: plan, n: n, m: m,
		baseOut:      make([][]int, n),
		baseHeads:    make([][]int, m),
		tails:        make([][]int, m),
		headOf:       make([][]int, n),
		nodeDown:     make([]bool, n),
		couplerDown:  make([]bool, m),
		txDown:       make([][]bool, n),
		liveOut:      make([][]int, n),
		liveHeads:    make([][]int, m),
		dist:         make([][]int32, n),
		route:        make([][]sim.RouteEntry, n),
		blocks:       sim.IdentityBlocks(n),
		prevDist:     make([]int32, n),
		distChanged:  make([]bool, n),
		dirty:        make([]bool, n),
		entryChanged: make([]bool, n*n),
	}
	for u := 0; u < n; u++ {
		ft.baseOut[u] = append([]int(nil), base.OutCouplers(u)...)
		ft.txDown[u] = make([]bool, len(ft.baseOut[u]))
		ft.liveOut[u] = make([]int, 0, len(ft.baseOut[u]))
		for _, c := range ft.baseOut[u] {
			ft.tails[c] = append(ft.tails[c], u)
		}
	}
	for c := 0; c < m; c++ {
		ft.baseHeads[c] = append([]int(nil), base.Heads(c)...)
		ft.liveHeads[c] = make([]int, 0, len(ft.baseHeads[c]))
		for _, h := range ft.baseHeads[c] {
			ft.headOf[h] = append(ft.headOf[h], c)
		}
	}
	for u := 0; u < n; u++ {
		ft.dist[u] = ft.blocks.Dists[u*n : (u+1)*n : (u+1)*n]
		ft.route[u] = ft.blocks.Routes[u*n : (u+1)*n : (u+1)*n]
	}
	for _, ev := range plan.Events {
		ft.validate(ev.Elem)
	}
	ft.Reset()
	return ft
}

func (ft *FaultedTopology) validate(el Element) {
	switch el.Kind {
	case KindNode:
		if el.Node < 0 || el.Node >= ft.n {
			panic(fmt.Sprintf("faults: node %d out of range [0,%d)", el.Node, ft.n))
		}
	case KindCoupler:
		if el.Coupler < 0 || el.Coupler >= ft.m {
			panic(fmt.Sprintf("faults: coupler %d out of range [0,%d)", el.Coupler, ft.m))
		}
	case KindTransmitter:
		if el.Node < 0 || el.Node >= ft.n || ft.txIndex(el.Node, el.Coupler) < 0 {
			panic(fmt.Sprintf("faults: no transmitter %v on this topology", el))
		}
	default:
		panic(fmt.Sprintf("faults: unknown element kind %d", int(el.Kind)))
	}
}

// txIndex locates coupler c in baseOut[u], or -1.
func (ft *FaultedTopology) txIndex(u, c int) int {
	for i, oc := range ft.baseOut[u] {
		if oc == c {
			return i
		}
	}
	return -1
}

// Reset restores the pristine (slot-0, pre-event) state: no faults, and
// distances and route entries copied from the base topology — expanded
// per node from its blocks when it lends them — so a fresh engine over an
// unfired plan routes exactly like the base. When no event has fired since
// the last Reset the state is already pristine and only the plan cursor
// rewinds.
func (ft *FaultedTopology) Reset() {
	if ft.pristine {
		ft.next = 0
		ft.rowsRebuilt = 0
		return
	}
	ft.pristine = true
	ft.next = 0
	ft.rowsRebuilt = 0
	for u := 0; u < ft.n; u++ {
		ft.nodeDown[u] = false
		for i := range ft.txDown[u] {
			ft.txDown[u][i] = false
		}
		ft.liveOut[u] = append(ft.liveOut[u][:0], ft.baseOut[u]...)
	}
	for c := 0; c < ft.m; c++ {
		ft.couplerDown[c] = false
		ft.liveHeads[c] = append(ft.liveHeads[c][:0], ft.baseHeads[c]...)
	}
	if bt, ok := ft.base.(sim.BlockTabled); ok {
		b := bt.RouteBlocks()
		for u := 0; u < ft.n; u++ {
			for v := 0; v < ft.n; v++ {
				ft.dist[u][v] = int32(b.Distance(u, v))
				ft.route[u][v] = b.Entry(u, v)
			}
		}
	} else {
		for u := 0; u < ft.n; u++ {
			for v := 0; v < ft.n; v++ {
				ft.dist[u][v] = int32(ft.base.Distance(u, v))
			}
		}
		// Generic bases are queried per pair; the delivers-here bit is the
		// exact head-set membership the engine needs: dst ∈ Heads(coupler).
		hears := make([]bool, ft.m)
		for dst := 0; dst < ft.n; dst++ {
			for _, c := range ft.headOf[dst] {
				hears[c] = true
			}
			for u := 0; u < ft.n; u++ {
				c, hop := ft.base.NextCoupler(u, dst)
				ft.route[u][dst] = sim.MakeRouteEntry(c, hop, c >= 0 && c < ft.m && hears[c])
			}
			for _, c := range ft.headOf[dst] {
				hears[c] = false
			}
		}
	}
	for _, row := range ft.changedRows {
		ft.clearChangedRow(row)
	}
	ft.changedRows = ft.changedRows[:0]
}

// SetPlan swaps in a new fault plan and resets to the pristine state,
// reusing every buffer: a sweep worker drives one FaultedTopology (and the
// engine compiled over it) through many fault scenarios without
// reallocating the wrapped structure or the engine's borrowed tables.
// Results are bit-for-bit identical to wrapping a fresh topology around
// the plan.
func (ft *FaultedTopology) SetPlan(plan Plan) {
	for _, ev := range plan.Events {
		ft.validate(ev.Elem)
	}
	ft.plan = plan
	ft.Reset()
}

func (ft *FaultedTopology) clearChangedRow(u int) {
	row := ft.entryChanged[u*ft.n : (u+1)*ft.n]
	for i := range row {
		row[i] = false
	}
}

// RowsRebuilt returns the cumulative number of route-table rows rebuilt by
// fault/repair events since the last Reset — the incremental-repair work
// actually done, as opposed to n rows per event for a full rebuild.
func (ft *FaultedTopology) RowsRebuilt() int { return ft.rowsRebuilt }

// Plan returns the wrapped plan.
func (ft *FaultedTopology) Plan() Plan { return ft.plan }

// NodeDown reports whether node u is currently failed.
func (ft *FaultedTopology) NodeDown(u int) bool { return ft.nodeDown[u] }

// --- sim.Topology ---

// Nodes returns the base node count; failed nodes keep their ids.
func (ft *FaultedTopology) Nodes() int { return ft.n }

// Couplers returns the base coupler count; failed couplers keep their ids.
func (ft *FaultedTopology) Couplers() int { return ft.m }

// OutCouplers lists the couplers node u can currently transmit on.
func (ft *FaultedTopology) OutCouplers(u int) []int { return ft.liveOut[u] }

// Heads lists the live nodes currently hearing coupler c.
func (ft *FaultedTopology) Heads(c int) []int { return ft.liveHeads[c] }

// Distance returns the hop distance on the surviving structure
// (digraph.Unreachable when dst is cut off).
func (ft *FaultedTopology) Distance(u, dst int) int { return int(ft.dist[u][dst]) }

// NextCoupler is the O(1) route-table lookup, same contract as the base.
func (ft *FaultedTopology) NextCoupler(u, dst int) (int, int) {
	r := ft.route[u][dst]
	return r.Coupler(), r.NextHop()
}

// RouteBlocks lends the engine the live per-node tables (sim.BlockTabled).
// Advance repairs their rows in place, so the compiled engine follows
// fault reroutes without recompiling.
func (ft *FaultedTopology) RouteBlocks() *sim.RouteBlocks { return &ft.blocks }

// --- sim.DynamicTopology ---

// Advance applies every plan event scheduled at or before slot. With no
// pending event it is a two-comparison no-op, keeping fault-free and
// between-event slots as cheap as on a static topology.
func (ft *FaultedTopology) Advance(slot int) sim.TopologyChange {
	if ft.next >= len(ft.plan.Events) || ft.plan.Events[ft.next].Slot > slot {
		return sim.TopologyChange{}
	}
	ft.pristine = false
	// Clear the per-event delta state of the previous batch.
	for _, row := range ft.changedRows {
		ft.clearChangedRow(row)
	}
	ft.changedRows = ft.changedRows[:0]
	ft.failedNodes = ft.failedNodes[:0]
	for u := 0; u < ft.n; u++ {
		ft.distChanged[u] = false
		ft.dirty[u] = false
	}

	// 1. Apply the masks, marking nodes whose local structure (their own
	// transmitters, or the head sets of couplers they transmit on) changed.
	for ft.next < len(ft.plan.Events) && ft.plan.Events[ft.next].Slot <= slot {
		ev := ft.plan.Events[ft.next]
		ft.next++
		el := ev.Elem
		switch el.Kind {
		case KindNode:
			if ft.nodeDown[el.Node] == !ev.Repair {
				continue // redundant event
			}
			ft.nodeDown[el.Node] = !ev.Repair
			if !ev.Repair {
				ft.failedNodes = append(ft.failedNodes, el.Node)
			}
			ft.dirty[el.Node] = true
			for _, c := range ft.headOf[el.Node] {
				ft.markTailsDirty(c)
			}
		case KindCoupler:
			if ft.couplerDown[el.Coupler] == !ev.Repair {
				continue
			}
			ft.couplerDown[el.Coupler] = !ev.Repair
			ft.markTailsDirty(el.Coupler)
		case KindTransmitter:
			i := ft.txIndex(el.Node, el.Coupler)
			if ft.txDown[el.Node][i] == !ev.Repair {
				continue
			}
			ft.txDown[el.Node][i] = !ev.Repair
			ft.dirty[el.Node] = true
		}
	}

	// 2. Rebuild the live structure from the masks (slices keep capacity).
	for u := 0; u < ft.n; u++ {
		lo := ft.liveOut[u][:0]
		if !ft.nodeDown[u] {
			for i, c := range ft.baseOut[u] {
				if !ft.couplerDown[c] && !ft.txDown[u][i] {
					lo = append(lo, c)
				}
			}
		}
		ft.liveOut[u] = lo
	}
	for c := 0; c < ft.m; c++ {
		lh := ft.liveHeads[c][:0]
		if !ft.couplerDown[c] {
			for _, h := range ft.baseHeads[c] {
				if !ft.nodeDown[h] {
					lh = append(lh, h)
				}
			}
		}
		ft.liveHeads[c] = lh
	}

	// 3. Recompute surviving distances, tracking which rows moved.
	for u := 0; u < ft.n; u++ {
		copy(ft.prevDist, ft.dist[u])
		ft.bfs(u)
		for v := 0; v < ft.n; v++ {
			if ft.dist[u][v] != ft.prevDist[v] {
				ft.distChanged[u] = true
				break
			}
		}
	}

	// 4. Rebuild exactly the affected route rows: a row's entries depend on
	// dist[u], u's live out-structure, and dist[h] of the heads u can reach.
	for u := 0; u < ft.n; u++ {
		if ft.dirty[u] || ft.distChanged[u] {
			continue // already marked
		}
		for _, c := range ft.liveOut[u] {
			for _, h := range ft.liveHeads[c] {
				if ft.distChanged[h] {
					ft.dirty[u] = true
					break
				}
			}
			if ft.dirty[u] {
				break
			}
		}
	}
	for u := 0; u < ft.n; u++ {
		if ft.dirty[u] || ft.distChanged[u] {
			ft.rebuildRow(u)
		}
	}

	return sim.TopologyChange{
		Changed:     true,
		FailedNodes: ft.failedNodes,
		EntryChanged: func(u, dst int) bool {
			return ft.entryChanged[u*ft.n+dst]
		},
	}
}

// markTailsDirty marks every node transmitting on coupler c for rebuild.
func (ft *FaultedTopology) markTailsDirty(c int) {
	for _, t := range ft.tails[c] {
		ft.dirty[t] = true
	}
}

// bfs recomputes dist[u] over the surviving structure. Failed nodes are
// absent from every liveHeads set, so they are never expanded; a failed
// source keeps only dist[u][u] = 0.
func (ft *FaultedTopology) bfs(u int) {
	row := ft.dist[u]
	for v := range row {
		row[v] = digraph.Unreachable
	}
	row[u] = 0
	q := ft.bfsQueue[:0]
	q = append(q, u)
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, c := range ft.liveOut[v] {
			for _, h := range ft.liveHeads[c] {
				if row[h] == digraph.Unreachable {
					row[h] = row[v] + 1
					q = append(q, h)
				}
			}
		}
	}
	ft.bfsQueue = q[:0]
}

// rebuildRow recomputes route[u], flagging entries that changed.
func (ft *FaultedTopology) rebuildRow(u int) {
	ft.rowsRebuilt++
	rowFlagged := false
	for dst := 0; dst < ft.n; dst++ {
		e := ft.scanEntry(u, dst)
		if e != ft.route[u][dst] {
			ft.route[u][dst] = e
			ft.entryChanged[u*ft.n+dst] = true
			rowFlagged = true
		}
	}
	if rowFlagged {
		ft.changedRows = append(ft.changedRows, u)
	}
}

// scanEntry picks, in coupler and head order (same tie-breaking as the
// base topologies' construction-time oracles), the coupler whose live head
// set contains the node strictly closest to dst on the surviving
// distances. The scan walks live head sets and only dst itself is at
// distance 0, so the chosen next hop is dst exactly when dst hears the
// chosen coupler — which is the packed delivers-here bit.
func (ft *FaultedTopology) scanEntry(u, dst int) sim.RouteEntry {
	if u == dst {
		return sim.MakeRouteEntry(-1, u, false)
	}
	best, bestHop := -1, -1
	bestDist := ft.dist[u][dst]
	if bestDist == digraph.Unreachable {
		return sim.MakeRouteEntry(-1, -1, false)
	}
	for _, c := range ft.liveOut[u] {
		for _, h := range ft.liveHeads[c] {
			d := ft.dist[h][dst]
			if d != digraph.Unreachable && d < bestDist {
				bestDist = d
				best, bestHop = c, h
			}
		}
	}
	return sim.MakeRouteEntry(best, bestHop, best >= 0 && bestHop == dst)
}
