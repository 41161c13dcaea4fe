package faults

import (
	"fmt"

	"otisnet/internal/sim"
)

// FaultedTopology wraps any sim.Topology and replays a fault Plan into it.
// Failed elements are masked out of OutCouplers/Heads, and each event
// batch rebuilds the route blocks from the live lists with a
// sim.RouteBuilder, the builder NewStackTopology uses, so the routing
// state stays a quotient of the live structure: a failed node transmits on
// nothing and hears nothing, so it lands in the class of the empty lists,
// and a live node keeps its twins unless its own lists changed. Between
// events Advance is two comparisons and allocates nothing, preserving the
// engine's allocation-free steady-state Step.
//
// The wrapper borrows the base topology's lists and, until the first
// event, lends the engine the base's blocks; all of them may be shared
// with other wrappers and engines, so they are never written. Events build
// into two wrapper-owned buffers that grow on demand and alternate, so the
// blocks of the previous batch stay intact for
// TopologyChange.EntryChanged.
//
// FaultedTopology is stateful and single-engine: concurrent scenarios (e.g.
// sweep workers) must each wrap their own instance around the shared
// read-only base. With an empty plan it reproduces the base topology's
// routing decisions exactly, so fault-free runs are bit-for-bit identical
// to runs on the unwrapped topology.
type FaultedTopology struct {
	plan Plan
	next int // next unapplied plan event

	n, m int

	// The base's pristine lists, borrowed read-only.
	baseOut   [][]int // node -> couplers it transmits on
	baseHeads [][]int // coupler -> listening nodes

	// Fault masks. txDown[u] is parallel to baseOut[u].
	nodeDown    []bool
	couplerDown []bool
	txDown      [][]bool

	// Live (masked) structure.
	liveOut   [][]int
	liveHeads [][]int

	// blocks is the routing state lent now: pristine (the base's, before
	// any event) or the bufs entry the last event batch built; prev is
	// what it was before that batch.
	blocks, prev, pristine *sim.RouteBlocks
	bufs                   [2]sim.RouteBlocks
	builder                sim.RouteBuilder // scratch of the per-event rebuild
	failedNodes            []int            // nodes that went down in the last batch
	// entryChanged is every batch's TopologyChange.EntryChanged, made once
	// so an event allocates nothing: it compares prev with blocks.
	entryChanged func(u, dst int) bool
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
		plan: plan, n: n, m: m,
		baseOut:     make([][]int, n),
		baseHeads:   make([][]int, m),
		nodeDown:    make([]bool, n),
		couplerDown: make([]bool, m),
		txDown:      make([][]bool, n),
		liveOut:     make([][]int, n),
		liveHeads:   make([][]int, m),
		pristine:    base.RouteBlocks(),
	}
	ft.entryChanged = func(u, dst int) bool { return ft.prev.Entry(u, dst) != ft.blocks.Entry(u, dst) }
	for u := 0; u < n; u++ {
		ft.baseOut[u] = base.OutCouplers(u)
		ft.txDown[u] = make([]bool, len(ft.baseOut[u]))
		ft.liveOut[u] = make([]int, 0, len(ft.baseOut[u]))
	}
	for c := 0; c < m; c++ {
		ft.baseHeads[c] = base.Heads(c)
		ft.liveHeads[c] = make([]int, 0, len(ft.baseHeads[c]))
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
// the base topology's routing state lent again, so a fresh engine over an
// unfired plan routes exactly like the base.
func (ft *FaultedTopology) Reset() {
	ft.next = 0
	for u := 0; u < ft.n; u++ {
		ft.nodeDown[u] = false
		clear(ft.txDown[u])
		ft.liveOut[u] = append(ft.liveOut[u][:0], ft.baseOut[u]...)
	}
	for c := 0; c < ft.m; c++ {
		ft.couplerDown[c] = false
		ft.liveHeads[c] = append(ft.liveHeads[c][:0], ft.baseHeads[c]...)
	}
	ft.blocks = ft.pristine
}

// SetPlan swaps in a new fault plan and resets to the pristine state,
// reusing every buffer: a sweep worker drives one FaultedTopology (and the
// engine compiled over it) through many fault scenarios without
// reallocating the wrapped structure or the event-time blocks.
// Results are bit-for-bit identical to wrapping a fresh topology around
// the plan.
func (ft *FaultedTopology) SetPlan(plan Plan) {
	for _, ev := range plan.Events {
		ft.validate(ev.Elem)
	}
	ft.plan = plan
	ft.Reset()
}

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

// RouteBlocks lends the engine the current routing state: the base's
// blocks until the first event, then the blocks the last event batch
// built.
func (ft *FaultedTopology) RouteBlocks() *sim.RouteBlocks { return ft.blocks }

// --- sim.DynamicTopology ---

// Advance applies every plan event scheduled at or before slot and
// rebuilds the blocks from the live structure. With no pending event it is
// a two-comparison no-op, keeping fault-free and between-event slots as
// cheap as on a static topology.
func (ft *FaultedTopology) Advance(slot int) sim.TopologyChange {
	if ft.next >= len(ft.plan.Events) || ft.plan.Events[ft.next].Slot > slot {
		return sim.TopologyChange{}
	}
	ft.failedNodes = ft.failedNodes[:0]

	// 1. Apply the masks.
	for ft.next < len(ft.plan.Events) && ft.plan.Events[ft.next].Slot <= slot {
		ev := ft.plan.Events[ft.next]
		ft.next++
		el := ev.Elem
		switch el.Kind {
		case KindNode:
			if !ev.Repair && !ft.nodeDown[el.Node] {
				ft.failedNodes = append(ft.failedNodes, el.Node)
			}
			ft.nodeDown[el.Node] = !ev.Repair
		case KindCoupler:
			ft.couplerDown[el.Coupler] = !ev.Repair
		case KindTransmitter:
			ft.txDown[el.Node][ft.txIndex(el.Node, el.Coupler)] = !ev.Repair
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

	// 3. Rebuild the blocks into the buffer not lent now, keeping the
	// previous batch's blocks for EntryChanged.
	cur := &ft.bufs[0]
	if ft.blocks == cur {
		cur = &ft.bufs[1]
	}
	ft.builder.Build(cur, ft.liveOut, ft.liveHeads)
	ft.prev, ft.blocks = ft.blocks, cur
	return sim.TopologyChange{Changed: true, FailedNodes: ft.failedNodes, EntryChanged: ft.entryChanged}
}
