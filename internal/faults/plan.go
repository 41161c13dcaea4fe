// Package faults makes hardware failure a first-class simulation axis for
// the multi-OPS networks of the paper. The paper's §2.5 (after Imase,
// Soneoka and Okada) claims Kautz label routing survives up to d-1 faults
// with paths of length at most k+2; internal/kautz validates that claim
// statically over frozen fault sets. This package validates it dynamically:
// deterministic fault plans schedule permanent and transient failures of
// processors (nodes), OPS couplers and individual transmitters, and
// FaultedTopology replays them into a live sim.Engine run, masking failed
// elements out of the base topology's lists and rebuilding the quotient
// route blocks (sim.RouteBlocks) from the live lists at each event batch,
// so between events the engine's hot path reads the blocks exactly as on a
// static topology.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"otisnet/internal/sim"
)

// Kind selects the hardware element class a fault strikes.
type Kind int

const (
	// KindNode fails a processor: it stops transmitting, receiving and
	// relaying, and messages queued there are lost. In a stack network,
	// failing every member of a group models the paper's §2.5 fault unit.
	KindNode Kind = iota
	// KindCoupler fails an OPS coupler: no node can transmit on it.
	KindCoupler
	// KindTransmitter fails one node's transmitter on one coupler; the
	// coupler keeps serving its other tails.
	KindTransmitter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindCoupler:
		return "coupler"
	case KindTransmitter:
		return "tx"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Element identifies one failable hardware element.
type Element struct {
	Kind    Kind
	Node    int // valid for KindNode and KindTransmitter
	Coupler int // valid for KindCoupler and KindTransmitter
}

// String renders the element compactly, e.g. "node17" or "tx3@c12".
func (e Element) String() string {
	switch e.Kind {
	case KindNode:
		return fmt.Sprintf("node%d", e.Node)
	case KindCoupler:
		return fmt.Sprintf("coupler%d", e.Coupler)
	default:
		return fmt.Sprintf("tx%d@c%d", e.Node, e.Coupler)
	}
}

// Event is one scheduled state change: at slot Slot the element fails
// (Repair == false) or comes back (Repair == true). Events at slot s take
// effect before slot s's transmissions.
type Event struct {
	Slot   int
	Repair bool
	Elem   Element
}

// Plan is a deterministic fault schedule: events sorted by slot (stable, so
// same-slot events apply in construction order). The zero value is the
// fault-free plan.
type Plan struct {
	Name   string
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// NewPlan builds a plan from explicit events, stably sorting them by slot.
func NewPlan(name string, events ...Event) Plan {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
	return Plan{Name: name, Events: sorted}
}

// FixedNodes schedules the given nodes to fail permanently at slot.
func FixedNodes(slot int, nodes ...int) Plan {
	events := make([]Event, len(nodes))
	for i, u := range nodes {
		events[i] = Event{Slot: slot, Elem: Element{Kind: KindNode, Node: u}}
	}
	return Plan{Name: fmt.Sprintf("fixed-nodes×%d@%d", len(nodes), slot), Events: events}
}

// pick returns the first k elements of a seeded permutation of universe.
// For a fixed seed the k-element set is nested inside the (k+1)-element
// set, which is what makes degradation curves over fault counts monotone
// scenarios of the same underlying failure order.
func pick(universe []Element, k int, seed int64) []Element {
	if k > len(universe) {
		k = len(universe)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(universe))
	out := make([]Element, k)
	for i := 0; i < k; i++ {
		out[i] = universe[perm[i]]
	}
	return out
}

// universe enumerates every element of the given kind on the topology.
func universe(kind Kind, topo sim.Topology) []Element {
	var out []Element
	switch kind {
	case KindNode:
		for u := 0; u < topo.Nodes(); u++ {
			out = append(out, Element{Kind: KindNode, Node: u})
		}
	case KindCoupler:
		for c := 0; c < topo.Couplers(); c++ {
			out = append(out, Element{Kind: KindCoupler, Coupler: c})
		}
	case KindTransmitter:
		for u := 0; u < topo.Nodes(); u++ {
			for _, c := range topo.OutCouplers(u) {
				out = append(out, Element{Kind: KindTransmitter, Node: u, Coupler: c})
			}
		}
	}
	return out
}

// Random schedules k seeded-random distinct elements of the given kind to
// fail permanently at slot ("k-random-at-slot-s"). Same seed, larger k:
// superset of failures.
func Random(kind Kind, k, slot int, topo sim.Topology, seed int64) Plan {
	elems := pick(universe(kind, topo), k, seed)
	events := make([]Event, len(elems))
	for i, el := range elems {
		events[i] = Event{Slot: slot, Elem: el}
	}
	return NewPlan(fmt.Sprintf("%s×%d@%d", kind, k, slot), events...)
}

// Stochastic schedules transient failures: k seeded-random elements of the
// given kind each alternate up/down with exponentially distributed times of
// mean MTBF (up) and MTTR (down) slots, truncated at horizon. The process
// is deterministic for a given seed.
func Stochastic(kind Kind, k int, topo sim.Topology, mtbf, mttr float64, horizon int, seed int64) Plan {
	if mtbf <= 0 || mttr <= 0 {
		panic(fmt.Sprintf("faults: MTBF and MTTR must be positive (got %g, %g)", mtbf, mttr))
	}
	rng := rand.New(rand.NewSource(seed))
	elems := pick(universe(kind, topo), k, rng.Int63())
	var events []Event
	for _, el := range elems {
		t := rng.ExpFloat64() * mtbf
		for int(t) < horizon {
			events = append(events, Event{Slot: int(t), Elem: el})
			t += rng.ExpFloat64() * mttr
			if int(t) >= horizon {
				break
			}
			events = append(events, Event{Slot: int(t), Repair: true, Elem: el})
			t += rng.ExpFloat64() * mtbf
		}
	}
	return NewPlan(fmt.Sprintf("%s-mtbf%g/%g×%d", kind, mtbf, mttr, k), events...)
}
