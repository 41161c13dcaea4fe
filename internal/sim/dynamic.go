package sim

// TopologyChange summarizes what a DynamicTopology.Advance call did, so the
// engine can react to failures without knowing how they are modeled.
type TopologyChange struct {
	// Changed is false when no event fired; the zero value means "nothing
	// happened" and costs the engine a single branch per slot.
	Changed bool
	// FailedNodes lists the nodes that went down during this advance.
	// Messages queued there are stranded: the engine purges them and counts
	// them as LostToFaults. The slice is only valid until the next Advance.
	FailedNodes []int
	// EntryChanged reports whether the routing decision for (u, dst)
	// differs from before the advance: faults.FaultedTopology compares the
	// per-node entries (RouteBlocks.Entry) of its blocks before and after.
	// The engine uses it to count queued messages whose path just changed
	// (Metrics.Reroutes). It is only valid until the next Advance, and may
	// be nil when the implementation does not track per-entry deltas.
	EntryChanged func(u, dst int) bool
}

// DynamicTopology is a Topology whose structure can change between slots —
// the contract between the engine and a fault-injection layer such as
// faults.FaultedTopology. The engine calls Advance at the top of every
// Step, before arbitration, so an event at slot s affects slot s's
// transmissions; between events Advance must cost about a comparison, and
// the engine reads the lists and blocks it copied or borrowed at the last
// event, never the topology.
//
// A dynamic topology only masks its structure:
//   - after Reset, OutCouplers and Heads return the pristine lists;
//   - after any Advance, each live out-list and head-list is a sublist of
//     its pristine list.
//
// The engine sizes its CSR copies and counts the coupler fan-in F once, on
// the pristine lists, so a mask that shrinks a list fits its slot and can
// only lower F. A list that grows past its pristine length breaks the
// contract, and the engine panics saying so.
type DynamicTopology interface {
	Topology
	// Reset restores the initial (pre-event) state. NewEngine calls it so
	// every run over the same value starts from slot 0, which is what lets
	// saturation searches and repeated sweeps reuse one wrapped topology.
	Reset()
	// Advance applies every pending event scheduled at or before slot and
	// reports what changed.
	Advance(slot int) TopologyChange
}
