package faults

import (
	"fmt"

	"otisnet/internal/sim"
)

// Spec is a compact, value-type description of a fault scenario, designed
// to be a sweep-grid axis: it defers materializing the Plan (which needs
// the concrete topology and a seed) until the scenario runs. The zero Spec
// means "no faults" and wraps nothing, so fault-free sweep points run on
// the bare topology, bit-for-bit identical to sweeps without a fault axis.
type Spec struct {
	// Kind is the element class to fail.
	Kind Kind
	// Count is how many elements fail; 0 means no faults.
	Count int
	// Slot is when the one-shot failure batch strikes (ignored for
	// stochastic specs).
	Slot int
	// MTBF/MTTR, when both positive, select a stochastic transient-failure
	// process of these mean up/down times over Horizon slots.
	MTBF, MTTR float64
	Horizon    int
	// Seed overrides the scenario seed for the plan when non-zero, pinning
	// the same fault set across seeds of a sweep point.
	Seed int64
}

// IsZero reports whether the spec describes the fault-free scenario.
func (s Spec) IsZero() bool { return s.Count == 0 }

// Label is the human- and CSV-facing scenario identifier.
func (s Spec) Label() string {
	if s.IsZero() {
		return "none"
	}
	if s.MTBF > 0 {
		return fmt.Sprintf("%s-mtbf%g/%g×%d", s.Kind, s.MTBF, s.MTTR, s.Count)
	}
	return fmt.Sprintf("%s×%d@%d", s.Kind, s.Count, s.Slot)
}

// Validate rejects specs no plan can honor: a negative count, strike slot,
// MTBF or MTTR (NaN included), or only one of MTBF and MTTR set. Every
// input boundary that builds a Spec from user input (CLI flags, sweep
// GridSpec JSON) funnels through it.
func (s Spec) Validate() error {
	switch {
	case s.Count < 0:
		return fmt.Errorf("faults: bad count %d (want >= 0)", s.Count)
	case s.Slot < 0:
		return fmt.Errorf("faults: bad slot %d (want >= 0)", s.Slot)
	case !(s.MTBF >= 0):
		return fmt.Errorf("faults: bad mtbf %g (want >= 0)", s.MTBF)
	case !(s.MTTR >= 0):
		return fmt.Errorf("faults: bad mttr %g (want >= 0)", s.MTTR)
	case (s.MTBF > 0) != (s.MTTR > 0):
		return fmt.Errorf("faults: mtbf and mttr must be set together")
	}
	return nil
}

// planSeed picks the plan's RNG seed.
func (s Spec) planSeed(seed int64) int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return seed
}

// Plan materializes the fault schedule for a concrete topology.
func (s Spec) Plan(topo sim.Topology, seed int64) Plan {
	if s.IsZero() {
		return Plan{Name: "none"}
	}
	if s.MTBF > 0 && s.MTTR > 0 {
		horizon := s.Horizon
		if horizon == 0 {
			horizon = 10000 // sweep.Grid.Points sets the scenario's slots + drain
		}
		return Stochastic(s.Kind, s.Count, topo, s.MTBF, s.MTTR, horizon, s.planSeed(seed))
	}
	return Random(s.Kind, s.Count, s.Slot, topo, s.planSeed(seed))
}

// Wrap returns topo unchanged for the zero spec, else a fresh
// FaultedTopology replaying the materialized plan. Each call builds an
// independent instance, safe for one concurrent scenario each.
func (s Spec) Wrap(topo sim.Topology, seed int64) sim.Topology {
	if s.IsZero() {
		return topo
	}
	return Wrap(topo, s.Plan(topo, seed))
}
