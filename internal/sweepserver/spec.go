package sweepserver

import (
	"encoding/json"
	"fmt"

	"otisnet/internal/faults"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// GridSpec is the one description of a sweep grid: the serializable
// counterpart of sweep.Grid, with topologies, workloads and faults given
// as specs instead of live values. The service decodes it from JSON, every
// `netsim work` process re-expands it per lease, and cmd/netsim builds one
// from its flags (a single run is the one-point grid), so all three
// expand a grid with the same code. Zero-valued axes take the same
// defaults as sweep.Grid.Points (one 0.2-load point, seed 1,
// store-and-forward, one wavelength, 1000 slots), except that a grid with
// a trace workload and no rates replays at rate 1.
type GridSpec struct {
	Topologies  []sweep.TopoSpec `json:"topologies"`
	Rates       []float64        `json:"rates,omitempty"`
	Seeds       []int64          `json:"seeds,omitempty"`
	Modes       []string         `json:"modes,omitempty"` // "sf" and/or "deflect"
	Wavelengths []int            `json:"wavelengths,omitempty"`
	MaxQueue    int              `json:"max_queue,omitempty"`
	Slots       int              `json:"slots,omitempty"`
	Drain       int              `json:"drain,omitempty"`
	Workloads   []WorkloadSpec   `json:"workloads,omitempty"`
	Faults      []FaultSpec      `json:"faults,omitempty"`
	// Shards > 0 runs the grid distributed: the point list splits into
	// this many leased shards executed by `netsim work` processes; 0 runs
	// one shard per server worker in-process. Merged results are
	// bit-for-bit identical either way.
	Shards int `json:"shards,omitempty"`
	// Priority orders jobs of the same kind (sharded or not) in the lease
	// queue (higher first; ties go to earlier submissions).
	Priority int `json:"priority,omitempty"`
}

// WorkloadSpec is the JSON form of workload.Spec. Trace workloads name a
// file: the submitting client and every worker re-expanding the grid scan
// the file at the given path themselves, so it must be readable at the
// same path on every machine that runs the job — a mismatch surfaces as a
// scan error or a cache-key mismatch at merge time, never as silently
// divergent traffic.
type WorkloadSpec struct {
	Kind      string  `json:"kind"` // uniform, transpose, hotspot, bursty, trace or multiperiod
	HotGroup  int     `json:"hot_group,omitempty"`
	Fraction  float64 `json:"fraction,omitempty"`
	MeanOn    float64 `json:"mean_on,omitempty"`
	MeanOff   float64 `json:"mean_off,omitempty"`
	OffFactor float64 `json:"off_factor,omitempty"`
	// TraceFile is the trace path for kind "trace".
	TraceFile string `json:"trace_file,omitempty"`
	// Period..RateSigma parameterize kind "multiperiod".
	Period     int     `json:"period,omitempty"`
	Amplitude  float64 `json:"amplitude,omitempty"`
	EpisodeOn  float64 `json:"episode_on,omitempty"`
	EpisodeOff float64 `json:"episode_off,omitempty"`
	RateSigma  float64 `json:"rate_sigma,omitempty"`
}

// spec converts to the sweep-axis value, keeping only the parameters of
// the selected kind, and range-checks it with workload.Spec.Validate.
func (ws WorkloadSpec) spec() (workload.Spec, error) {
	kind, err := workload.ParseKind(ws.Kind)
	if err != nil {
		return workload.Spec{}, err
	}
	s := workload.Spec{Kind: kind}
	switch kind {
	case workload.KindHotspot:
		s.HotGroup, s.Fraction = ws.HotGroup, ws.Fraction
	case workload.KindBursty:
		s.MeanOn, s.MeanOff, s.OffFactor = ws.MeanOn, ws.MeanOff, ws.OffFactor
	case workload.KindTrace:
		if ws.TraceFile == "" {
			return workload.Spec{}, fmt.Errorf("the trace workload names no trace file (trace_file, or netsim -tracefile)")
		}
		return workload.NewTraceSpec(ws.TraceFile)
	case workload.KindMultiPeriod:
		s = workload.Spec{
			Kind: kind, Period: ws.Period, Amplitude: ws.Amplitude,
			EpisodeOn: ws.EpisodeOn, EpisodeOff: ws.EpisodeOff,
			MeanOn: ws.MeanOn, MeanOff: ws.MeanOff,
			RateSigma: ws.RateSigma, OffFactor: ws.OffFactor,
		}
	}
	return s, s.Validate()
}

// FaultSpec is the JSON form of faults.Spec. MTBF and MTTR select the
// stochastic transient process when both are positive; otherwise Count
// elements fail permanently at Slot. Seed pins the fault set across the
// grid's seed axis when non-zero.
type FaultSpec struct {
	Kind  string  `json:"kind"` // node, coupler or tx
	Count int     `json:"count"`
	Slot  int     `json:"slot,omitempty"`
	MTBF  float64 `json:"mtbf,omitempty"`
	MTTR  float64 `json:"mttr,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

// spec validates and converts to the sweep-axis value.
func (fs FaultSpec) spec() (faults.Spec, error) {
	var kind faults.Kind
	switch fs.Kind {
	case "", "node":
		kind = faults.KindNode
	case "coupler":
		kind = faults.KindCoupler
	case "tx":
		kind = faults.KindTransmitter
	default:
		return faults.Spec{}, fmt.Errorf("unknown fault kind %q (want node, coupler or tx)", fs.Kind)
	}
	spec := faults.Spec{Kind: kind, Count: fs.Count, Slot: fs.Slot, MTBF: fs.MTBF, MTTR: fs.MTTR, Seed: fs.Seed}
	return spec, spec.Validate()
}

// PointsFromSpec expands a GridSpec JSON payload into the grid's point
// list — the coordinator.PointsBuilder used by `netsim work`. Both ends
// of the worker protocol run exactly this expansion (the server when it
// submits the job, the worker when it receives a lease), and
// TopoSpec.Build plus Grid.Points are deterministic, so the shard-row
// cache keys line up at merge time whenever the two binaries agree on
// engine semantics — and fail the merge loudly when they do not.
func PointsFromSpec(payload []byte) ([]sweep.Scenario, error) {
	var spec GridSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, fmt.Errorf("sweepserver: bad grid payload: %w", err)
	}
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	return grid.Points(), nil
}

// Grid builds the live sweep.Grid: topologies are constructed and
// validated (sim.CheckTopology), rates, wavelengths and modes checked,
// workloads and faults validated by workload.Spec.Validate and
// faults.Spec.Validate. These are the only scenario checks, for the
// service and the command line alike, so a bad grid is a 4xx or a netsim
// usage error, never a panic inside a worker goroutine.
func (gs GridSpec) Grid() (sweep.Grid, error) {
	return gs.grid(buildAndCheck)
}

// buildAndCheck is the default topology constructor: build plus the
// reachability/sanity validation.
func buildAndCheck(ts sweep.TopoSpec) (sweep.Topology, error) {
	topo, err := ts.Build()
	if err != nil {
		return sweep.Topology{}, err
	}
	if err := sim.CheckTopology(topo.Topo); err != nil {
		return sweep.Topology{}, err
	}
	return topo, nil
}

// grid is Grid with a pluggable topology constructor, so the server can
// reuse built (and already validated) topologies across submissions.
func (gs GridSpec) grid(build func(sweep.TopoSpec) (sweep.Topology, error)) (sweep.Grid, error) {
	if len(gs.Topologies) == 0 {
		return sweep.Grid{}, fmt.Errorf("grid names no topologies")
	}
	g := sweep.Grid{
		Rates:       gs.Rates,
		Seeds:       gs.Seeds,
		Wavelengths: gs.Wavelengths,
		MaxQueue:    gs.MaxQueue,
		Slots:       gs.Slots,
		Drain:       gs.Drain,
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"slots", gs.Slots}, {"drain", gs.Drain}, {"max_queue", gs.MaxQueue}} {
		if f.v < 0 {
			return sweep.Grid{}, fmt.Errorf("%s %d negative", f.name, f.v)
		}
	}
	for _, r := range gs.Rates {
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return sweep.Grid{}, fmt.Errorf("rate %g not a probability in [0,1]", r)
		}
	}
	for _, w := range gs.Wavelengths {
		if w < 1 {
			return sweep.Grid{}, fmt.Errorf("wavelength count %d < 1", w)
		}
	}
	for _, ts := range gs.Topologies {
		topo, err := build(ts)
		if err != nil {
			return sweep.Grid{}, err
		}
		g.Topologies = append(g.Topologies, topo)
	}
	for _, m := range gs.Modes {
		switch m {
		case "sf":
			g.Modes = append(g.Modes, sweep.StoreAndForward)
		case "deflect":
			g.Modes = append(g.Modes, sweep.Deflection)
		default:
			return sweep.Grid{}, fmt.Errorf("unknown mode %q (want sf or deflect)", m)
		}
	}
	// Hotspot hot_group is deliberately not range-checked against the
	// topologies: workload.Hotspot documents modulo-group semantics, so any
	// non-negative index is valid on every topology in a mixed-scale sweep
	// (the per-first-topology rejection this replaces contradicted that
	// contract).
	traces, eventTraces := 0, 0
	for _, ws := range gs.Workloads {
		spec, err := ws.spec()
		if err != nil {
			return sweep.Grid{}, err
		}
		if spec.Kind == workload.KindTrace {
			traces++
			if spec.TraceForm == workload.TraceEvents {
				eventTraces++
			}
		}
		g.Workloads = append(g.Workloads, spec)
	}
	if eventTraces > 0 {
		// Event traces replay verbatim: a rate axis cannot be honored, so
		// reject one rather than emit rows whose rate column lies.
		if len(g.Rates) > 0 {
			return sweep.Grid{}, fmt.Errorf("event-form trace workloads replay verbatim; omit rates (or use a rates-form trace to scale)")
		}
		if eventTraces < len(g.Workloads) {
			return sweep.Grid{}, fmt.Errorf("event-form trace workloads cannot share a grid with rate-driven workloads (the rate axis applies to all)")
		}
	}
	if traces > 0 && len(g.Rates) == 0 {
		// Traces replay (events) or scale (rates) as recorded unless a
		// rate axis says otherwise, never at the uniform-load default.
		g.Rates = []float64{1}
	}
	for _, fs := range gs.Faults {
		spec, err := fs.spec()
		if err != nil {
			return sweep.Grid{}, err
		}
		g.Faults = append(g.Faults, spec)
	}
	return g, nil
}
