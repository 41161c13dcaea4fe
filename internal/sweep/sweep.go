// Package sweep fans grids of simulation scenarios across a worker pool.
//
// The single-point entry points of package sim (Run, SaturationSearch)
// answer one (topology, traffic, seed, config) question at a time; a paper
// campaign or a capacity-planning study needs hundreds of such points —
// every topology at every offered load, several seeds per point for error
// bars, with and without deflection, across wavelength counts. Package
// sweep expands such a grid into concrete scenarios, runs them across
// goroutines, and aggregates the per-point metrics into saturation curves
// with mean/stddev over seeds.
//
// Each worker reuses one compiled engine per topology across its scenarios
// (sim.Engine.Reset re-arms queues, scratch and the compiled route
// snapshot without reallocating), and every scenario gets its own seeded
// RNG, so a sweep reproduces single-run sim.Run numbers bit-for-bit
// regardless of worker count or scheduling order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"otisnet/internal/faults"
	"otisnet/internal/obs"
	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

// Mode selects the contention-resolution discipline of a scenario.
type Mode int

const (
	// StoreAndForward queues losing messages (the paper's default).
	StoreAndForward Mode = iota
	// Deflection re-routes losing messages hot-potato style.
	Deflection
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Deflection {
		return "hot-potato"
	}
	return "store-and-forward"
}

// Topology pairs a simulation topology with a display name. GroupSize is
// the node count per group (s for stack networks, t for POPS), used by
// group-structured workloads (transpose, hotspot); 0 means no group
// structure and degenerates those workloads to their single-node forms.
type Topology struct {
	Name      string
	Topo      sim.Topology
	GroupSize int
}

// Scenario is one fully specified simulation point.
type Scenario struct {
	Topology    Topology
	TrafficName string
	Rate        float64
	Seed        int64
	Mode        Mode
	Wavelengths int
	MaxQueue    int
	Slots       int
	Drain       int
	// Fault describes the fault-injection axis; the zero value runs on the
	// bare topology (bit-for-bit identical to pre-fault sweeps).
	Fault faults.Spec
	// Workload selects the traffic generator; the zero spec is the uniform
	// workload, bit-for-bit identical to pre-workload sweeps.
	Workload workload.Spec
}

// topo returns the scenario's topology, wrapped in a private fault layer
// when the fault axis is active. Wrapping per scenario keeps the shared
// base read-only across workers; the FaultedTopology itself is mutable.
// Runner.Run does not call this — its workers reuse one fault wrapper per
// base via SetPlan — but it remains the single-scenario reference path.
func (s Scenario) topo() sim.Topology {
	return s.Fault.Wrap(s.Topology.Topo, s.Seed)
}

// Run executes the scenario standalone on a fresh engine. Runner.Run
// produces identical metrics while reusing engines across scenarios.
func (s Scenario) Run() sim.Metrics {
	return sim.Run(s.topo(), s.traffic(), s.Slots, s.Drain, s.Config())
}

// Config translates the scenario into the engine configuration.
func (s Scenario) Config() sim.Config {
	return sim.Config{
		Seed:        s.Seed,
		MaxQueue:    s.MaxQueue,
		Deflection:  s.Mode == Deflection,
		Wavelengths: s.Wavelengths,
	}
}

// traffic materializes the scenario's Workload spec for its topology (the
// zero spec is sim.UniformTraffic, so legacy grids reproduce bit for bit).
// One generator per scenario: bursty workloads are stateful and never
// shared across engines.
func (s Scenario) traffic() sim.Traffic {
	return s.Workload.New(s.Rate, s.Topology.Topo.Nodes(), s.Topology.GroupSize)
}

// Grid is a cross-product description of scenarios. Zero-valued axes get
// sensible defaults so callers only set what they vary.
type Grid struct {
	Topologies  []Topology
	Rates       []float64
	Seeds       []int64
	Modes       []Mode
	Wavelengths []int
	MaxQueue    int
	Slots       int
	Drain       int
	// Faults is the fault-injection axis: each spec is crossed with every
	// other axis (e.g. node-fault counts 0..d for a degradation curve).
	// Empty means the single fault-free spec.
	Faults []faults.Spec
	// Workloads is the workload axis: each spec is crossed with every other
	// axis. Empty means the single uniform workload.
	Workloads []workload.Spec
}

// Points expands the grid into scenarios in deterministic order:
// topology-major, then rate, mode, wavelengths, workload, fault, seed.
func (g Grid) Points() []Scenario {
	rates := g.Rates
	if len(rates) == 0 {
		rates = []float64{0.2}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	modes := g.Modes
	if len(modes) == 0 {
		modes = []Mode{StoreAndForward}
	}
	waves := g.Wavelengths
	if len(waves) == 0 {
		waves = []int{1}
	}
	slots := g.Slots
	if slots == 0 {
		slots = 1000
	}
	fspecs := g.Faults
	if len(fspecs) == 0 {
		fspecs = []faults.Spec{{}}
	}
	wspecs := g.Workloads
	if len(wspecs) == 0 {
		wspecs = []workload.Spec{{}}
	}
	var pts []Scenario
	for _, topo := range g.Topologies {
		for _, rate := range rates {
			for _, mode := range modes {
				for _, w := range waves {
					for _, wl := range wspecs {
						name := wl.Label()
						for _, fs := range fspecs {
							if fs.MTBF > 0 && fs.Horizon == 0 {
								fs.Horizon = slots + g.Drain // the whole simulated run
							}
							for _, seed := range seeds {
								pts = append(pts, Scenario{
									Topology:    topo,
									TrafficName: name,
									Rate:        rate,
									Seed:        seed,
									Mode:        mode,
									Wavelengths: w,
									Workload:    wl,
									MaxQueue:    g.MaxQueue,
									Slots:       slots,
									Drain:       g.Drain,
									Fault:       fs,
								})
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// Result pairs a scenario with its measured metrics.
type Result struct {
	Scenario Scenario
	Metrics  sim.Metrics
	// Key is the Scenario.CacheKey that RunCached looked the point up
	// under, so shard rows reuse it instead of hashing again; empty when
	// the run had no cache.
	Key string
}

// Runner executes scenarios across a pool of goroutines. Each scenario
// steps through the engine's one serial slot kernel, with its traffic
// drawn ahead on a producer goroutine; a sweep's parallelism is the point
// worker pool (Workers).
type Runner struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Deprecated: ignored; every point runs on its worker's reused Engine.
	Replicas int
}

// Deprecated: ignored, like Runner.Replicas.
const AutoReplicas = -1

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every scenario and returns results in input order. Each
// worker keeps a private cache of compiled engines keyed by base topology
// — Engine.Reset rewinds queues, scratch and the compiled route snapshot
// between scenarios, and fault scenarios reuse one FaultedTopology per
// base via SetPlan — so a 1000-point grid allocates its simulation state
// once per (worker, topology), not once per scenario. Every scenario still
// gets a private seeded RNG via Engine.Run, so results are bit-for-bit
// identical to standalone Scenario.Run calls regardless of worker count or
// scheduling order.
func (r Runner) Run(points []Scenario) []Result {
	results, _ := r.RunCached(context.Background(), points, nil, nil)
	return results
}

// PointCache is the lookup/store contract of a content-addressed result
// cache (implemented by internal/sweepcache). Keys are Scenario.CacheKey
// values. Implementations must be safe for concurrent use by every worker
// goroutine.
type PointCache interface {
	Lookup(key string) (sim.Metrics, bool)
	Store(key string, m sim.Metrics)
}

// Progress is invoked once per completed point, from worker goroutines —
// implementations must tolerate concurrent calls. i is the point's index
// in the input slice; cached reports a cache hit (the point was reused,
// not computed).
type Progress func(i int, res Result, cached bool)

// RunCached is Run with a result cache, per-point progress events and
// cooperative cancellation. Points found in the cache (by
// Scenario.CacheKey) are reused without touching an engine; computed
// points are stored back, so an interrupted grid resumes where it stopped
// and overlapping grids share work. Cache hits are bit-for-bit the metrics
// the engine would have produced — keys cover everything the engine reads
// — so results are identical to Run regardless of hit pattern. cache and
// progress may be nil. Cancellation has per-point granularity: in-flight
// scenarios finish (and are cached), unstarted ones are skipped, and the
// error reports ctx.Err() with the returned slice holding zero Metrics for
// every skipped point.
func (r Runner) RunCached(ctx context.Context, points []Scenario, cache PointCache, progress Progress) ([]Result, error) {
	results := make([]Result, len(points))
	err := r.fan(ctx, len(points), func() func(int) {
		engines := &engineCache{}
		sh := obs.NextShard()
		return func(i int) {
			sweepObs.started.AddShard(sh, 1)
			p := points[i]
			key := ""
			if cache != nil {
				key = p.CacheKey()
				if m, ok := cache.Lookup(key); ok {
					sweepObs.cached.AddShard(sh, 1)
					results[i] = Result{Scenario: p, Metrics: m, Key: key}
					if progress != nil {
						progress(i, results[i], true)
					}
					return
				}
			}
			t0 := time.Now()
			m := engines.run(p)
			sweepObs.busyNS.AddShard(sh, time.Since(t0).Nanoseconds())
			sweepObs.completed.AddShard(sh, 1)
			if cache != nil {
				cache.Store(key, m)
			}
			results[i] = Result{Scenario: p, Metrics: m, Key: key}
			if progress != nil {
				progress(i, results[i], false)
			}
		}
	})
	return results, err
}

// engineCache is one sweep worker's pool of reusable simulation state,
// keyed by base-topology identity. Grids name only a handful of
// topologies, so a linear scan beats hashing interface values.
type engineCache struct {
	entries []cacheEntry
}

// cacheEntry holds the reusable state for one base topology: an engine
// compiled over the bare base for fault-free scenarios, and a fault
// wrapper plus the engine compiled over it (borrowing its live route
// table) for the fault axis.
type cacheEntry struct {
	base  sim.Topology
	eng   *sim.Engine
	ft    *faults.FaultedTopology
	ftEng *sim.Engine
}

func (c *engineCache) entry(base sim.Topology) *cacheEntry {
	for i := range c.entries {
		if c.entries[i].base == base {
			return &c.entries[i]
		}
	}
	c.entries = append(c.entries, cacheEntry{base: base})
	return &c.entries[len(c.entries)-1]
}

// run executes one scenario on the worker's cached state.
func (c *engineCache) run(p Scenario) sim.Metrics {
	ent := c.entry(p.Topology.Topo)
	cfg := p.Config()
	if p.Fault.IsZero() {
		if ent.eng == nil {
			ent.eng = sim.NewEngine(ent.base, cfg)
		}
		return ent.eng.Run(p.traffic(), p.Slots, p.Drain, cfg)
	}
	plan := p.Fault.Plan(ent.base, p.Seed)
	if ent.ft == nil {
		ent.ft = faults.Wrap(ent.base, plan)
		ent.ftEng = sim.NewEngine(ent.ft, cfg)
	} else {
		ent.ft.SetPlan(plan)
	}
	return ent.ftEng.Run(p.traffic(), p.Slots, p.Drain, cfg)
}

// RunGrid expands the grid and runs it.
func (r Runner) RunGrid(g Grid) []Result { return r.Run(g.Points()) }

// SaturationPoint is the saturation rate of one (topology, mode,
// wavelengths) combination.
type SaturationPoint struct {
	Topology    string
	Mode        Mode
	Wavelengths int
	Rate        float64
}

// Saturate binary-searches the uniform-load saturation rate of every
// (topology, mode, wavelengths) combination concurrently, delegating each
// search to sim.SaturationSearch so results match sequential searches
// exactly. Combinations of one topology with the same sim.Config.Canonical
// run the same engine bit for bit, so each is searched once.
func (r Runner) Saturate(g Grid, slots int, sustainFraction float64, seed int64) []SaturationPoint {
	modes := g.Modes
	if len(modes) == 0 {
		modes = []Mode{StoreAndForward}
	}
	waves := g.Wavelengths
	if len(waves) == 0 {
		waves = []int{1}
	}
	type search struct {
		topo sim.Topology
		cfg  sim.Config
		rate float64
	}
	var pts []SaturationPoint
	var searches []search
	var of []int // pts[i]'s rate is searches[of[i]].rate
	for _, topo := range g.Topologies {
		fanIn := identity(topo.Topo).FanIn
		for _, mode := range modes {
			for _, w := range waves {
				s := search{topo: topo.Topo, cfg: sim.Config{Seed: seed, MaxQueue: g.MaxQueue, Deflection: mode == Deflection, Wavelengths: w}.Canonical(fanIn)}
				k := slices.Index(searches, s)
				if k < 0 {
					k = len(searches)
					searches = append(searches, s)
				}
				pts = append(pts, SaturationPoint{Topology: topo.Name, Mode: mode, Wavelengths: w})
				of = append(of, k)
			}
		}
	}
	fn := func(i int) {
		searches[i].rate = sim.SaturationSearch(searches[i].topo, slots, sustainFraction, searches[i].cfg)
	}
	r.fan(context.Background(), len(searches), func() func(int) { return fn })
	for i := range pts {
		pts[i].Rate = searches[of[i]].rate
	}
	return pts
}

// fan runs the indices 0..n-1 across the worker pool and waits for
// completion. Each worker goroutine builds its private body with
// newWorker (e.g. over an engine cache) and claims indices one at a time
// from a shared counter, which costs no goroutine handoff per point (a
// warm-cache point is only a lookup). Once ctx is done no further indices
// are claimed (indices already claimed finish normally) and ctx.Err() is
// returned.
func (r Runner) fan(ctx context.Context, n int, newWorker func() func(i int)) error {
	var next atomic.Int64 // indices claimed so far
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		fn := newWorker()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	workers := min(r.workers(), n)
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	if workers > 0 {
		work() // the caller is the last worker: a one-worker run starts no goroutine
	}
	wg.Wait()
	return ctx.Err()
}

// Label is a compact human-readable scenario identifier.
func (s Scenario) Label() string {
	l := fmt.Sprintf("%s/%s r=%.3g w=%d seed=%d %s",
		s.Topology.Name, s.TrafficName, s.Rate, s.Wavelengths, s.Seed, s.Mode)
	if !s.Workload.IsZero() && s.TrafficName != s.Workload.Label() {
		l += " workload=" + s.Workload.Label()
	}
	if !s.Fault.IsZero() {
		l += " faults=" + s.Fault.Label()
	}
	return l
}
