// Package obs is the dependency-free observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms, plus a
// low-overhead NDJSON trace sink for engine timelines. Every subsystem
// (internal/sim, internal/sweep, internal/sweepcache, internal/sweepserver)
// registers its instruments in the shared Default registry, which the
// sweep server exposes as Prometheus text (GET /metrics) and as a JSON
// snapshot (GET /api/v1/observe).
//
// The overhead contract that shapes the design: instrumentation must be
// free when idle. The simulation hot path (sim.Engine.Step) performs no
// atomic operations, takes no locks and calls no interfaces — engines
// accumulate plain local tallies and flush them into sharded counters once
// per scenario, so BenchmarkStepAllocFree stays 0 B/op and the headline
// benches stay within noise with the registry wired in. Counters are
// internally sharded across cache-line-padded cells (writers pick a shard
// once, at construction time) and aggregated only on read; histograms
// absorb whole pre-binned bucket arrays in one call per scenario; trace
// hooks hide behind a nil-pointer fast path that compiles to one
// predictable branch.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// shardCount is the number of padded cells per counter. Writers pick a
// cell via NextShard (round-robin over engine/worker construction), so
// concurrent flushes from a worker pool land on distinct cache lines.
// Power of two: shard selection is a mask, never a divide.
const shardCount = 16

// cell is one cache-line-padded counter shard; the padding keeps two
// shards from sharing a line, which is the whole point of sharding.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing metric, sharded across padded
// atomic cells. Add is wait-free; Value sums the shards (aggregate on
// read). The zero value is unusable — obtain counters from a Registry.
type Counter struct {
	name, help string
	seconds    bool // fed nanoseconds, read in seconds (SecondsCounter)
	shards     [shardCount]cell
}

// Add increments the counter through shard 0 — fine for cold paths
// (request handlers, cache lookups under their own lock).
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// AddShard increments through the given shard (masked into range). Hot
// flush paths pass a shard picked once via NextShard so concurrent
// workers never contend on one cache line.
func (c *Counter) AddShard(shard int, n int64) {
	c.shards[shard&(shardCount-1)].v.Add(n)
}

// Value sums every shard. Counters only grow, so the sum is a consistent
// lower bound even while writers race.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// read is the exposed value: Value, or Value in seconds for a counter
// made by SecondsCounter.
func (c *Counter) read() float64 {
	if c.seconds {
		return float64(c.Value()) / 1e9
	}
	return float64(c.Value())
}

// shardSeq hands out shard hints round-robin; see NextShard.
var shardSeq atomic.Int64

// NextShard returns a shard hint for AddShard. Callers that flush
// concurrently (one engine per sweep worker) grab one hint at
// construction time and reuse it for every flush.
func NextShard() int { return int(shardSeq.Add(1)) & (shardCount - 1) }

// Gauge is a metric that can go up and down (queue depths, live jobs).
// A single atomic cell: gauges are set from cold paths only.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value loads the gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: Bounds[i] is the inclusive
// upper edge of bucket i, with one implicit overflow bucket above the
// last bound (Prometheus "+Inf"). Observations are atomic per bucket;
// hot paths pre-bin into a plain local array and merge it in one
// AddBuckets call per scenario.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper edges
	buckets    []atomic.Int64
	count      atomic.Int64
	sum        atomic.Int64 // sum of observed values (integral metrics)
}

// Bounds returns the bucket upper edges (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// NumBuckets returns len(Bounds())+1: the pre-binning array length hot
// paths must allocate.
func (h *Histogram) NumBuckets() int { return len(h.bounds) + 1 }

// BucketOf returns the index of the bucket v falls into (binary search;
// the overflow bucket is len(Bounds())). Hot paths with power-of-two
// bounds can compute indices themselves and skip the search.
func (h *Histogram) BucketOf(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.BucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
}

// AddBuckets merges a pre-binned count array (indexed like BucketOf)
// plus the corresponding value sum in one pass — the once-per-scenario
// flush path. Arrays shorter than NumBuckets merge what they have.
func (h *Histogram) AddBuckets(counts []int64, sum int64) {
	var n int64
	for i, c := range counts {
		if c == 0 || i >= len(h.buckets) {
			continue
		}
		h.buckets[i].Add(c)
		n += c
	}
	h.count.Add(n)
	h.sum.Add(sum)
}

// HistogramSnapshot is a consistent-enough read of a histogram: bucket
// counts (including the overflow bucket), total count and value sum.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // len(Bounds)+1, last is overflow
	Count   int64     `json:"count"`
	Sum     int64     `json:"sum"`
}

// Snapshot reads the histogram. Counts are loaded bucket by bucket, so a
// racing Observe may or may not appear — fine for monitoring reads.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Buckets: make([]int64, len(h.buckets))}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot by
// linear interpolation inside the containing bucket, Prometheus
// histogram_quantile style: bucket i spans (lower, Bounds[i]] with lower
// = Bounds[i-1] (0 for the first bucket). An estimate landing in the
// overflow bucket returns the last bound (the histogram cannot resolve
// beyond its range); an empty histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: unbounded above, clamp to the last edge.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		return lower + (s.Bounds[i]-lower)*(rank-prev)/float64(c)
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// GaugeFunc is a read-time gauge: the callback is evaluated at every
// scrape/snapshot, so subsystems with their own counters (sweepcache
// stats) export them without double bookkeeping.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// Registry holds named instruments. Registration is idempotent by name
// (the first help string wins) but type-sticky: re-registering a name as
// a different kind panics, because two exporters would collide on the
// Prometheus family. The zero value is unusable; use NewRegistry or the
// shared Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]*GaugeFunc
	names    []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]*GaugeFunc{},
	}
}

// defaultRegistry is the process-wide registry every subsystem registers
// into; see Default.
var defaultRegistry = NewRegistry()

// Default returns the shared process-wide registry — what `netsim serve`
// exposes on /metrics and /api/v1/observe.
func Default() *Registry { return defaultRegistry }

func (r *Registry) checkName(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic("obs: " + name + " already registered as a counter")
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic("obs: " + name + " already registered as a gauge")
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic("obs: " + name + " already registered as a histogram")
	}
	if _, ok := r.funcs[name]; ok && kind != "gaugefunc" {
		panic("obs: " + name + " already registered as a gauge func")
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counter(name, help, false)
}

// SecondsCounter returns a counter of elapsed time, creating it on first
// use: writers add nanoseconds, and /metrics and Snapshot read seconds.
func (r *Registry) SecondsCounter(name, help string) *Counter {
	return r.counter(name, help, true)
}

func (r *Registry) counter(name, help string, seconds bool) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkName(name, "counter")
	c := &Counter{name: name, help: help, seconds: seconds}
	r.counters[name] = c
	r.names = append(r.names, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkName(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.names = append(r.names, name)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket bounds on first use (later calls
// reuse the first bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkName(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s bucket bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name: name, help: help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	r.names = append(r.names, name)
	return h
}

// GaugeFunc registers a read-time gauge evaluated at every scrape.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		return
	}
	r.checkName(name, "gaugefunc")
	r.funcs[name] = &GaugeFunc{name: name, help: help, fn: fn}
	r.names = append(r.names, name)
}

// Snapshot is a point-in-time JSON-serializable read of a registry.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.read()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, f := range r.funcs {
		s.Gauges[name] = f.fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative
// le-labelled histogram buckets with a +Inf bucket, _sum and _count
// series. Families appear in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.names {
		switch {
		case r.counters[name] != nil:
			c := r.counters[name]
			writeHeader(&b, name, c.help, "counter")
			if c.seconds {
				fmt.Fprintf(&b, "%s %s\n", name, formatFloat(c.read()))
			} else {
				fmt.Fprintf(&b, "%s %d\n", name, c.Value())
			}
		case r.gauges[name] != nil:
			g := r.gauges[name]
			writeHeader(&b, name, g.help, "gauge")
			fmt.Fprintf(&b, "%s %d\n", name, g.Value())
		case r.funcs[name] != nil:
			f := r.funcs[name]
			writeHeader(&b, name, f.help, "gauge")
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(f.fn()))
		case r.hists[name] != nil:
			h := r.hists[name]
			writeHeader(&b, name, h.help, "histogram")
			s := h.Snapshot()
			var cum int64
			for i, bound := range s.Bounds {
				cum += s.Buckets[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
			fmt.Fprintf(&b, "%s_sum %d\n", name, s.Sum)
			fmt.Fprintf(&b, "%s_count %d\n", name, s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float the Prometheus way: integers without a
// decimal point, everything else shortest-round-trip.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
