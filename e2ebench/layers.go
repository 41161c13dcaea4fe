package main

// Per-layer attribution, recorded only from outside the program: a
// transport on each worker's coordinator client, a wrapper around its
// points builder and its point cache, and the server's GET /metrics
// counters. Nothing here changes what the program computes.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepserver"
)

// layerCatalog is every per-layer metric, in BENCHMARK.json order. A traced
// run prints all of them on every workload; a layer that does no work on
// the workload reads 0. Fleet figures (worker.*, coordinator.*,
// sweepcache.* counts, sweep.orchestration_s) are per job, summed over
// the two workers.
var layerCatalog = []struct{ name, unit string }{
	{"topology.build_s", "s"},
	{"topology.heap_mb", "MiB"},
	{"sim.compile_s", "s"},
	{"workload.gen_us_per_slot", "us"},
	{"sim.step_us_per_slot", "us"},
	{"sim.ns_per_hop", "ns"},
	{"sim.slots", "count"},
	{"sim.injected", "count"},
	{"sim.delivered", "count"},
	{"sim.hops", "count"},
	{"sweep.expand_ms", "ms"},
	{"sweep.orchestration_s", "s"},
	{"sweep.batch_points", "count"},
	{"sweepcache.lookups", "count"},
	{"sweepcache.hits", "count"},
	{"sweepcache.lookup_ns", "ns"},
	{"sweepcache.stores", "count"},
	{"sweepcache.store_ns", "ns"},
	{"sweepcache.load_s", "s"},
	{"coordinator.acquire_ms", "ms"},
	{"coordinator.complete_ms", "ms"},
	{"coordinator.acquires", "count"},
	{"coordinator.empty_acquires", "count"},
	{"coordinator.renews", "count"},
	{"coordinator.steals", "count"},
	{"coordinator.accepted_ratio", "ratio"},
	{"sweepserver.submit_ms", "ms"},
	{"sweepserver.merge_ms", "ms"},
	{"sweepserver.stream_ms", "ms"},
	{"worker.wall_s", "s"},
	{"worker.acquire_s", "s"},
	{"worker.expand_s", "s"},
	{"worker.engine_s", "s"},
	{"worker.cache_s", "s"},
	{"worker.complete_s", "s"},
	{"worker.idle_s", "s"},
	{"split.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layers collects one traced run's per-layer values.
type layers map[string]float64

func (l layers) set(name string, v float64) { l[name] = v }

// report prints every catalog metric; unset ones read 0.
func (l layers) report(b *bench) {
	for _, m := range layerCatalog {
		b.rep.set(m.name, l[m.name], m.unit)
	}
}

// overhead is how much slower the traced repetitions were than the plain
// ones, as a share of the plain median.
func overhead(plain, traced []float64) float64 {
	p := median(plain)
	if p == 0 {
		return 0
	}
	return median(traced)/p - 1
}

// workerTrace is one worker's timeline. Its wall time splits into
//
//	acquire + complete  lease round trips, from request to body close
//	shard span          from a granting acquire to the shard's complete
//	loop                from a complete to the next request
//	idle                from an empty acquire to the next request
//	residual            whatever the above miss
//
// and span + loop = expand + cache + engine + orchestration.
//
// Engine time is inferred from the cache call order: the batched runner
// looks up every point of a batch, runs the misses on one replica set and
// then stores them, so the gap between a batch's last lookup and its first
// store is the engine (including the replica-set build).
type workerTrace struct {
	mu         sync.Mutex
	start, end time.Time

	acquire, complete, idle, span, loop time.Duration
	expand                              time.Duration
	lookupT, storeT, engine             time.Duration
	acquires, empty, renews             int
	completes, accepted                 int
	lookups, hits, stores, builds       int

	grantEnd      time.Time // end of the acquire that granted the running shard
	emptyEnd      time.Time // end of the last empty acquire; zero while busy
	completeEnd   time.Time // end of the last complete; zero once a request followed
	lastLookupEnd time.Time // end of the last lookup; zero once a store followed
	// acceptedAt is the start of each job's last accepted completion.
	acceptedAt map[string]time.Time
}

func newWorkerTrace() *workerTrace {
	return &workerTrace{acceptedAt: map[string]time.Time{}}
}

// begin marks the start of a lease request on the worker's main loop.
func (t *workerTrace) begin(kind string, at time.Time) {
	if kind != "acquire" && kind != "complete" {
		return // renewals run beside the shard
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeGaps(at)
	if kind == "complete" && !t.grantEnd.IsZero() {
		t.span += at.Sub(t.grantEnd)
		t.grantEnd = time.Time{}
	}
}

// finish records a lease request that ended at end with the given status.
func (t *workerTrace) finish(kind, job string, start, end time.Time, status int, body []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := end.Sub(start)
	switch kind {
	case "acquire":
		t.acquire += d
		if status == http.StatusOK {
			t.acquires++
			t.grantEnd = end
		} else {
			t.empty++
			t.emptyEnd = end
		}
	case "complete":
		t.complete += d
		t.completes++
		t.completeEnd = end
		if acceptedCompletion(body) {
			t.accepted++
			t.acceptedAt[job] = start
		}
	case "renew":
		t.renews++
	}
}

// stop closes the timeline when the worker's Run returned.
func (t *workerTrace) stop(at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end = at
	t.closeGaps(at)
}

// closeGaps ends the idle or loop interval open at instant at.
func (t *workerTrace) closeGaps(at time.Time) {
	if !t.emptyEnd.IsZero() {
		t.idle += at.Sub(t.emptyEnd)
		t.emptyEnd = time.Time{}
	}
	if !t.completeEnd.IsZero() {
		t.loop += at.Sub(t.completeEnd)
		t.completeEnd = time.Time{}
	}
}

func (t *workerTrace) orchestration() time.Duration {
	return t.span + t.loop - t.expand - t.lookupT - t.storeT - t.engine
}

func (t *workerTrace) residual() time.Duration {
	return t.end.Sub(t.start) - t.acquire - t.complete - t.span - t.loop - t.idle
}

// tracingTransport times a worker's lease requests.
type tracingTransport struct {
	base http.RoundTripper
	t    *workerTrace
}

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := path.Base(req.URL.Path) // acquire, renew, complete or heartbeat
	job := ""
	if kind == "complete" {
		job = completedJob(req)
	}
	start := time.Now()
	tt.t.begin(kind, start)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.finish(kind, job, start, time.Now(), 0, nil)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, keep: kind == "complete", done: func(body []byte) {
		tt.t.finish(kind, job, start, time.Now(), resp.StatusCode, body)
	}}
	return resp, nil
}

// completedJob decodes the job id of a completion request; "" when the
// request cannot be read, which finish reports as an error.
func completedJob(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var cr coordinator.CompleteRequest
	if json.NewDecoder(body).Decode(&cr) != nil {
		return ""
	}
	return cr.Job
}

// acceptedCompletion reports whether a completion response body says the
// completion was accepted.
func acceptedCompletion(body []byte) bool {
	var cr coordinator.CompleteResponse
	return json.Unmarshal(body, &cr) == nil && cr.Status == coordinator.StatusAccepted
}

// tracedBody reports when the client has read and closed a response.
type tracedBody struct {
	io.ReadCloser
	keep bool
	buf  []byte
	once sync.Once
	done func(body []byte)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep {
		b.buf = append(b.buf, p[:n]...)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.buf) })
	return err
}

// tracedCache times a worker's cache calls; see workerTrace for how the
// call order yields engine time.
type tracedCache struct {
	c sweep.PointCache
	t *workerTrace
}

func (tc tracedCache) Lookup(key string) (sim.Metrics, bool) {
	t0 := time.Now()
	m, ok := tc.c.Lookup(key)
	t1 := time.Now()
	tc.t.mu.Lock()
	tc.t.lookupT += t1.Sub(t0)
	tc.t.lookups++
	if ok {
		tc.t.hits++
	}
	tc.t.lastLookupEnd = t1
	tc.t.mu.Unlock()
	return m, ok
}

func (tc tracedCache) Store(key string, m sim.Metrics) {
	t0 := time.Now()
	tc.c.Store(key, m)
	t1 := time.Now()
	tc.t.mu.Lock()
	if !tc.t.lastLookupEnd.IsZero() {
		tc.t.engine += t0.Sub(tc.t.lastLookupEnd)
		tc.t.lastLookupEnd = time.Time{}
	}
	tc.t.storeT += t1.Sub(t0)
	tc.t.stores++
	tc.t.mu.Unlock()
}

// tracedBuild times the worker's grid expansion.
func tracedBuild(t *workerTrace) func([]byte) ([]sweep.Scenario, error) {
	return func(payload []byte) ([]sweep.Scenario, error) {
		t0 := time.Now()
		pts, err := sweepserver.PointsFromSpec(payload)
		d := time.Since(t0)
		t.mu.Lock()
		t.expand += d
		t.builds++
		t.mu.Unlock()
		return pts, err
	}
}

// fleetLayers sums the worker timelines of one traced repetition, divides
// by its job count, and returns the per-job figures and the worst
// per-worker split residual.
func fleetLayers(traces []*workerTrace, jobs int) (layers, float64) {
	var tot workerTrace
	var walls time.Duration
	worst := 0.0
	for _, t := range traces {
		t.mu.Lock()
		wall := t.end.Sub(t.start)
		walls += wall
		tot.acquire += t.acquire
		tot.complete += t.complete
		tot.idle += t.idle
		tot.span += t.span
		tot.loop += t.loop
		tot.expand += t.expand
		tot.lookupT += t.lookupT
		tot.storeT += t.storeT
		tot.engine += t.engine
		tot.acquires += t.acquires
		tot.empty += t.empty
		tot.renews += t.renews
		tot.completes += t.completes
		tot.accepted += t.accepted
		tot.lookups += t.lookups
		tot.hits += t.hits
		tot.stores += t.stores
		tot.builds += t.builds
		if wall > 0 {
			r := t.residual().Seconds() / wall.Seconds()
			if r < 0 {
				r = -r
			}
			if r > worst {
				worst = r
			}
		}
		t.mu.Unlock()
	}
	per := func(v float64) float64 { return v / float64(jobs) }
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return d.Seconds() / float64(n)
	}
	l := layers{}
	l.set("worker.wall_s", per(walls.Seconds()))
	l.set("worker.acquire_s", per(tot.acquire.Seconds()))
	l.set("worker.expand_s", per(tot.expand.Seconds()))
	l.set("worker.engine_s", per(tot.engine.Seconds()))
	l.set("worker.cache_s", per((tot.lookupT + tot.storeT).Seconds()))
	l.set("worker.complete_s", per(tot.complete.Seconds()))
	l.set("worker.idle_s", per(tot.idle.Seconds()))
	l.set("sweep.orchestration_s", per(tot.orchestration().Seconds()))
	l.set("sweep.expand_ms", 1e3*mean(tot.expand, tot.builds))
	l.set("sweepcache.lookups", per(float64(tot.lookups)))
	l.set("sweepcache.hits", per(float64(tot.hits)))
	l.set("sweepcache.stores", per(float64(tot.stores)))
	l.set("sweepcache.lookup_ns", 1e9*mean(tot.lookupT, tot.lookups))
	l.set("sweepcache.store_ns", 1e9*mean(tot.storeT, tot.stores))
	l.set("coordinator.acquire_ms", 1e3*mean(tot.acquire, tot.acquires+tot.empty))
	l.set("coordinator.complete_ms", 1e3*mean(tot.complete, tot.completes))
	l.set("coordinator.acquires", per(float64(tot.acquires)))
	l.set("coordinator.empty_acquires", per(float64(tot.empty)))
	l.set("coordinator.renews", per(float64(tot.renews)))
	if tot.completes > 0 {
		l.set("coordinator.accepted_ratio", float64(tot.accepted)/float64(tot.completes))
	}
	return l, worst
}

// lastAccepted is the start of job's last accepted completion across the
// fleet.
func lastAccepted(traces []*workerTrace, job string) time.Time {
	var last time.Time
	for _, t := range traces {
		t.mu.Lock()
		if at := t.acceptedAt[job]; at.After(last) {
			last = at
		}
		t.mu.Unlock()
	}
	return last
}

// scrape reads the server's GET /metrics counters. Histogram buckets are
// skipped; their _sum and _count lines are kept.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one counter.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
