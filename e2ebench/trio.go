package main

// trio-cold and trio-warm: the paper trio — SK(6,3,2), POPS(9,8) and de
// Bruijn(3,4) — swept over loads, disciplines, wavelengths, workloads and
// faults through the service stack as users run it: an in-process
// sweepserver on loopback HTTP, and two coordinator.Workers (what `netsim
// work` runs), each with Runner{Workers: 1, Replicas: auto} and a
// disk-backed sweepcache journal. The journals share one directory, so a
// restarted fleet loads every entry the previous one wrote.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
)

const (
	fleetWorkers = 2
	// shards splits the grid so each shard finishes far inside the
	// coordinator's default 7.5 s StealAfter; coordinator.steals shows it
	// if one does not.
	shards = 8
	// poll is the workers' idle re-acquire interval (`netsim work -poll`).
	// The 500 ms default would put poll sleeps inside the timed jobs.
	poll = 2 * time.Millisecond
	// jobTimeout bounds one job (a cold one takes about 2 s); a job that
	// does not finish is a failed op.
	jobTimeout = 20 * time.Second
	// warmClients closed-loop clients each run warmJobs jobs per block.
	warmClients = 2
	warmJobs    = 50
	// coldSetupTries is how many times a trio-cold repetition sets up.
	coldSetupTries = 5
	// maxReplayShare is the share of a run's jobs (but at least two) that
	// may need their stream read again (runJob) before those jobs count as
	// failed ops, so that a change making the completion race more
	// frequent fails.
	maxReplayShare = 0.01
)

// quiet receives the lease and job logs: formatted, as in `netsim work`,
// but not written, so terminal speed cannot move the numbers.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// trioSpec is the grid both trio workloads submit: 3 topologies × loads
// {0.1, 0.3, 0.6} × {sf, deflect} × W {1, 2} × {uniform, hotspot, trace}
// × {no fault, 2 nodes at slot 500} × 2 seeds = 432 points at 2000+1000
// slots, in 8 shards. The self-test shrinks it to one load, one seed and
// 300+200 slots.
func trioSpec(b *bench) sweepserver.GridSpec {
	gs := sweepserver.GridSpec{
		Topologies: []sweep.TopoSpec{
			{Net: "sk", S: 6, D: 3, K: 2},
			{Net: "pops", T: 9, G: 8},
			{Net: "debruijn", D: 3, K: 4},
		},
		Rates:       []float64{0.1, 0.3, 0.6},
		Seeds:       []int64{b.seed, b.seed + 1},
		Modes:       []string{"sf", "deflect"},
		Wavelengths: []int{1, 2},
		Slots:       2000,
		Drain:       1000,
		Workloads: []sweepserver.WorkloadSpec{
			{Kind: "uniform"},
			{Kind: "hotspot", HotGroup: 1, Fraction: 0.4},
			{Kind: "trace", TraceFile: filepath.Join(b.root, "examples", "traces", "day_rates.csv")},
		},
		Faults: []sweepserver.FaultSpec{{Kind: "node"}, {Kind: "node", Count: 2, Slot: 500}},
		Shards: shards,
	}
	if b.small {
		gs.Rates, gs.Seeds, gs.Slots, gs.Drain = []float64{0.3}, []int64{b.seed}, 300, 200
	}
	return gs
}

// preflight expands the grid on the client, as the server and every
// worker will: TopoSpec.Build and sim.CheckTopology per topology, the
// trace scan and the point expansion. It is set-up work, and the point
// count it returns checks the server's.
func preflight(spec sweepserver.GridSpec) (int, error) {
	grid, err := spec.Grid()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errSetup, err)
	}
	return len(grid.Points()), nil
}

// fleet is one server plus its workers.
type fleet struct {
	url     string
	client  *http.Client // the benchmark's own client
	hs      *http.Server
	served  chan struct{}
	caches  []*sweepcache.Cache
	workers []*coordinator.Worker
	traces  []*workerTrace // nil when untraced
	load    time.Duration  // sweepcache.OpenShard time, summed over workers
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startFleet starts a server and opens the workers' journals in dir; the
// workers start polling only when run is called.
func startFleet(dir string, traced bool) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := sweepserver.New(sweep.Runner{}, nil)
	srv.Logger = quiet
	transport := http.DefaultTransport.(*http.Transport).Clone()
	f := &fleet{
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: transport},
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
	}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		t0 := time.Now()
		c, err := sweepcache.OpenShard(dir, name)
		f.load += time.Since(t0)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.caches = append(f.caches, c)
		w := &coordinator.Worker{
			Client: &coordinator.Client{BaseURL: f.url, HTTPClient: &http.Client{Transport: transport}},
			Build:  sweepserver.PointsFromSpec,
			Runner: sweep.Runner{Workers: 1, Replicas: sweep.AutoReplicas},
			Cache:  c,
			Name:   name,
			Poll:   poll,
			Log:    quiet,
		}
		if traced {
			t := newWorkerTrace()
			w.Client.HTTPClient = &http.Client{Transport: tracingTransport{base: transport, t: t}}
			w.Build = tracedBuild(t)
			w.Cache = tracedCache{c: c, t: t}
			f.traces = append(f.traces, t)
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// run starts the workers' acquire loops.
func (f *fleet) run() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i, w := range f.workers {
		var t *workerTrace
		if f.traces != nil {
			t = f.traces[i]
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if t != nil {
				t.mu.Lock()
				t.start = time.Now()
				t.mu.Unlock()
			}
			w.Run(ctx)
			if t != nil {
				t.stop(time.Now())
			}
		}()
	}
}

// stopWorkers ends the workers' loops and waits for them.
func (f *fleet) stopWorkers() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
}

// stop ends the workers, closes the journals and shuts the server down,
// waiting for each.
func (f *fleet) stop() error {
	f.stopWorkers()
	var errs []error
	for _, c := range f.caches {
		errs = append(errs, c.Err(), c.Close())
	}
	// Every client is done by now. Close rather than Shutdown: the client
	// transport may hold a dialed but never used connection, which
	// Shutdown would wait five seconds for.
	f.client.CloseIdleConnections()
	errs = append(errs, f.hs.Close())
	<-f.served
	return errors.Join(errs...)
}

// cacheMisses sums the workers' cache misses since their journals opened.
func (f *fleet) cacheMisses() int64 {
	var n int64
	for _, c := range f.caches {
		n += c.Stats().Misses
	}
	return n
}

// streamRow is one NDJSON line of a job's result stream.
type streamRow struct {
	Index  int  `json:"index"`
	Cached bool `json:"cached"`
	sweep.Record
}

// jobRun is one job as a client sees it.
type jobRun struct {
	id                  string
	submit, stream, all time.Duration // POST, GET stream to its last line, both
	end                 time.Time     // when the stream ended
	rows                []streamRow
	replayed            bool // the first stream ended short and was read again
}

// runJob submits payload, a grid of the given point count, then (once
// accepted) calls started, and reads the job's stream to its end.
func (f *fleet) runJob(payload []byte, points int, started func()) (jobRun, error) {
	var j jobRun
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/api/v1/sweeps", bytes.NewReader(payload))
	if err != nil {
		return j, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return j, err
	}
	var st sweepserver.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return j, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	if st.Points != points {
		return j, fmt.Errorf("submit: server expanded %d points, the client %d", st.Points, points)
	}
	t1 := time.Now()
	j.id, j.submit = st.ID, t1.Sub(t0)
	if started != nil {
		started()
	}
	if j.rows, err = f.stream(ctx, st.ID); err != nil {
		return j, err
	}
	for tries := 0; len(j.rows) < st.Points && tries < 2; tries++ {
		// The stream ended a shard short: the known completion race (README.md,
		// "Defects found"). The missing rows land a moment later, so the
		// client reads the stream again from the start, as a careful client
		// would. setTrioMetrics leaves such a job out of the latencies.
		j.replayed = true
		if j.rows, err = f.stream(ctx, st.ID); err != nil {
			return j, err
		}
	}
	j.end = time.Now()
	j.stream, j.all = j.end.Sub(t1), j.end.Sub(t0)
	if len(j.rows) != st.Points {
		return j, fmt.Errorf("short stream: %d of %d rows", len(j.rows), st.Points)
	}
	return j, nil
}

// stream reads a job's NDJSON result stream to its end.
func (f *fleet) stream(ctx context.Context, id string) ([]streamRow, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/api/v1/sweeps/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []streamRow
	dec := json.NewDecoder(resp.Body)
	for {
		var row streamRow
		if err := dec.Decode(&row); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		rows = append(rows, row)
	}
}

// jobState reads a job's terminal state.
func (f *fleet) jobState(id string) (string, error) {
	resp, err := f.client.Get(f.url + "/api/v1/sweeps/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st sweepserver.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.State, nil
}

// rowsDigest checks that rows cover every index once and conserve
// messages, and returns the digest of the merged rows in index order.
func rowsDigest(rows []streamRow) (string, error) {
	sorted := append([]streamRow(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Index < sorted[b].Index })
	parts := make([][]byte, len(sorted))
	for i, r := range sorted {
		if r.Index != i {
			return "", fmt.Errorf("row %d carries index %d", i, r.Index)
		}
		if r.Injected != r.Delivered+r.Dropped+r.Backlog {
			return "", fmt.Errorf("row %d: injected %d != delivered %d + dropped %d + backlog %d",
				i, r.Injected, r.Delivered, r.Dropped, r.Backlog)
		}
		line, err := json.Marshal(r.Record)
		if err != nil {
			return "", err
		}
		parts[i] = line
	}
	return digest(parts...), nil
}

// checkJob verifies a finished job: state done, rows complete and
// conserving, and the digest equal to want (when want is set) or to the
// seed-1 pin.
func checkJob(b *bench, f *fleet, j jobRun, want string) (string, error) {
	state, err := f.jobState(j.id)
	if err != nil {
		return "", err
	}
	if state != "done" {
		return "", fmt.Errorf("job %s ended %s", j.id, state)
	}
	got, err := rowsDigest(j.rows)
	if err != nil {
		return "", err
	}
	if want == "" && b.seed == 1 {
		want = trioPin(b.small)
	}
	if want != "" && got != want {
		return "", fmt.Errorf("rows digest %s, want %s", got, want)
	}
	return got, nil
}

// fleetRep is one trio-cold repetition or one trio-warm block.
type fleetRep struct {
	setup, wall time.Duration
	jobs        []jobRun // the ones that passed their checks
	heap        float64
	layers      layers // traced only
	residual    float64
}

// errSetup marks a failure of the benchmark's own set-up (scratch
// directory, listener), which ends the run instead of counting as a
// failed op.
var errSetup = errors.New("set-up failed")

// fleetLoop repeats one fleet-level unit. A unit returns ok=false when it
// failed a check (it has counted the failed op itself) and an error only
// when the benchmark's own set-up failed, which ends the run.
func fleetLoop(b *bench, nominal time.Duration, minReps, maxReps int, unit func(rep int, traced bool) (fleetRep, bool, error)) (plain, traced []fleetRep, reps int, err error) {
	reps = b.repeat(nominal, minReps, maxReps, func(rep int, tr bool) {
		if err != nil {
			return
		}
		r, ok, uerr := unit(rep, tr)
		switch {
		case uerr != nil:
			err = uerr
		case !ok:
		case tr:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
	})
	return plain, traced, reps, err
}

func runTrioCold(b *bench) error {
	spec := trioSpec(b)
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	plain, traced, reps, err := fleetLoop(b, 2*time.Second, 5, 40, func(rep int, tr bool) (fleetRep, bool, error) {
		r, err := coldRepetition(b, spec, payload, tr)
		if errors.Is(err, errSetup) {
			return r, false, err
		}
		return r, b.op(err, fmt.Sprintf("cold repetition %d", rep)), nil
	})
	if err != nil {
		return err
	}
	b.rep.note("repetitions", reps)
	if b.trace {
		return trioLayers(b, spec, plain, traced)
	}
	setTrioMetrics(b, plain, "one cold grid, submit to last stream line")
	return nil
}

// coldRepetition runs the grid once on a fresh fleet with empty caches.
// The workers start only after the job is accepted, so no poll sleep
// precedes the first lease.
func coldRepetition(b *bench, spec sweepserver.GridSpec, payload []byte, traced bool) (fleetRep, error) {
	var r fleetRep
	dir, err := os.MkdirTemp(b.tmp, "cold-")
	if err != nil {
		return r, fmt.Errorf("%w: %v", errSetup, err)
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	// The set-up takes a few milliseconds, so one stray page fault or
	// syscall stall moves a sample by half. It runs coldSetupTries times,
	// each on its own empty journals; the fastest counts, and the last
	// fleet runs the job.
	var f *fleet
	var points int
	for try := range coldSetupTries {
		if f != nil {
			if err := f.stop(); err != nil {
				return r, fmt.Errorf("%w: %v", errSetup, err)
			}
		}
		tryDir := filepath.Join(dir, strconv.Itoa(try))
		t0 := time.Now()
		points, err = preflight(spec)
		if err != nil {
			return r, err
		}
		f, err = startFleet(tryDir, traced)
		d := time.Since(t0)
		if err != nil {
			return r, fmt.Errorf("%w: %v", errSetup, err)
		}
		if try == 0 || d < r.setup {
			r.setup = d
		}
	}
	before, err := f.scrapeIfTraced()
	if err != nil {
		f.stop()
		return r, err
	}
	t1 := time.Now()
	j, err := f.runJob(payload, points, f.run)
	r.wall = time.Since(t1)
	r.heap = f.heapAfterJobs()
	if err == nil {
		_, err = checkJob(b, f, j, "")
	}
	r.jobs = []jobRun{j}
	return r, f.finish(&r, before, err)
}

func runTrioWarm(b *bench) error {
	spec := trioSpec(b)
	payload, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jobs := warmJobs
	if b.small {
		jobs = 4
	}
	plain, traced, blocks, err := fleetLoop(b, 3*time.Second, 3, 20, func(rep int, tr bool) (fleetRep, bool, error) {
		r, err := warmBlock(b, spec, payload, jobs, tr)
		if errors.Is(err, errSetup) {
			return r, false, err
		}
		// The block's jobs are the ops; a block that fails outside them
		// (cache fill, misses) counts as one more, failed.
		if err != nil {
			return r, b.op(err, fmt.Sprintf("warm block %d", rep)), nil
		}
		return r, true, nil
	})
	if err != nil {
		return err
	}
	b.rep.note("blocks", blocks)
	b.rep.note("jobs_per_block", warmClients*jobs)
	if b.trace {
		return trioLayers(b, spec, plain, traced)
	}
	setTrioMetrics(b, plain, "one warm grid, submit to last stream line")
	return nil
}

// setTrioMetrics reports the end-to-end metrics of the plain repetitions.
// Throughputs are per repetition (per block for trio-warm); job latencies
// pool every job of every repetition except those whose stream was read
// again (runJob), which are left out like failed ops. More of those than
// maxReplayShare of the jobs counts each of them as a failed op.
func setTrioMetrics(b *bench, reps []fleetRep, job string) {
	var setup, lat, pointsPS, slotsPS, heap []float64
	replays, jobs := 0, 0
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		points, slots := 0, 0
		for _, j := range r.jobs {
			jobs++
			if j.replayed {
				replays++
			} else {
				lat = append(lat, j.all.Seconds())
			}
			points += len(j.rows)
			for _, row := range j.rows {
				slots += row.Slots
			}
		}
		pointsPS = append(pointsPS, float64(points)/r.wall.Seconds())
		slotsPS = append(slotsPS, float64(slots)/r.wall.Seconds())
		heap = append(heap, r.heap)
	}
	b.timed("setup_s", median(setup), "s")
	b.rate("slots_per_s", median(slotsPS), "slots/s")
	b.rate("points_per_s", median(pointsPS), "points/s")
	b.timed("job_p50_s", median(lat), "s")
	t, p := tail(lat)
	b.timed("job_tail_s", t, "s")
	b.rep.set("heap_mb", median(heap), "MiB")
	b.rep.note("job_tail_s", map[string]any{"percentile": p, "samples": len(lat), "job": job})
	b.rep.note("samples", map[string]any{"setup_s": setup, "points_per_s": pointsPS})
	b.rep.note("short_streams_replayed", replays)
	if allowed := max(2, maxReplayShare*float64(jobs)); float64(replays) > allowed {
		fmt.Fprintf(b.log, "e2ebench: %d of %d jobs needed their stream read again, more than %.0f allowed; they count as failed\n", replays, jobs, allowed)
		b.rep.failed += replays
	}
}

// warmBlock fills a fresh cache with one cold job, restarts the fleet on
// the same journals — both set-up — and then runs the closed loop:
// warmClients clients, each submitting, streaming to the end, verifying
// and resubmitting, jobs times. Every job is one op; a failed job is not
// timed. The job count is fixed because the server keeps every finished
// job in memory, and heap_mb must not grow with speed.
func warmBlock(b *bench, spec sweepserver.GridSpec, payload []byte, jobs int, traced bool) (fleetRep, error) {
	var r fleetRep
	dir, err := os.MkdirTemp(b.tmp, "warm-")
	if err != nil {
		return r, fmt.Errorf("%w: %v", errSetup, err)
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	points, err := preflight(spec)
	if err != nil {
		return r, err
	}
	fill, err := startFleet(dir, false)
	if err != nil {
		return r, fmt.Errorf("%w: %v", errSetup, err)
	}
	j, err := fill.runJob(payload, points, fill.run)
	want := ""
	if err == nil {
		want, err = checkJob(b, fill, j, "")
	}
	if err := errors.Join(err, fill.stop()); err != nil {
		return r, fmt.Errorf("cache fill: %w", err)
	}
	f, err := startFleet(dir, traced)
	if err != nil {
		return r, fmt.Errorf("%w: %v", errSetup, err)
	}
	f.run()
	r.setup = time.Since(t0)
	before, err := f.scrapeIfTraced()
	if err != nil {
		f.stop()
		return r, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t1 := time.Now()
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				j, err := f.runJob(payload, points, nil)
				if err == nil {
					_, err = checkJob(b, f, j, want)
				}
				for _, row := range j.rows {
					if err == nil && !row.Cached {
						err = fmt.Errorf("warm job %s recomputed point %d", j.id, row.Index)
					}
				}
				mu.Lock()
				if b.op(err, "warm job") {
					r.jobs = append(r.jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(t1)
	r.heap = f.heapAfterJobs()
	if len(r.jobs) == 0 {
		return r, f.finish(&r, before, errors.New("no warm job succeeded"))
	}
	var missErr error
	if n := f.cacheMisses(); n != 0 {
		missErr = fmt.Errorf("%d cache misses: the warm jobs reached the engine", n)
	}
	return r, f.finish(&r, before, missErr)
}

// heapAfterJobs stops the workers, so the forced collection lands in no
// worker's timeline, and measures the heap while the server and the
// workers' caches are still live.
func (f *fleet) heapAfterJobs() float64 {
	f.stopWorkers()
	return heapMB()
}

// scrapeIfTraced reads /metrics before a traced repetition.
func (f *fleet) scrapeIfTraced() (map[string]float64, error) {
	if f.traces == nil {
		return nil, nil
	}
	return scrape(context.Background(), f.client, f.url)
}

// finish ends a repetition: it reads the /metrics deltas of a traced one
// while the server is up, stops the fleet, then closes the worker
// timelines into r.layers. It returns the first error of err, the scrape
// and the shutdown.
func (f *fleet) finish(r *fleetRep, before map[string]float64, err error) error {
	var l layers
	if err == nil && f.traces != nil {
		l, err = f.metricsLayers(before, r.jobs)
	}
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err != nil || f.traces == nil {
		return err
	}
	fl, residual := fleetLayers(f.traces, len(r.jobs))
	for k, v := range fl {
		l[k] = v
	}
	var submit, stream, merge []float64
	for _, j := range r.jobs {
		submit = append(submit, 1e3*j.submit.Seconds())
		stream = append(stream, 1e3*j.stream.Seconds())
		at := lastAccepted(f.traces, j.id)
		if at.IsZero() {
			return fmt.Errorf("job %s: no accepted completion traced", j.id)
		}
		merge = append(merge, 1e3*j.end.Sub(at).Seconds())
	}
	l.set("sweepserver.submit_ms", median(submit))
	l.set("sweepserver.stream_ms", median(stream))
	l.set("sweepserver.merge_ms", median(merge))
	l.set("sweepcache.load_s", f.load.Seconds())
	r.layers, r.residual = l, residual
	return nil
}

// metricsLayers turns the /metrics deltas of a traced repetition into
// per-job engine and coordinator figures.
func (f *fleet) metricsLayers(before map[string]float64, jobs []jobRun) (layers, error) {
	after, err := scrape(context.Background(), f.client, f.url)
	if err != nil {
		return nil, err
	}
	n := float64(len(jobs))
	busy := delta(before, after, "netsim_sweep_worker_busy_ns_total")
	slots := delta(before, after, "netsim_engine_slots_total")
	hops := 0.0
	for _, j := range jobs {
		for _, r := range j.rows {
			if !r.Cached {
				hops += math.Round(r.AvgHops * float64(r.Delivered))
			}
		}
	}
	l := layers{}
	l.set("sim.slots", slots/n)
	l.set("sim.injected", delta(before, after, "netsim_engine_messages_injected_total")/n)
	l.set("sim.delivered", delta(before, after, "netsim_engine_messages_delivered_total")/n)
	l.set("sim.hops", hops/n)
	if slots > 0 {
		// Batched runs fuse generation into the replica-set step, so on the
		// trio this is engine busy time per simulated slot, generation included.
		l.set("sim.step_us_per_slot", busy/1e3/slots)
	}
	if hops > 0 {
		l.set("sim.ns_per_hop", busy/hops)
	}
	if c := delta(before, after, "netsim_sweep_batch_points_count"); c > 0 {
		l.set("sweep.batch_points", delta(before, after, "netsim_sweep_batch_points_sum")/c)
	}
	l.set("coordinator.steals", delta(before, after, "netsim_coord_leases_stolen_total")/n)
	return l, nil
}

// trioLayers reports a traced trio run: the fleet layers as medians over
// the traced repetitions, plus the topology, compile and generator layers
// measured beside the fleet on the grid's own inputs.
func trioLayers(b *bench, spec sweepserver.GridSpec, plain, traced []fleetRep) error {
	series := map[string][]float64{}
	worst := 0.0
	var plainLat, tracedLat []float64
	for _, r := range traced {
		for k, v := range r.layers {
			series[k] = append(series[k], v)
		}
		worst = math.Max(worst, r.residual)
		tracedLat = append(tracedLat, jobMedian(r))
	}
	for _, r := range plain {
		plainLat = append(plainLat, jobMedian(r))
	}
	l := layers{}
	for k, vs := range series {
		l.set(k, median(vs))
	}
	side, err := sideLayers(spec)
	if err != nil {
		return err
	}
	for k, v := range side {
		l.set(k, v)
	}
	l.set("split.residual_frac", worst)
	l.set("trace.overhead_frac", overhead(plainLat, tracedLat))
	l.report(b)
	b.rep.note("split_tolerance", splitTolerance)
	return nil
}

// jobMedian is a repetition's median job latency in seconds, leaving out
// jobs whose stream was read again.
func jobMedian(r fleetRep) float64 {
	var xs []float64
	for _, j := range r.jobs {
		if !j.replayed {
			xs = append(xs, j.all.Seconds())
		}
	}
	return median(xs)
}

// sideLayers times the layers below the service on the grid's inputs,
// outside any fleet: TopoSpec.Build with sim.CheckTopology per topology,
// the heap those topologies hold, sim.NewEngine over each, and every
// (topology, workload, load, seed) generator run alone over the grid's
// traffic slots.
func sideLayers(spec sweepserver.GridSpec) (layers, error) {
	l := layers{}
	heap0 := heapMB()
	var build, compile time.Duration
	var topos []sweep.Topology
	for _, ts := range spec.Topologies {
		t0 := time.Now()
		topo, err := ts.Build()
		if err == nil {
			err = sim.CheckTopology(topo.Topo)
		}
		build += time.Since(t0)
		if err != nil {
			return nil, err
		}
		topos = append(topos, topo)
	}
	l.set("topology.heap_mb", heapMB()-heap0)
	for _, topo := range topos {
		t0 := time.Now()
		sim.NewEngine(topo.Topo, sim.Config{})
		compile += time.Since(t0)
	}
	l.set("topology.build_s", build.Seconds())
	l.set("sim.compile_s", compile.Seconds())
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	var gen time.Duration
	slots := 0
	var buf []sim.Injection
	for _, topo := range grid.Topologies {
		n := topo.Topo.Nodes()
		for _, ws := range grid.Workloads {
			for _, rate := range grid.Rates {
				for _, seed := range grid.Seeds {
					g := ws.New(rate, n, topo.GroupSize)
					rng := rand.New(rand.NewSource(seed))
					t0 := time.Now()
					for s := 0; s < grid.Slots; s++ {
						buf = g.Generate(buf[:0], s, n, rng)
					}
					gen += time.Since(t0)
					slots += grid.Slots
				}
			}
		}
	}
	l.set("workload.gen_us_per_slot", float64(gen.Microseconds())/float64(slots))
	return l, nil
}
