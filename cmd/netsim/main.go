// Command netsim runs slotted-time traffic simulations over the paper's
// networks: stack-Kautz (multi-hop multi-OPS), POPS (single-hop multi-OPS)
// and the de Bruijn point-to-point baseline, under pluggable workloads
// (uniform, OTIS transpose, group hotspot, bursty on/off, multi-period
// diurnal bursts, recorded-trace replay, collective replay), with
// store-and-forward or hot-potato deflection routing.
//
// One scenario at a time:
//
//	go run ./cmd/netsim -net sk -s 6 -d 3 -k 2 -rate 0.3 -slots 2000
//	go run ./cmd/netsim -net pops -t 9 -g 8 -workload hotspot -rate 0.2
//	go run ./cmd/netsim -net debruijn -d 3 -k 4 -deflect
//
// Or a parallel scenario sweep (rates x seeds x modes fanned across a
// worker pool, aggregated into a curve with mean/stddev over seeds):
//
//	go run ./cmd/netsim -net sk -sweep -rates 0.05,0.1,0.2,0.4 -seeds 5
//	go run ./cmd/netsim -net all -sweep -rates 0.1,0.3 -seeds 3 -format csv
//	go run ./cmd/netsim -net all -sweep -format json -raw
//
// Fault injection (§2.5 made dynamic): fail nodes, couplers or individual
// transmitters mid-run, permanently or with an MTBF/MTTR process, and sweep
// fault counts into a degradation curve:
//
//	go run ./cmd/netsim -net sk -faults 2 -faultslot 500
//	go run ./cmd/netsim -net sk -faults 3 -faultkind tx -mtbf 200 -mttr 50
//	go run ./cmd/netsim -net sk -sweep -faultset 0,1,2,3 -seeds 5 -format csv
//
// Structured workloads (internal/workload): the OTIS transpose permutation,
// group-hotspot skew, bursty on/off load, and collective-schedule replay
// through the live engine (dynamic T9):
//
//	go run ./cmd/netsim -net sk -workload transpose -rate 0.3
//	go run ./cmd/netsim -net sk -workload hotspot -hotgroup 2 -hotfrac 0.5
//	go run ./cmd/netsim -net sk -workload bursty -burston 50 -burstoff 150
//	go run ./cmd/netsim -net sk -workload collective
//	go run ./cmd/netsim -net pops -t 4 -g 4 -workload collective -collective gossip
//	go run ./cmd/netsim -net all -sweep -workload uniform,transpose,hotspot,bursty
//
// Empirical workloads: replay a recorded trace (CSV/NDJSON events or rate
// schedules, cache-keyed by content fingerprint), generate diurnal
// bursts-of-bursts load, or synthesize fresh traces:
//
//	go run ./cmd/netsim -net sk -workload trace -tracefile examples/traces/day_rates.csv
//	go run ./cmd/netsim -net all -sweep -workload trace -tracefile examples/traces/burst_events.ndjson
//	go run ./cmd/netsim -net sk -workload multiperiod -period 2000 -amplitude 0.8
//	go run ./cmd/netsim synthtrace -form events -slots 2000 -nodes 72 -out day.ndjson -ndjson
//
// Service layer (PR 5): sweeps cache and resume through a content-addressed
// result store, split across processes, and serve over HTTP:
//
//	go run ./cmd/netsim -net all -sweep -seeds 5 -cachedir /tmp/otiscache
//	go run ./cmd/netsim -net all -sweep -shards 3 -shard 0 > shard0.ndjson
//	go run ./cmd/netsim -net all -sweep -mergeshards shard0.ndjson,shard1.ndjson,shard2.ndjson -format csv
//	go run ./cmd/netsim serve -addr :8080 -cachedir /tmp/otiscache
//
// Distributed sweeps (internal/coordinator): `serve` doubles as a lease
// coordinator — grids submitted with "shards" > 0 are executed by any
// number of `work` processes (leased shards, crash-tolerant, merged
// bit-for-bit with a single-process run):
//
//	go run ./cmd/netsim serve -addr :8080 -cachedir /tmp/otiscache
//	go run ./cmd/netsim work -server http://127.0.0.1:8080 -workers 4 -cachedir /tmp/otiscache
//	curl -d '{"topologies":[{"net":"sk"}],"rates":[0.1,0.3],"seeds":[1,2,3],"shards":4}' localhost:8080/api/v1/sweeps
//
// One grid path: the flags of a single run or a sweep become a
// sweepserver.GridSpec, and its scenarios come from GridSpec.Grid, the
// code the server and every worker run on submitted JSON. A single run is
// the one-point grid. "-net all" is the grid of {sk 6,3,2}, {pops 9,8} and
// {debruijn 3,4}, so its rows carry sweep.TopoSpec.Build's names.
//
// Exit status: 0 on success and for -h, 2 for a bad command line
// (including a bad topology, workload or fault), 1 when the run itself
// fails (I/O, a shard merge, an incomplete collective replay).
package main

import (
	"cmp"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"otisnet/internal/collective"
	"otisnet/internal/coordinator"
	"otisnet/internal/export"
	"otisnet/internal/obs"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
	"otisnet/internal/workload"
)

func main() { os.Exit(report(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// subcommands are the command lines that do not start with a flag; any
// other command line is a single run or a sweep (runSim).
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"serve":      runServe,
	"work":       runWork,
	"synthtrace": runSynthTrace,
}

// run executes one netsim command line.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return sub(args[1:], stdout, stderr)
		}
	}
	return runSim(args, stdout, stderr)
}

// usageError is a bad command line (exit status 2). parse marks the
// FlagSet's own parse errors, which it has already printed with the usage.
type usageError struct {
	error
	parse bool
}

// usage marks err, if any, as a bad command line.
func usage(err error) error {
	if err == nil {
		return nil
	}
	return usageError{error: err}
}

// parseFlags parses args into fs: -h is flag.ErrHelp (exit status 0),
// any other parse error a usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{error: err, parse: true}
}

// report prints run's error to stderr and returns the exit status: 0 on
// success and for -h, 2 for a bad command line, 1 when the run failed.
func report(err error, stderr io.Writer) int {
	var bad usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &bad):
		if !bad.parse {
			fmt.Fprintf(stderr, "netsim: %v\n", err)
		}
		return 2
	}
	fmt.Fprintf(stderr, "netsim: %v\n", err)
	return 1
}

// setupLogging installs the process logger: slog text on stderr, or JSON
// records when -logjson is set (one object per line, machine-ingestable).
func setupLogging(json bool, stderr io.Writer) {
	if json {
		slog.SetDefault(slog.New(slog.NewJSONHandler(stderr, nil)))
		return
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, nil)))
}

// runSim runs one scenario, or a sweep with -sweep, or replays a
// collective schedule with -workload collective.
func runSim(args []string, stdout, stderr io.Writer) error {
	f, err := parseSimFlags(args, stderr)
	if err != nil {
		return err
	}
	setupLogging(*f.logJSON, stderr)
	if err := f.check(); err != nil {
		return usage(err)
	}
	if *f.workload == "collective" {
		return runCollective(stdout, *f.net, *f.t, *f.g, *f.s, *f.d, *f.k, *f.collective, *f.seed)
	}
	gs, err := f.gridSpec()
	if err != nil {
		return usage(err)
	}
	grid, err := gs.Grid()
	if err != nil {
		return usage(err)
	}
	if *f.sweep {
		return runSweep(stdout, f, grid)
	}
	return runSingle(stdout, f, grid.Points()[0])
}

// runSingle runs the one point of a single-run grid: once, -repeat times
// on one reused engine, or as a saturation search.
func runSingle(stdout io.Writer, f *simFlags, p sweep.Scenario) error {
	topo := p.Fault.Wrap(p.Topology.Topo, p.Seed)
	desc := p.Topology.Name
	if !p.Fault.IsZero() {
		desc += " faults=" + p.Fault.Label()
	}
	cfg := p.Config()
	if *f.saturate {
		rate := sim.SaturationSearch(topo, p.Slots, 0.95, cfg)
		fmt.Fprintf(stdout, "%s: saturation rate ≈ %.4f msgs/node/slot (95%% delivery, %d-slot runs, w=%d)\n",
			desc, rate, p.Slots, p.Wavelengths)
		return nil
	}
	// newTraffic builds a fresh generator per run: bursty, trace and other
	// stateful workloads must not carry state from one repetition into the
	// next.
	newTraffic := func() sim.Traffic { return p.Workload.New(p.Rate, topo.Nodes(), p.Topology.GroupSize) }
	if *f.repeat > 1 {
		runRepeated(stdout, topo, desc, p, newTraffic, *f.repeat)
		return nil
	}
	// sim.Run is NewEngine+Run; building the engine here lets -trace attach
	// its event sink without changing the simulated scenario.
	eng := sim.NewEngine(topo, cfg)
	var tr *obs.Trace
	if *f.trace != "" {
		t, err := obs.OpenTraceFile(*f.trace, *f.traceSample)
		if err != nil {
			return err
		}
		tr = t
		eng.SetTrace(tr)
	}
	m := eng.Run(newTraffic(), p.Slots, p.Drain, cfg)
	if tr != nil {
		events := tr.Events()
		if err := cmp.Or(tr.Close(), tr.Err()); err != nil {
			return err
		}
		slog.Info("trace written", "file", *f.trace, "events", events, "sample", *f.traceSample)
	}
	fmt.Fprintf(stdout, "%s  traffic=%s rate=%.2f mode=%s\n", desc, p.TrafficName, p.Rate, p.Mode)
	fmt.Fprintln(stdout, m)
	fmt.Fprintf(stdout, "per-node throughput: %.4f msgs/slot/node\n", m.Throughput()/float64(topo.Nodes()))
	return nil
}

// runRepeated executes the scenario `repeat` times with consecutive seeds
// on one reused engine (compiled once, Reset per run), reporting the
// per-seed mean ± sample stddev of the headline metrics, as a sweep curve
// (sweep.Aggregate) reports them, and the engine's simulation speed.
func runRepeated(stdout io.Writer, topo sim.Topology, desc string, p sweep.Scenario, newTraffic func() sim.Traffic, repeat int) {
	cfg := p.Config()
	e := sim.NewEngine(topo, cfg)
	start := time.Now()
	runs := make([]sweep.Result, repeat)
	totalSlots := 0
	for i := range runs {
		cfg.Seed = p.Seed + int64(i)
		runs[i].Scenario = p
		runs[i].Scenario.Seed = cfg.Seed
		runs[i].Metrics = e.Run(newTraffic(), p.Slots, p.Drain, cfg)
		totalSlots += runs[i].Metrics.Slots
	}
	elapsed := time.Since(start)
	c := sweep.Aggregate(runs)[0]
	fmt.Fprintf(stdout, "%s  traffic=%s rate=%.2f mode=%s  %d runs, seeds %d..%d, one reused engine\n",
		desc, p.TrafficName, p.Rate, p.Mode, repeat, p.Seed, p.Seed+int64(repeat)-1)
	fmt.Fprintf(stdout, "throughput %.3f ± %.3f msgs/slot  latency %.2f ± %.2f slots  hops %.2f ± %.2f\n",
		c.Throughput.Mean, c.Throughput.Std, c.Latency.Mean, c.Latency.Std, c.Hops.Mean, c.Hops.Std)
	fmt.Fprintf(stdout, "simulated %d slots in %v (%.2f Mslots/s)\n",
		totalSlots, elapsed.Round(time.Millisecond), float64(totalSlots)/elapsed.Seconds()/1e6)
}

// runCollective replays a collective-communication schedule through the
// live engine (the dynamic T9 of DESIGN.md) and prints per-round delivery
// against the schedule's intent and the information-theoretic lower bound.
func runCollective(stdout io.Writer, net string, t, g, s, d, k int, kind string, seed int64) error {
	cfg := sim.Config{Seed: seed}
	var (
		res  *workload.ReplayResult
		err  error
		desc string
	)
	switch {
	case net == "sk" && kind == "broadcast":
		nw := stackkautz.New(s, d, k)
		src := stackkautz.Address{Group: nw.Kautz().LabelOf(0), Member: 0}
		desc = fmt.Sprintf("SK(%d,%d,%d) broadcast from %s", s, d, k, src)
		res, err = workload.ReplayBroadcast(nw.StackGraph(), collective.SKBroadcast(nw, src), nw.NodeID(src), cfg)
	case net == "pops" && kind == "broadcast":
		p := pops.New(t, g)
		src := p.NodeID(0, 0)
		desc = fmt.Sprintf("POPS(%d,%d) broadcast from node %d", t, g, src)
		res, err = workload.ReplayBroadcast(p.StackGraph(), collective.POPSBroadcast(p, src), src, cfg)
	case net == "pops" && kind == "gossip":
		p := pops.New(t, g)
		desc = fmt.Sprintf("POPS(%d,%d) gossip", t, g)
		res, err = workload.ReplayGossip(p.StackGraph(), collective.POPSGossip(p), cfg)
	default:
		return usage(fmt.Errorf("no %q schedule for -net %s (sk: broadcast; pops: broadcast or gossip)", kind, net))
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s — %d rounds replayed through the live engine\n", desc, len(res.Rounds))
	fmt.Fprintf(stdout, "%-6s %-14s %-10s %-10s %s\n", "round", "transmissions", "expected", "delivered", "slots")
	for _, r := range res.Rounds {
		fmt.Fprintf(stdout, "%-6d %-14d %-10d %-10d %d\n", r.Round, r.Transmissions, r.Expected, r.Delivered, r.Slots)
	}
	fmt.Fprintf(stdout, "total: %d engine slots, %d/%d delivered, rounds >= lower bound %d: %v, dissemination complete: %v\n",
		res.Slots, res.Delivered, res.Injected, res.LowerBound, len(res.Rounds) >= res.LowerBound, res.Complete)
	if !res.Complete {
		return errors.New("collective replay incomplete: the schedule did not reach every node")
	}
	return nil
}

// runSweep runs a sweep grid: a saturation search, a shard-file merge, one
// shard of the grid, or the whole grid, through the result cache when
// -cachedir is set.
func runSweep(stdout io.Writer, f *simFlags, grid sweep.Grid) error {
	runner := sweep.Runner{Workers: *f.workers}
	if *f.saturate {
		return printSaturation(stdout, runner.Saturate(grid, *f.slots, 0.95, *f.seed), *f.format)
	}
	points := grid.Points()

	// Merge mode: the grid flags define the point list; the shard files
	// supply the metrics. Output goes through the normal format paths, so a
	// merged grid is byte-for-byte a single-process sweep.
	if *f.merge != "" {
		var shardRows [][]sweep.ShardResult
		for _, path := range strings.Split(*f.merge, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			rows, err := readShardFile(path)
			if err != nil {
				return err
			}
			shardRows = append(shardRows, rows)
		}
		results, err := sweep.MergeShardResults(points, shardRows...)
		if err != nil {
			return err
		}
		return emitResults(stdout, results, *f.format, *f.raw)
	}

	// The content-addressed cache: reused points skip simulation entirely;
	// computed points are journaled, so an interrupted run resumes. Shard
	// runs journal to per-shard files so concurrent processes never
	// interleave appends.
	var cache *sweepcache.Cache
	var pointCache sweep.PointCache
	if *f.cacheDir != "" {
		shardName := ""
		if *f.shards > 1 {
			shardName = fmt.Sprintf("shard%d", *f.shard)
		}
		c, err := sweepcache.OpenShard(*f.cacheDir, shardName)
		if err != nil {
			return err
		}
		defer closeCache(c)
		cache, pointCache = c, c
	}

	if *f.shards > 1 {
		shard, err := sweep.ShardPoints(points, *f.shard, *f.shards)
		if err != nil {
			return err
		}
		results, err := runner.RunCached(context.Background(), shard.Points, pointCache, nil)
		if err != nil {
			return err
		}
		for _, row := range shard.ShardResults(results) {
			if err := export.WriteNDJSONLine(stdout, row); err != nil {
				return err
			}
		}
		return nil
	}

	results, err := runner.RunCached(context.Background(), points, pointCache, nil)
	if err != nil {
		return err
	}
	if cache != nil {
		st := cache.Stats()
		slog.Info("sweep cache", "dir", *f.cacheDir,
			"reused", st.Hits, "computed", st.Misses, "points", len(points), "entries", st.Entries)
	}
	return emitResults(stdout, results, *f.format, *f.raw)
}

// emitResults writes sweep results in the selected format.
func emitResults(stdout io.Writer, results []sweep.Result, format string, raw bool) error {
	switch {
	case raw && format == "json":
		return sweep.WriteResultsJSON(stdout, results)
	case raw:
		return sweep.WriteResultsCSV(stdout, results)
	case format == "json":
		return sweep.WriteCurveJSON(stdout, sweep.Aggregate(results))
	case format == "csv":
		return sweep.WriteCurveCSV(stdout, sweep.Aggregate(results))
	}
	printCurveTable(stdout, sweep.Aggregate(results))
	return nil
}

// readShardFile loads one -shards run's NDJSON rows.
func readShardFile(path string) ([]sweep.ShardResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []sweep.ShardResult
	truncated, err := export.ForEachNDJSONLine(f, func(line []byte) error {
		var row sweep.ShardResult
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if truncated {
		slog.Warn("shard file ends mid-line (interrupted shard?); dropped the torn fragment", "file", path)
	}
	return rows, nil
}

// closeCache closes the journal, surfacing a degraded-persistence warning
// (a failed append never fails the sweep itself).
func closeCache(c *sweepcache.Cache) {
	if err := c.Err(); err != nil {
		slog.Warn("cache journal degraded (results are complete; the journal is not)", "err", err)
	}
	c.Close()
}

// runServe starts the sweep service (internal/sweepserver): submit grids,
// stream per-point results as NDJSON, query cache stats, cancel jobs.
func runServe(args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("netsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cachedir", "", "content-addressed result cache directory (empty = in-memory only)")
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	pprofF := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON on stderr (default: text)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	setupLogging(*logJSON, stderr)
	var cache *sweepcache.Cache
	if *cacheDir != "" {
		// The server journals under its own name so a concurrent CLI sweep
		// appending to the same directory (journal.ndjson) never interleaves
		// writes with it.
		c, err := sweepcache.OpenShard(*cacheDir, "server")
		if err != nil {
			return err
		}
		cache = c
		st := c.Stats()
		slog.Info("cache loaded", "dir", *cacheDir, "entries", st.Entries, "torn_lines", st.TornLines)
	}
	srv := sweepserver.New(sweep.Runner{Workers: *workers}, cache)
	srv.Pprof = *pprofF
	slog.Info("listening", "addr", *addr, "pprof", *pprofF)
	return http.ListenAndServe(*addr, srv.Handler())
}

// runWork joins a `netsim serve` coordinator as a worker fleet: each
// worker loops acquiring leased shards, runs them through the shared
// sweep engine (optionally against a local content-addressed cache so a
// restarted worker resumes from its journal), and posts rows back.
func runWork(args []string, _, stderr io.Writer) error {
	fs := flag.NewFlagSet("netsim work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8080", "coordinator base URL (a `netsim serve` address)")
	workerN := fs.Int("workers", 1, "concurrent lease workers in this process")
	goroutines := fs.Int("goroutines", 0, "sweep goroutines per worker (0 = GOMAXPROCS)")
	cacheDir := fs.String("cachedir", "", "content-addressed result cache directory (empty = no cache)")
	name := fs.String("name", "", "worker name prefix (default host-pid)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle poll interval between acquire attempts")
	idleExit := fs.Duration("idleexit", 0, "exit after this long with no lease to acquire (0 = run until signaled)")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON on stderr (default: text)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	setupLogging(*logJSON, stderr)
	if *workerN < 1 {
		return usage(fmt.Errorf("-workers %d < 1", *workerN))
	}
	prefix := *name
	if prefix == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		prefix = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runner := sweep.Runner{Workers: *goroutines}
	var fleet []*coordinator.Worker
	for i := 0; i < *workerN; i++ {
		w := &coordinator.Worker{
			Client: &coordinator.Client{BaseURL: *server},
			Build:  sweepserver.PointsFromSpec,
			Runner: runner,
			Name:   fmt.Sprintf("%s-%d", prefix, i),
			Poll:   *poll,

			IdleExit: *idleExit,
			Log:      slog.Default(),
		}
		if *cacheDir != "" {
			// Each worker journals under its own name; the shards all load
			// every sibling journal on open, so a restarted fleet resumes
			// from whatever any predecessor managed to compute.
			c, err := sweepcache.OpenShard(*cacheDir, w.Name)
			if err != nil {
				return err
			}
			defer c.Close()
			w.Cache = c
		}
		fleet = append(fleet, w)
	}
	var wg sync.WaitGroup
	for _, w := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				slog.Error("worker exited", "worker", w.Name, "err", err)
			}
		}()
	}
	slog.Info("workers running", "server", *server, "workers", *workerN, "prefix", prefix)
	wg.Wait()
	return nil
}

// printSaturation emits saturation points in the requested format; CSV goes
// through encoding/csv so topology names containing commas stay one field.
func printSaturation(stdout io.Writer, pts []sweep.SaturationPoint, format string) error {
	switch format {
	case "json":
		type satJSON struct {
			Topology    string  `json:"topology"`
			Mode        string  `json:"mode"`
			Wavelengths int     `json:"wavelengths"`
			Rate        float64 `json:"saturation_rate"`
		}
		out := make([]satJSON, len(pts))
		for i, p := range pts {
			out[i] = satJSON{p.Topology, p.Mode.String(), p.Wavelengths, p.Rate}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case "csv":
		cw := csv.NewWriter(stdout)
		cw.Write([]string{"topology", "mode", "wavelengths", "saturation_rate"})
		for _, p := range pts {
			cw.Write([]string{p.Topology, p.Mode.String(),
				fmt.Sprintf("%d", p.Wavelengths), fmt.Sprintf("%.4f", p.Rate)})
		}
		cw.Flush()
		return cw.Error()
	}
	fmt.Fprintf(stdout, "%-32s %-18s %4s  %s\n", "topology", "mode", "w", "saturation rate")
	for _, p := range pts {
		fmt.Fprintf(stdout, "%-32s %-18s %4d  %.4f\n", p.Topology, p.Mode, p.Wavelengths, p.Rate)
	}
	return nil
}

func printCurveTable(stdout io.Writer, curve []sweep.CurvePoint) {
	withFaults, withTraffic := false, false
	for _, p := range curve {
		if !p.Fault.IsZero() {
			withFaults = true
		}
		if p.TrafficName != "uniform" {
			withTraffic = true
		}
	}
	faultHdr, faultCol := "", "%.0s"
	if withFaults {
		faultHdr, faultCol = fmt.Sprintf(" %-14s", "faults"), " %-14s"
	}
	trafficHdr, trafficCol := "", "%.0s"
	if withTraffic {
		trafficHdr, trafficCol = fmt.Sprintf(" %-18s", "traffic"), " %-18s"
	}
	fmt.Fprintf(stdout, "%-16s"+trafficHdr+" %-6s %-18s %4s"+faultHdr+"  %-18s %-16s %-10s %-8s\n",
		"topology", "rate", "mode", "w", "thr/slot (±std)", "latency (±std)", "hops", "del%")
	for _, p := range curve {
		fmt.Fprintf(stdout, "%-16s"+trafficCol+" %-6.3g %-18s %4d"+faultCol+"  %8.3f ±%-8.3f %8.2f ±%-6.2f %-10.2f %-8.1f\n",
			p.Topology, p.TrafficName, p.Rate, p.Mode, p.Wavelengths, p.Fault.Label(),
			p.Throughput.Mean, p.Throughput.Std,
			p.Latency.Mean, p.Latency.Std,
			p.Hops.Mean, 100*p.DeliveredFrac.Mean)
	}
}
