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
//	go run ./cmd/netsim -net pops -t 9 -g 8 -traffic hotspot -rate 0.2
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
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"otisnet/internal/collective"
	"otisnet/internal/coordinator"
	"otisnet/internal/export"
	"otisnet/internal/faults"
	"otisnet/internal/obs"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
	"otisnet/internal/workload"
)

// setupLogging installs the process logger: slog text on stderr, or JSON
// records when -logjson is set (one object per line, machine-ingestable).
func setupLogging(json bool) {
	if json {
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
		return
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "work" {
		runWork(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "synthtrace" {
		runSynthTrace(os.Args[2:])
		return
	}
	var (
		net      = flag.String("net", "sk", `topology: "sk", "pops", "stackii", "debruijn" or "all" (sweep only)`)
		t        = flag.Int("t", 4, "POPS group size t")
		g        = flag.Int("g", 4, "POPS group count g")
		s        = flag.Int("s", 6, "stack network group size s")
		d        = flag.Int("d", 3, "degree d")
		k        = flag.Int("k", 2, "diameter k")
		n        = flag.Int("n", 12, "stack-Imase-Itoh group count n")
		traffic  = flag.String("traffic", "uniform", `traffic: "uniform", "perm", "hotspot" or "burst"`)
		rate     = flag.Float64("rate", 0.2, "per-node injection probability per slot")
		slots    = flag.Int("slots", 2000, "traffic slots")
		drain    = flag.Int("drain", 2000, "extra drain slots")
		seed     = flag.Int64("seed", 1, "random seed")
		deflect  = flag.Bool("deflect", false, "hot-potato deflection instead of store-and-forward")
		maxQ     = flag.Int("maxq", 0, "per-node queue cap (0 = unbounded)")
		burst    = flag.Int("burst", 500, "messages for burst traffic")
		waves    = flag.Int("wavelengths", 1, "wavelengths per coupler (WDM extension)")
		saturate = flag.Bool("saturate", false, "binary-search the saturation rate instead of one run")
		repeat   = flag.Int("repeat", 1, "repeat the scenario with seeds seed..seed+repeat-1 on one reused engine; reports mean/stddev and engine speed")

		traceF      = flag.String("trace", "", "single run: write sampled engine trace events (NDJSON) to this file")
		traceSample = flag.Int("tracesample", 1, "single run: with -trace, emit events every Nth slot")
		logJSON     = flag.Bool("logjson", false, "structured logs as JSON on stderr (default: text)")

		workloadF   = flag.String("workload", "uniform", `workload: "uniform", "transpose", "hotspot", "bursty", "trace", "multiperiod" or "collective"; sweep: comma list (no collective)`)
		hotGroup    = flag.Int("hotgroup", 0, "hotspot workload: target group index (wraps modulo each topology's group count)")
		hotFrac     = flag.Float64("hotfrac", 0.3, "hotspot workload: fraction of load skewed to the hot group")
		burstOn     = flag.Float64("burston", 50, "bursty/multiperiod workload: mean burst duration (slots)")
		burstOff    = flag.Float64("burstoff", 150, "bursty/multiperiod workload: mean gap duration (slots)")
		burstLow    = flag.Float64("burstlow", 0, "bursty/multiperiod workload: off-state rate factor in [0,1]")
		traceFile   = flag.String("tracefile", "", "trace workload: CSV/NDJSON trace file of (slot,src,dst) events or (slot,rate) records (see `netsim synthtrace`)")
		period      = flag.Int("period", 1000, "multiperiod workload: diurnal period (slots; <= 1 disables the ramp)")
		amplitude   = flag.Float64("amplitude", 0.6, "multiperiod workload: diurnal modulation depth in [0,1]")
		episodeOn   = flag.Float64("episodeon", 400, "multiperiod workload: mean busy-episode length (slots)")
		episodeOff  = flag.Float64("episodeoff", 800, "multiperiod workload: mean gap between episodes (slots)")
		rateSigma   = flag.Float64("ratesigma", 0.35, "multiperiod workload: per-episode peak multiplier sigma (log-half-normal)")
		collectiveF = flag.String("collective", "broadcast", `collective workload: "broadcast" or "gossip" (gossip: POPS only)`)

		faultN    = flag.Int("faults", 0, "fault injection: number of elements to fail (0 = none)")
		faultKind = flag.String("faultkind", "node", `fault injection: element kind, "node", "coupler" or "tx"`)
		faultSlot = flag.Int("faultslot", 0, "fault injection: slot at which the failures strike")
		mtbf      = flag.Float64("mtbf", 0, "fault injection: mean slots between failures (with -mttr: transient faults)")
		mttr      = flag.Float64("mttr", 0, "fault injection: mean slots to repair")

		doSweep  = flag.Bool("sweep", false, "run a parallel scenario sweep instead of one run")
		cacheDir = flag.String("cachedir", "", "sweep: content-addressed result cache directory (reuses completed points; makes interrupted grids resumable)")
		shards   = flag.Int("shards", 1, "sweep: split the grid into this many deterministic shards")
		shardIdx = flag.Int("shard", 0, "sweep: run only this shard (0-based; emits NDJSON shard rows for -mergeshards)")
		mergeF   = flag.String("mergeshards", "", "sweep: merge comma-separated shard NDJSON files (from -shards runs of the same grid) instead of computing")
		rateList = flag.String("rates", "0.05,0.1,0.2,0.4,0.8", "sweep: comma-separated offered loads")
		faultSet = flag.String("faultset", "", "sweep: comma-separated fault counts (degradation curve axis)")
		seeds    = flag.Int("seeds", 3, "sweep: seeds per grid point (1..seeds)")
		modes    = flag.String("modes", "sf", `sweep: comma list of "sf" and/or "deflect"`)
		waveList = flag.String("waveset", "1", "sweep: comma-separated wavelength counts")
		workers  = flag.Int("workers", 0, "sweep: worker goroutines (0 = GOMAXPROCS)")
		replicas = flag.String("replicas", "auto", `sweep: scenarios batched per worker on one replica set ("auto", "off", or a count >= 2); results are bit-for-bit identical either way`)
		format   = flag.String("format", "table", `sweep output: "table", "csv" or "json"`)
		raw      = flag.Bool("raw", false, "sweep: emit raw per-seed results instead of the aggregated curve")
	)
	flag.Parse()
	setupLogging(*logJSON)
	if err := checkRunFlags(*rate, *slots, *drain, *maxQ, *repeat); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(2)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	wf := workloadFlags{
		HotGroup: *hotGroup, HotFrac: *hotFrac,
		BurstOn: *burstOn, BurstOff: *burstOff, BurstLow: *burstLow,
		TraceFile: *traceFile, Period: *period, Amplitude: *amplitude,
		EpisodeOn: *episodeOn, EpisodeOff: *episodeOff, RateSigma: *rateSigma,
		Explicit: explicit,
	}
	if explicit["traffic"] && explicit["workload"] {
		fmt.Fprintln(os.Stderr, "netsim: -traffic (legacy) conflicts with -workload; use one")
		os.Exit(2)
	}
	if explicit["tracesample"] && !explicit["trace"] {
		fmt.Fprintln(os.Stderr, "netsim: -tracesample only applies with -trace")
		os.Exit(2)
	}
	if explicit["trace"] {
		if *traceSample < 1 {
			fmt.Fprintln(os.Stderr, "netsim: -tracesample must be >= 1")
			os.Exit(2)
		}
		// The trace hooks live on one engine; modes that run many engines
		// (or replay schedules) would silently interleave or drop events.
		for _, f := range []string{"sweep", "saturate", "repeat"} {
			if explicit[f] {
				fmt.Fprintf(os.Stderr, "netsim: -trace records a single run; it conflicts with -%s\n", f)
				os.Exit(2)
			}
		}
		if *workloadF == "collective" {
			fmt.Fprintln(os.Stderr, "netsim: -trace records a single run; it does not apply to the collective replay workload")
			os.Exit(2)
		}
	}
	for _, f := range []string{"cachedir", "shards", "shard", "mergeshards"} {
		if explicit[f] && !*doSweep {
			fmt.Fprintf(os.Stderr, "netsim: -%s is a sweep flag; add -sweep\n", f)
			os.Exit(2)
		}
	}

	if *doSweep {
		// Map explicitly set single-run flags into the grid so adding
		// -sweep to an existing command line never silently drops them;
		// setting both a legacy flag and its sweep counterpart is an error.
		if strings.Contains(*workloadF, "collective") {
			fmt.Fprintln(os.Stderr, "netsim: the collective workload replays a schedule and is not sweepable; drop -sweep")
			os.Exit(2)
		}
		if explicit["repeat"] {
			fmt.Fprintln(os.Stderr, "netsim: -repeat is a single-scenario flag; use -seeds for sweep repetitions")
			os.Exit(2)
		}
		conflicts := [][2]string{{"rate", "rates"}, {"deflect", "modes"}, {"wavelengths", "waveset"}, {"seed", "seeds"}, {"faults", "faultset"}}
		for _, c := range conflicts {
			if explicit[c[0]] && explicit[c[1]] {
				fmt.Fprintf(os.Stderr, "netsim: -%s conflicts with -%s in sweep mode; use -%s\n", c[0], c[1], c[1])
				os.Exit(2)
			}
		}
		if *shards < 1 || *shardIdx < 0 || *shardIdx >= *shards {
			fmt.Fprintf(os.Stderr, "netsim: bad shard selection %d/%d (want 0 <= shard < shards)\n", *shardIdx, *shards)
			os.Exit(2)
		}
		if explicit["mergeshards"] && (explicit["shards"] || explicit["shard"]) {
			fmt.Fprintln(os.Stderr, "netsim: -mergeshards consumes shard files; it conflicts with -shards/-shard")
			os.Exit(2)
		}
		if explicit["mergeshards"] && explicit["cachedir"] {
			// The merge path computes nothing, so there is nothing to journal;
			// reject rather than silently ignore the cache request.
			fmt.Fprintln(os.Stderr, "netsim: -mergeshards only reassembles shard files; it does not consult or fill a -cachedir (use -cachedir on the shard runs)")
			os.Exit(2)
		}
		if *shards > 1 && (explicit["format"] || *raw) {
			fmt.Fprintln(os.Stderr, "netsim: a shard run emits NDJSON shard rows only; format selection happens at -mergeshards time")
			os.Exit(2)
		}
		if *saturate {
			for _, f := range []string{"cachedir", "shards", "shard", "mergeshards"} {
				if explicit[f] {
					fmt.Fprintf(os.Stderr, "netsim: -%s does not apply to -sweep -saturate (the search is not a point grid)\n", f)
					os.Exit(2)
				}
			}
			// Saturation sweeps binary-search one seed per point; the rate
			// and seed-count axes do not apply.
			for _, f := range []string{"rates", "seeds"} {
				if explicit[f] {
					fmt.Fprintf(os.Stderr, "netsim: -%s has no effect with -sweep -saturate (use -seed for the search seed)\n", f)
					os.Exit(2)
				}
			}
			// Runner.Saturate does not take a fault axis; reject fault flags
			// rather than silently reporting healthy-network rates.
			for _, f := range []string{"faults", "faultset", "faultkind", "faultslot", "mtbf", "mttr"} {
				if explicit[f] {
					fmt.Fprintf(os.Stderr, "netsim: -%s is not supported with -sweep -saturate (fault injection does not apply to saturation search)\n", f)
					os.Exit(2)
				}
			}
			// Saturation search binary-searches uniform offered load; a
			// workload axis does not apply either.
			if explicit["workload"] {
				fmt.Fprintln(os.Stderr, "netsim: -workload is not supported with -sweep -saturate (the search runs uniform load)")
				os.Exit(2)
			}
		}
		if *raw && explicit["format"] && *format == "table" {
			fmt.Fprintln(os.Stderr, "netsim: -raw emits machine-readable output; use -format csv or json")
			os.Exit(2)
		}
		o := sweepOpts{
			net: *net, t: *t, g: *g, s: *s, d: *d, k: *k, n: *n,
			traffic: *traffic, trafficSet: explicit["traffic"],
			workloads: *workloadF, wf: wf,
			rateExplicit: explicit["rate"] || explicit["rates"],
			burst:        *burst,
			rates:        *rateList, seeds: *seeds, modes: *modes,
			waves: *waveList, slots: *slots, drain: *drain, maxQ: *maxQ,
			seed: *seed, workers: *workers, replicas: parseReplicas(*replicas), format: *format, raw: *raw,
			saturate: *saturate,
			faultSet: *faultSet, faultKind: *faultKind, faultSlot: *faultSlot,
			mtbf: *mtbf, mttr: *mttr,
			cacheDir: *cacheDir, shards: *shards, shard: *shardIdx, merge: *mergeF,
		}
		if explicit["rate"] {
			o.rates = fmt.Sprintf("%g", *rate)
		}
		if explicit["faults"] {
			o.faultSet = fmt.Sprintf("%d", *faultN)
		}
		if explicit["deflect"] && *deflect {
			o.modes = "deflect"
		}
		if explicit["wavelengths"] {
			o.waves = fmt.Sprintf("%d", *waves)
		}
		if explicit["seed"] {
			o.seedList = []int64{*seed}
		}
		runSweep(o)
		return
	}

	if *saturate && explicit["workload"] {
		// SaturationSearch binary-searches uniform offered load; reject the
		// combination instead of reporting a misattributed rate (the sweep
		// path rejects it the same way).
		fmt.Fprintln(os.Stderr, "netsim: -workload is not supported with -saturate (the search runs uniform load)")
		os.Exit(2)
	}
	if *workloadF == "collective" {
		// The replay runs the canonical single-wavelength store-and-forward
		// engine on the fault-free topology; reject flags it would silently
		// ignore rather than report a scenario that never ran.
		for _, f := range []string{"rate", "slots", "drain", "deflect", "wavelengths", "maxq", "saturate",
			"repeat", "faults", "faultkind", "faultslot", "mtbf", "mttr"} {
			if explicit[f] {
				fmt.Fprintf(os.Stderr, "netsim: -%s does not apply to the collective replay workload\n", f)
				os.Exit(2)
			}
		}
		runCollective(*net, *t, *g, *s, *d, *k, *collectiveF, *seed)
		return
	}

	topo, desc, groupSize := buildTopology(*net, *t, *g, *s, *d, *k, *n)
	if err := sim.CheckTopology(topo); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	spec := faultSpec(*faultKind, *faultN, *faultSlot, *mtbf, *mttr, *slots+*drain)
	if !spec.IsZero() {
		topo = spec.Wrap(topo, *seed)
		desc += " faults=" + spec.Label()
	}

	// newTraffic builds a fresh generator per run: bursty, trace and other
	// stateful workloads must not carry state from one repetition into the
	// next.
	trafficName := *traffic
	var newTraffic func() sim.Traffic
	if explicit["traffic"] {
		// Legacy single-run traffic models, kept for script compatibility;
		// -workload is the richer replacement.
		factory, err := legacyTraffic(*traffic, topo.Nodes(), *seed, *burst, wf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(2)
		}
		newTraffic = func() sim.Traffic { return factory(*rate) }
	} else {
		wspecs, err := wf.specs(*workloadF)
		if err == nil && len(wspecs) != 1 {
			err = fmt.Errorf("one workload per single run (add -sweep to sweep a comma list)")
		}
		var force bool
		if err == nil {
			force, err = traceRateOverride(wspecs, explicit["rate"])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(2)
		}
		if force {
			*rate = 1 // traces replay/scale as recorded unless -rate says otherwise
		}
		wspec := wspecs[0]
		newTraffic = func() sim.Traffic { return wspec.New(*rate, topo.Nodes(), groupSize) }
		trafficName = wspec.Label()
	}

	cfg := sim.Config{Seed: *seed, MaxQueue: *maxQ, Deflection: *deflect, Wavelengths: *waves}
	if *saturate {
		if explicit["repeat"] {
			fmt.Fprintln(os.Stderr, "netsim: -repeat does not apply to -saturate (the search already reuses one engine)")
			os.Exit(2)
		}
		rate := sim.SaturationSearch(topo, *slots, 0.95, cfg)
		fmt.Printf("%s: saturation rate ≈ %.4f msgs/node/slot (95%% delivery, %d-slot runs, w=%d)\n",
			desc, rate, *slots, *waves)
		return
	}
	mode := "store-and-forward"
	if *deflect {
		mode = "hot-potato"
	}
	if *repeat > 1 {
		runRepeated(topo, desc, trafficName, mode, newTraffic, cfg, *seed, *repeat, *slots, *drain, *rate)
		return
	}
	// sim.Run is NewEngine+Run; building the engine here lets -trace attach
	// its event sink without changing the simulated scenario.
	eng := sim.NewEngine(topo, cfg)
	var tr *obs.Trace
	if *traceF != "" {
		t, err := obs.OpenTraceFile(*traceF, *traceSample)
		must(err)
		tr = t
		eng.SetTrace(tr)
	}
	m := eng.Run(newTraffic(), *slots, *drain, cfg)
	if tr != nil {
		events := tr.Events()
		must(tr.Close())
		must(tr.Err())
		slog.Info("trace written", "file", *traceF, "events", events, "sample", *traceSample)
	}
	fmt.Printf("%s  traffic=%s rate=%.2f mode=%s\n", desc, trafficName, *rate, mode)
	fmt.Println(m)
	fmt.Printf("per-node throughput: %.4f msgs/slot/node\n", m.Throughput()/float64(topo.Nodes()))
}

// runRepeated executes the scenario `repeat` times with consecutive seeds
// on one reused engine (compiled once, Reset per run), reporting per-seed
// mean/stddev of the headline metrics and the engine's simulation speed.
func runRepeated(topo sim.Topology, desc, trafficName, mode string, newTraffic func() sim.Traffic,
	cfg sim.Config, seed int64, repeat, slots, drain int, rate float64) {
	e := sim.NewEngine(topo, cfg)
	start := time.Now()
	var thr, lat, hops stats
	totalSlots := 0
	for i := 0; i < repeat; i++ {
		rcfg := cfg
		rcfg.Seed = seed + int64(i)
		m := e.Run(newTraffic(), slots, drain, rcfg)
		thr.add(m.Throughput())
		lat.add(m.AvgLatency())
		hops.add(m.AvgHops())
		totalSlots += m.Slots
	}
	elapsed := time.Since(start)
	fmt.Printf("%s  traffic=%s rate=%.2f mode=%s  %d runs, seeds %d..%d, one reused engine\n",
		desc, trafficName, rate, mode, repeat, seed, seed+int64(repeat)-1)
	fmt.Printf("throughput %.3f ± %.3f msgs/slot  latency %.2f ± %.2f slots  hops %.2f ± %.2f\n",
		thr.mean(), thr.stddev(), lat.mean(), lat.stddev(), hops.mean(), hops.stddev())
	fmt.Printf("simulated %d slots in %v (%.2f Mslots/s)\n",
		totalSlots, elapsed.Round(time.Millisecond), float64(totalSlots)/elapsed.Seconds()/1e6)
}

// stats accumulates mean/stddev over per-run values.
type stats struct {
	n          int
	sum, sumSq float64
}

func (s *stats) add(v float64) { s.n++; s.sum += v; s.sumSq += v * v }

func (s *stats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

func (s *stats) stddev() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.sumSq/float64(s.n) - s.mean()*s.mean()
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// runCollective replays a collective-communication schedule through the
// live engine (the dynamic T9 of DESIGN.md) and prints per-round delivery
// against the schedule's intent and the information-theoretic lower bound.
func runCollective(net string, t, g, s, d, k int, kind string, seed int64) {
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
		fmt.Fprintf(os.Stderr, "netsim: no %q schedule for -net %s (sk: broadcast; pops: broadcast or gossip)\n", kind, net)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s — %d rounds replayed through the live engine\n", desc, len(res.Rounds))
	fmt.Printf("%-6s %-14s %-10s %-10s %s\n", "round", "transmissions", "expected", "delivered", "slots")
	for _, r := range res.Rounds {
		fmt.Printf("%-6d %-14d %-10d %-10d %d\n", r.Round, r.Transmissions, r.Expected, r.Delivered, r.Slots)
	}
	fmt.Printf("total: %d engine slots, %d/%d delivered, rounds >= lower bound %d: %v, dissemination complete: %v\n",
		res.Slots, res.Delivered, res.Injected, res.LowerBound, len(res.Rounds) >= res.LowerBound, res.Complete)
	if !res.Complete {
		os.Exit(1)
	}
}

// buildTopology constructs the selected network and returns its simulation
// topology, a display name, and the group size (nodes per OPS group; 0 for
// point-to-point baselines) that group-structured workloads consume. It
// delegates to sweep.TopoSpec — the same constructor the sweep service
// uses for JSON-submitted grids — so CLI and server scenarios can never
// drift apart.
func buildTopology(net string, t, g, s, d, k, n int) (sim.Topology, string, int) {
	topo, err := sweep.TopoSpec{Net: net, T: t, G: g, S: s, D: d, K: k, N: n}.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(2)
	}
	return topo.Topo, topo.Name, topo.GroupSize
}

type sweepOpts struct {
	net                 string
	t, g, s, d, k, n    int
	traffic             string
	trafficSet          bool // -traffic was explicit: legacy factory path
	workloads           string
	wf                  workloadFlags
	rateExplicit        bool // -rate/-rates was explicit (trace-axis rules)
	burst               int  // legacy -traffic burst message count
	rates, modes, waves string
	seeds               int
	seedList            []int64 // non-nil overrides seeds (explicit -seed)
	slots, drain, maxQ  int
	seed                int64
	workers             int
	replicas            int // sweep.Runner.Replicas (AutoReplicas, 0, or >= 2)
	format              string
	raw                 bool
	saturate            bool
	faultSet, faultKind string
	faultSlot           int
	mtbf, mttr          float64
	// Service-layer options: result cache directory, shard selection and
	// shard-file merge (see runSweep).
	cacheDir      string
	shards, shard int
	merge         string
}

func runSweep(o sweepOpts) {
	switch o.format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "netsim: bad sweep format %q (want table, csv or json)\n", o.format)
		os.Exit(2)
	}
	var topos []sweep.Topology
	if o.net == "all" {
		topos = sweep.ComparableScaleTrio()
	} else {
		topo, desc, groupSize := buildTopology(o.net, o.t, o.g, o.s, o.d, o.k, o.n)
		topos = []sweep.Topology{{Name: desc, Topo: topo, GroupSize: groupSize}}
	}
	var factory sweep.TrafficFactory
	trafficName := ""
	if o.trafficSet {
		// Legacy -traffic factory path, kept for script compatibility. Only
		// the stateless models sweep (perm pins one permutation per seed and
		// burst ignores rate; both would mislabel grid points).
		switch o.traffic {
		case "uniform", "hotspot":
		default:
			fmt.Fprintf(os.Stderr, "netsim: traffic %q is not sweepable (want uniform or hotspot, or use -workload)\n", o.traffic)
			os.Exit(2)
		}
		minNodes := topos[0].Topo.Nodes()
		for _, tp := range topos[1:] {
			if n := tp.Topo.Nodes(); n < minNodes {
				minNodes = n
			}
		}
		f, err := legacyTraffic(o.traffic, minNodes, o.seed, o.burst, o.wf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(2)
		}
		if o.traffic != "uniform" {
			factory = f // uniform is the grid default; leave factory nil
		}
		trafficName = o.traffic
	}
	var wspecs []workload.Spec
	if !o.trafficSet {
		ws, err := o.wf.specs(o.workloads)
		var force bool
		if err == nil {
			force, err = traceRateOverride(ws, o.rateExplicit)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(2)
		}
		if force {
			o.rates = "1" // traces replay/scale as recorded unless -rates says otherwise
		}
		wspecs = ws
	}
	for _, tp := range topos {
		if err := sim.CheckTopology(tp.Topo); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(1)
		}
	}

	seedAxis := o.seedList
	if seedAxis == nil {
		seedAxis = seedRange(o.seeds)
	}
	var fspecs []faults.Spec
	for _, f := range strings.Split(o.faultSet, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		count, err := strconv.Atoi(f)
		if err != nil || count < 0 {
			fmt.Fprintf(os.Stderr, "netsim: bad fault count %q (want an integer >= 0)\n", f)
			os.Exit(2)
		}
		fspecs = append(fspecs, faultSpec(o.faultKind, count, o.faultSlot, o.mtbf, o.mttr, o.slots+o.drain))
	}
	grid := sweep.Grid{
		Topologies:  topos,
		Rates:       parseFloats(o.rates),
		Seeds:       seedAxis,
		Modes:       parseModes(o.modes),
		Wavelengths: parseInts(o.waves),
		MaxQueue:    o.maxQ,
		Slots:       o.slots,
		Drain:       o.drain,
		Traffic:     factory,
		TrafficName: trafficName,
		Faults:      fspecs,
		Workloads:   wspecs,
	}
	runner := sweep.Runner{Workers: o.workers, Replicas: o.replicas}

	if o.saturate {
		printSaturation(runner.Saturate(grid, o.slots, 0.95, o.seed), o.format)
		return
	}

	points := grid.Points()

	// Merge mode: the grid flags define the point list; the shard files
	// supply the metrics. Output goes through the normal format paths, so a
	// merged grid is byte-for-byte a single-process sweep.
	if o.merge != "" {
		var shardRows [][]sweep.ShardResult
		for _, path := range strings.Split(o.merge, ",") {
			if path = strings.TrimSpace(path); path != "" {
				shardRows = append(shardRows, readShardFile(path))
			}
		}
		results, err := sweep.MergeShardResults(points, shardRows...)
		must(err)
		emitResults(o, results)
		return
	}

	// The content-addressed cache: reused points skip simulation entirely;
	// computed points are journaled, so an interrupted run resumes. Shard
	// runs journal to per-shard files so concurrent processes never
	// interleave appends.
	var cache *sweepcache.Cache
	var pointCache sweep.PointCache
	if o.cacheDir != "" {
		shardName := ""
		if o.shards > 1 {
			shardName = fmt.Sprintf("shard%d", o.shard)
		}
		c, err := sweepcache.OpenShard(o.cacheDir, shardName)
		must(err)
		cache = c
		pointCache = c
	}

	if o.shards > 1 {
		shard, err := sweep.ShardPoints(points, o.shard, o.shards)
		must(err)
		results, err := runner.RunCached(context.Background(), shard.Points, pointCache, nil)
		must(err)
		for _, row := range shard.ShardResults(results) {
			must(export.WriteNDJSONLine(os.Stdout, row))
		}
		closeCache(cache)
		return
	}

	results, err := runner.RunCached(context.Background(), points, pointCache, nil)
	must(err)
	if cache != nil {
		st := cache.Stats()
		slog.Info("sweep cache", "dir", o.cacheDir,
			"reused", st.Hits, "computed", st.Misses, "points", len(points), "entries", st.Entries)
	}
	closeCache(cache)
	emitResults(o, results)
}

// emitResults writes sweep results in the selected format.
func emitResults(o sweepOpts, results []sweep.Result) {
	switch {
	case o.raw && o.format == "json":
		must(sweep.WriteResultsJSON(os.Stdout, results))
	case o.raw:
		must(sweep.WriteResultsCSV(os.Stdout, results))
	case o.format == "json":
		must(sweep.WriteCurveJSON(os.Stdout, sweep.Aggregate(results)))
	case o.format == "csv":
		must(sweep.WriteCurveCSV(os.Stdout, sweep.Aggregate(results)))
	default:
		printCurveTable(sweep.Aggregate(results))
	}
}

// readShardFile loads one -shards run's NDJSON rows.
func readShardFile(path string) []sweep.ShardResult {
	f, err := os.Open(path)
	must(err)
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
	must(err)
	if truncated {
		slog.Warn("shard file ends mid-line (interrupted shard?); dropped the torn fragment", "file", path)
	}
	return rows
}

// closeCache closes the journal, surfacing a degraded-persistence warning
// (a failed append never fails the sweep itself).
func closeCache(c *sweepcache.Cache) {
	if c == nil {
		return
	}
	if err := c.Err(); err != nil {
		slog.Warn("cache journal degraded (results are complete; the journal is not)", "err", err)
	}
	c.Close()
}

// runServe starts the sweep service (internal/sweepserver): submit grids,
// stream per-point results as NDJSON, query cache stats, cancel jobs.
func runServe(args []string) {
	fs := flag.NewFlagSet("netsim serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheDir := fs.String("cachedir", "", "content-addressed result cache directory (empty = in-memory only)")
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	replicas := fs.String("replicas", "auto", `scenarios batched per worker on one replica set ("auto", "off", or a count >= 2); a grid's "replicas" field overrides`)
	pprofF := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON on stderr (default: text)")
	fs.Parse(args)
	setupLogging(*logJSON)
	var cache *sweepcache.Cache
	if *cacheDir != "" {
		// The server journals under its own name so a concurrent CLI sweep
		// appending to the same directory (journal.ndjson) never interleaves
		// writes with it.
		c, err := sweepcache.OpenShard(*cacheDir, "server")
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(1)
		}
		cache = c
		st := c.Stats()
		slog.Info("cache loaded", "dir", *cacheDir, "entries", st.Entries, "torn_lines", st.TornLines)
	}
	srv := sweepserver.New(sweep.Runner{Workers: *workers, Replicas: parseReplicas(*replicas)}, cache)
	srv.Pprof = *pprofF
	slog.Info("listening", "addr", *addr, "pprof", *pprofF)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
}

// runWork joins a `netsim serve` coordinator as a worker fleet: each
// worker loops acquiring leased shards, runs them through the shared
// sweep engine (optionally against a local content-addressed cache so a
// restarted worker resumes from its journal), and posts rows back.
func runWork(args []string) {
	fs := flag.NewFlagSet("netsim work", flag.ExitOnError)
	server := fs.String("server", "http://127.0.0.1:8080", "coordinator base URL (a `netsim serve` address)")
	workerN := fs.Int("workers", 1, "concurrent lease workers in this process")
	goroutines := fs.Int("goroutines", 0, "sweep goroutines per worker (0 = GOMAXPROCS)")
	replicas := fs.String("replicas", "auto", `scenarios batched per goroutine on one replica set ("auto", "off", or a count >= 2)`)
	cacheDir := fs.String("cachedir", "", "content-addressed result cache directory (empty = no cache)")
	name := fs.String("name", "", "worker name prefix (default host-pid)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle poll interval between acquire attempts")
	idleExit := fs.Duration("idleexit", 0, "exit after this long with no lease to acquire (0 = run until signaled)")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON on stderr (default: text)")
	fs.Parse(args)
	setupLogging(*logJSON)
	if *workerN < 1 {
		fmt.Fprintf(os.Stderr, "netsim: -workers %d < 1\n", *workerN)
		os.Exit(2)
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
	runner := sweep.Runner{Workers: *goroutines, Replicas: parseReplicas(*replicas)}
	var wg sync.WaitGroup
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
				fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
				os.Exit(1)
			}
			defer c.Close()
			w.Cache = c
		}
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
}

// printSaturation emits saturation points in the requested format; CSV goes
// through encoding/csv so topology names containing commas stay one field.
func printSaturation(pts []sweep.SaturationPoint, format string) {
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(out))
	case "csv":
		cw := csv.NewWriter(os.Stdout)
		must(cw.Write([]string{"topology", "mode", "wavelengths", "saturation_rate"}))
		for _, p := range pts {
			must(cw.Write([]string{p.Topology, p.Mode.String(),
				fmt.Sprintf("%d", p.Wavelengths), fmt.Sprintf("%.4f", p.Rate)}))
		}
		cw.Flush()
		must(cw.Error())
	default:
		fmt.Printf("%-32s %-18s %4s  %s\n", "topology", "mode", "w", "saturation rate")
		for _, p := range pts {
			fmt.Printf("%-32s %-18s %4d  %.4f\n", p.Topology, p.Mode, p.Wavelengths, p.Rate)
		}
	}
}

func printCurveTable(curve []sweep.CurvePoint) {
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
	fmt.Printf("%-16s"+trafficHdr+" %-6s %-18s %4s"+faultHdr+"  %-18s %-16s %-10s %-8s\n",
		"topology", "rate", "mode", "w", "thr/slot (±std)", "latency (±std)", "hops", "del%")
	for _, p := range curve {
		fmt.Printf("%-16s"+trafficCol+" %-6.3g %-18s %4d"+faultCol+"  %8.3f ±%-8.3f %8.2f ±%-6.2f %-10.2f %-8.1f\n",
			p.Topology, p.TrafficName, p.Rate, p.Mode, p.Wavelengths, p.Fault.Label(),
			p.Throughput.Mean, p.Throughput.Std,
			p.Latency.Mean, p.Latency.Std,
			p.Hops.Mean, 100*p.DeliveredFrac.Mean)
	}
}

// parseReplicas maps the -replicas flag onto sweep.Runner.Replicas:
// "auto" sizes batches from the grid's stream-sibling families, "off" (or
// 0/1) keeps per-scenario dispatch, and a count >= 2 pins the batch size.
func parseReplicas(s string) int {
	switch strings.TrimSpace(s) {
	case "auto", "":
		return sweep.AutoReplicas
	case "off", "0", "1":
		return 0
	}
	r, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || r < 2 {
		fmt.Fprintf(os.Stderr, "netsim: bad -replicas %q (want auto, off, or a count >= 2)\n", s)
		os.Exit(2)
	}
	return r
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v > 1 {
			fmt.Fprintf(os.Stderr, "netsim: bad rate %q (want a probability in [0,1])\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "netsim: bad wavelength count %q (want an integer >= 1)\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseModes(s string) []sweep.Mode {
	var out []sweep.Mode
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "sf":
			out = append(out, sweep.StoreAndForward)
		case "deflect":
			out = append(out, sweep.Deflection)
		case "":
		default:
			fmt.Fprintf(os.Stderr, "netsim: bad mode %q (want sf or deflect)\n", f)
			os.Exit(2)
		}
	}
	return out
}

// faultSpec assembles and validates the fault-injection spec shared by the
// single-run and sweep paths. horizon bounds the MTBF/MTTR event stream.
func faultSpec(kind string, count, slot int, mtbf, mttr float64, horizon int) faults.Spec {
	var k faults.Kind
	switch kind {
	case "node":
		k = faults.KindNode
	case "coupler":
		k = faults.KindCoupler
	case "tx":
		k = faults.KindTransmitter
	default:
		fmt.Fprintf(os.Stderr, "netsim: bad fault kind %q (want node, coupler or tx)\n", kind)
		os.Exit(2)
	}
	if (mtbf > 0) != (mttr > 0) {
		fmt.Fprintln(os.Stderr, "netsim: -mtbf and -mttr must be set together")
		os.Exit(2)
	}
	return faults.Spec{Kind: k, Count: count, Slot: slot, MTBF: mtbf, MTTR: mttr, Horizon: horizon}
}

func seedRange(n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
}
