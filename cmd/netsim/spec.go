package main

// Scenario flags → sweepserver.GridSpec. Every single run and sweep is
// described by the GridSpec the service and every `netsim work` process
// also expand, so the command line checks only what is about flags
// themselves (combinations, list syntax, flags no selected workload
// honors) and leaves every scenario rule to GridSpec.Grid. A single run
// is the one-point grid.

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepserver"
	"otisnet/internal/workload"
)

// simFlags are the flags of a simulation command line (single run or
// sweep), plus the names the user spelled explicitly (flag.Visit).
type simFlags struct {
	net                              *string
	t, g, s, d, k, n                 *int
	rate                             *float64
	slots, drain                     *int
	seed                             *int64
	deflect                          *bool
	maxQ, waves                      *int
	saturate                         *bool
	repeat                           *int
	trace                            *string
	traceSample                      *int
	logJSON                          *bool
	workload                         *string
	hotGroup                         *int
	hotFrac, burstOn, burstOff       *float64
	burstLow                         *float64
	traceFile                        *string
	period                           *int
	amplitude, episodeOn, episodeOff *float64
	rateSigma                        *float64
	collective                       *string
	faultN                           *int
	faultKind                        *string
	faultSlot                        *int
	mtbf, mttr                       *float64
	sweep                            *bool
	cacheDir                         *string
	shards, shard                    *int
	merge, rates, faultSet           *string
	seeds                            *int
	modes, waveset                   *string
	workers                          *int
	format                           *string
	raw                              *bool

	explicit map[string]bool
}

// parseSimFlags parses a simulation command line; the FlagSet reports
// parse errors and -h on stderr.
func parseSimFlags(args []string, stderr io.Writer) (*simFlags, error) {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := newSimFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	fs.Visit(func(fl *flag.Flag) { f.explicit[fl.Name] = true })
	return f, nil
}

func newSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		net:      fs.String("net", "sk", `topology: "sk", "pops", "stackii", "debruijn" or "all" (sweep only)`),
		t:        fs.Int("t", 4, "POPS group size t"),
		g:        fs.Int("g", 4, "POPS group count g"),
		s:        fs.Int("s", 6, "stack network group size s"),
		d:        fs.Int("d", 3, "degree d"),
		k:        fs.Int("k", 2, "diameter k"),
		n:        fs.Int("n", 12, "stack-Imase-Itoh group count n"),
		rate:     fs.Float64("rate", 0.2, "per-node injection probability per slot"),
		slots:    fs.Int("slots", 2000, "traffic slots"),
		drain:    fs.Int("drain", 2000, "extra drain slots"),
		seed:     fs.Int64("seed", 1, "random seed"),
		deflect:  fs.Bool("deflect", false, "hot-potato deflection instead of store-and-forward"),
		maxQ:     fs.Int("maxq", 0, "per-node queue cap (0 = unbounded)"),
		waves:    fs.Int("wavelengths", 1, "wavelengths per coupler (WDM extension)"),
		saturate: fs.Bool("saturate", false, "binary-search the saturation rate instead of one run"),
		repeat:   fs.Int("repeat", 1, "repeat the scenario with seeds seed..seed+repeat-1 on one reused engine; reports mean/stddev and engine speed"),

		trace:       fs.String("trace", "", "single run: write sampled engine trace events (NDJSON) to this file"),
		traceSample: fs.Int("tracesample", 1, "single run: with -trace, emit events every Nth slot"),
		logJSON:     fs.Bool("logjson", false, "structured logs as JSON on stderr (default: text)"),

		workload:   fs.String("workload", "uniform", `workload: "uniform", "transpose", "hotspot", "bursty", "trace", "multiperiod" or "collective"; sweep: comma list (no collective)`),
		hotGroup:   fs.Int("hotgroup", 0, "hotspot workload: target group index (wraps modulo each topology's group count)"),
		hotFrac:    fs.Float64("hotfrac", 0.3, "hotspot workload: fraction of load skewed to the hot group"),
		burstOn:    fs.Float64("burston", 50, "bursty/multiperiod workload: mean burst duration (slots)"),
		burstOff:   fs.Float64("burstoff", 150, "bursty/multiperiod workload: mean gap duration (slots)"),
		burstLow:   fs.Float64("burstlow", 0, "bursty/multiperiod workload: off-state rate factor in [0,1]"),
		traceFile:  fs.String("tracefile", "", "trace workload: CSV/NDJSON trace file of (slot,src,dst) events or (slot,rate) records (see `netsim synthtrace`)"),
		period:     fs.Int("period", 1000, "multiperiod workload: diurnal period (slots; <= 1 disables the ramp)"),
		amplitude:  fs.Float64("amplitude", 0.6, "multiperiod workload: diurnal modulation depth in [0,1]"),
		episodeOn:  fs.Float64("episodeon", 400, "multiperiod workload: mean busy-episode length (slots)"),
		episodeOff: fs.Float64("episodeoff", 800, "multiperiod workload: mean gap between episodes (slots)"),
		rateSigma:  fs.Float64("ratesigma", 0.35, "multiperiod workload: per-episode peak multiplier sigma (log-half-normal)"),
		collective: fs.String("collective", "broadcast", `collective workload: "broadcast" or "gossip" (gossip: POPS only)`),

		faultN:    fs.Int("faults", 0, "fault injection: number of elements to fail (0 = none)"),
		faultKind: fs.String("faultkind", "node", `fault injection: element kind, "node", "coupler" or "tx"`),
		faultSlot: fs.Int("faultslot", 0, "fault injection: slot at which the failures strike"),
		mtbf:      fs.Float64("mtbf", 0, "fault injection: mean slots between failures (with -mttr: transient faults)"),
		mttr:      fs.Float64("mttr", 0, "fault injection: mean slots to repair"),

		sweep:    fs.Bool("sweep", false, "run a parallel scenario sweep instead of one run"),
		cacheDir: fs.String("cachedir", "", "sweep: content-addressed result cache directory (reuses completed points; makes interrupted grids resumable)"),
		shards:   fs.Int("shards", 1, "sweep: split the grid into this many deterministic shards"),
		shard:    fs.Int("shard", 0, "sweep: run only this shard (0-based; emits NDJSON shard rows for -mergeshards)"),
		merge:    fs.String("mergeshards", "", "sweep: merge comma-separated shard NDJSON files (from -shards runs of the same grid) instead of computing"),
		rates:    fs.String("rates", "0.05,0.1,0.2,0.4,0.8", "sweep: comma-separated offered loads"),
		faultSet: fs.String("faultset", "", "sweep: comma-separated fault counts (degradation curve axis)"),
		seeds:    fs.Int("seeds", 3, "sweep: seeds per grid point (1..seeds)"),
		modes:    fs.String("modes", "sf", `sweep: comma list of "sf" and/or "deflect"`),
		waveset:  fs.String("waveset", "1", "sweep: comma-separated wavelength counts"),
		workers:  fs.Int("workers", 0, "sweep: worker goroutines (0 = GOMAXPROCS)"),
		format:   fs.String("format", "table", `sweep output: "table", "csv" or "json"`),
		raw:      fs.Bool("raw", false, "sweep: emit raw per-seed results instead of the aggregated curve"),

		explicit: map[string]bool{},
	}
}

// check rejects flag combinations that no run can honor: a flag the
// selected mode would silently ignore, or two flags that set one axis.
func (f *simFlags) check() error {
	ex := f.explicit
	if err := checkRunFlags(*f.slots, *f.repeat, *f.seeds); err != nil {
		return err
	}
	// A zero TopoSpec field means "the default", so an explicit 0 would
	// silently run the default network.
	for _, p := range []struct {
		name string
		v    int
	}{{"t", *f.t}, {"g", *f.g}, {"s", *f.s}, {"d", *f.d}, {"k", *f.k}, {"n", *f.n}} {
		if p.v < 1 {
			return fmt.Errorf("bad -%s %d (want >= 1)", p.name, p.v)
		}
	}
	if ex["tracesample"] && !ex["trace"] {
		return fmt.Errorf("-tracesample only applies with -trace")
	}
	if ex["trace"] {
		if *f.traceSample < 1 {
			return fmt.Errorf("-tracesample must be >= 1")
		}
		// The trace hooks live on one engine; modes that run many engines
		// (or replay schedules) would silently interleave or drop events.
		for _, name := range []string{"sweep", "saturate", "repeat"} {
			if ex[name] {
				return fmt.Errorf("-trace records a single run; it conflicts with -%s", name)
			}
		}
		if *f.workload == "collective" {
			return fmt.Errorf("-trace records a single run; it does not apply to the collective replay workload")
		}
	}
	for _, name := range []string{"cachedir", "shards", "shard", "mergeshards"} {
		if ex[name] && !*f.sweep {
			return fmt.Errorf("-%s is a sweep flag; add -sweep", name)
		}
	}
	if *f.sweep {
		return f.checkSweep()
	}
	if *f.saturate && ex["workload"] {
		// SaturationSearch binary-searches uniform offered load; reject the
		// combination instead of reporting a misattributed rate.
		return fmt.Errorf("-workload is not supported with -saturate (the search runs uniform load)")
	}
	if *f.saturate && ex["repeat"] {
		return fmt.Errorf("-repeat does not apply to -saturate (the search already reuses one engine)")
	}
	if *f.workload == "collective" {
		// The replay runs the canonical single-wavelength store-and-forward
		// engine on the fault-free topology; reject flags it would silently
		// ignore rather than report a scenario that never ran.
		for _, name := range []string{"rate", "slots", "drain", "deflect", "wavelengths", "maxq", "saturate",
			"repeat", "faults", "faultkind", "faultslot", "mtbf", "mttr"} {
			if ex[name] {
				return fmt.Errorf("-%s does not apply to the collective replay workload", name)
			}
		}
	}
	return nil
}

// checkSweep is check's -sweep half.
func (f *simFlags) checkSweep() error {
	ex := f.explicit
	if strings.Contains(*f.workload, "collective") {
		return fmt.Errorf("the collective workload replays a schedule and is not sweepable; drop -sweep")
	}
	if ex["repeat"] {
		return fmt.Errorf("-repeat is a single-scenario flag; use -seeds for sweep repetitions")
	}
	if *f.net == "all" {
		// gridSpec swaps in the fixed comparable-scale trio.
		for _, name := range []string{"t", "g", "s", "d", "k", "n"} {
			if ex[name] {
				return fmt.Errorf("-%s does not apply to -net all, which sweeps the fixed comparable-scale trio", name)
			}
		}
	}
	// Explicit single-run flags pin their sweep axis (see gridSpec), so
	// setting both a single-run flag and its sweep counterpart is an error.
	for _, c := range [][2]string{{"rate", "rates"}, {"deflect", "modes"}, {"wavelengths", "waveset"}, {"seed", "seeds"}, {"faults", "faultset"}} {
		if ex[c[0]] && ex[c[1]] {
			return fmt.Errorf("-%s conflicts with -%s in sweep mode; use -%s", c[0], c[1], c[1])
		}
	}
	if *f.shards < 1 || *f.shard < 0 || *f.shard >= *f.shards {
		return fmt.Errorf("bad shard selection %d/%d (want 0 <= shard < shards)", *f.shard, *f.shards)
	}
	if ex["mergeshards"] && (ex["shards"] || ex["shard"]) {
		return fmt.Errorf("-mergeshards consumes shard files; it conflicts with -shards/-shard")
	}
	if ex["mergeshards"] && ex["cachedir"] {
		// The merge path computes nothing, so there is nothing to journal;
		// reject rather than silently ignore the cache request.
		return fmt.Errorf("-mergeshards only reassembles shard files; it does not consult or fill a -cachedir (use -cachedir on the shard runs)")
	}
	if *f.shards > 1 && (ex["format"] || *f.raw) {
		return fmt.Errorf("a shard run emits NDJSON shard rows only; format selection happens at -mergeshards time")
	}
	if *f.saturate {
		for _, name := range []string{"cachedir", "shards", "shard", "mergeshards"} {
			if ex[name] {
				return fmt.Errorf("-%s does not apply to -sweep -saturate (the search is not a point grid)", name)
			}
		}
		// Saturation sweeps binary-search one seed per point; the rate
		// and seed-count axes do not apply.
		for _, name := range []string{"rates", "seeds"} {
			if ex[name] {
				return fmt.Errorf("-%s has no effect with -sweep -saturate (use -seed for the search seed)", name)
			}
		}
		// Runner.Saturate does not take a fault axis; reject fault flags
		// rather than silently reporting healthy-network rates.
		for _, name := range []string{"faults", "faultset", "faultkind", "faultslot", "mtbf", "mttr"} {
			if ex[name] {
				return fmt.Errorf("-%s is not supported with -sweep -saturate (fault injection does not apply to saturation search)", name)
			}
		}
		if ex["workload"] {
			return fmt.Errorf("-workload is not supported with -sweep -saturate (the search runs uniform load)")
		}
	}
	if *f.raw && ex["format"] && *f.format == "table" {
		return fmt.Errorf("-raw emits machine-readable output; use -format csv or json")
	}
	switch *f.format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("bad sweep format %q (want table, csv or json)", *f.format)
	}
	return nil
}

// gridSpec maps the flags onto the GridSpec of the run. A single run sets
// one value per axis from the single-run flags. A sweep takes its axes
// from the sweep flags, except that an explicit single-run flag pins its
// axis, so adding -sweep to a command line never silently drops it.
func (f *simFlags) gridSpec() (sweepserver.GridSpec, error) {
	topos := []sweep.TopoSpec{{Net: *f.net, T: *f.t, G: *f.g, S: *f.s, D: *f.d, K: *f.k, N: *f.n}}
	if *f.sweep && *f.net == "all" {
		topos = sweep.ComparableScaleTrioSpecs()
	}
	mode := "sf"
	if *f.deflect {
		mode = "deflect"
	}
	gs := sweepserver.GridSpec{
		Topologies:  topos,
		Rates:       []float64{*f.rate},
		Seeds:       []int64{*f.seed},
		Modes:       []string{mode},
		Wavelengths: []int{*f.waves},
		MaxQueue:    *f.maxQ,
		Slots:       *f.slots,
		Drain:       *f.drain,
	}
	counts := []int{*f.faultN}
	if *f.sweep {
		var errRates, errModes, errWaves, errFaults error
		if !f.explicit["rate"] {
			gs.Rates, errRates = splitList("rates", *f.rates, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
		}
		if !f.explicit["seed"] {
			gs.Seeds = seedRange(*f.seeds)
		}
		if !(f.explicit["deflect"] && *f.deflect) {
			gs.Modes, errModes = splitList("modes", *f.modes, func(v string) (string, error) { return v, nil })
		}
		if !f.explicit["wavelengths"] {
			gs.Wavelengths, errWaves = splitList("waveset", *f.waveset, strconv.Atoi)
		}
		if f.explicit["faultset"] {
			counts, errFaults = splitList("faultset", *f.faultSet, strconv.Atoi)
		}
		if err := cmp.Or(errRates, errModes, errWaves, errFaults); err != nil {
			return gs, err
		}
	}
	for _, c := range counts {
		gs.Faults = append(gs.Faults, sweepserver.FaultSpec{
			Kind: *f.faultKind, Count: c, Slot: *f.faultSlot, MTBF: *f.mtbf, MTTR: *f.mttr,
		})
	}
	var err error
	if gs.Workloads, err = f.workloads(); err != nil {
		return gs, err
	}
	if !*f.sweep && len(gs.Workloads) != 1 {
		return gs, fmt.Errorf("one workload per single run (add -sweep to sweep a comma list)")
	}
	rateExplicit := f.explicit["rate"] || (*f.sweep && f.explicit["rates"])
	if !rateExplicit && slices.ContainsFunc(gs.Workloads, func(ws sweepserver.WorkloadSpec) bool { return ws.Kind == "trace" }) {
		gs.Rates = nil // GridSpec replays trace workloads at rate 1
	}
	return gs, nil
}

// workloadFlagHonor lists, in reporting order, each workload-family flag
// and the kinds that honor it.
var workloadFlagHonor = []struct {
	flag  string
	kinds []workload.Kind
}{
	{"hotgroup", []workload.Kind{workload.KindHotspot}},
	{"hotfrac", []workload.Kind{workload.KindHotspot}},
	{"burston", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"burstoff", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"burstlow", []workload.Kind{workload.KindBursty, workload.KindMultiPeriod}},
	{"tracefile", []workload.Kind{workload.KindTrace}},
	{"period", []workload.Kind{workload.KindMultiPeriod}},
	{"amplitude", []workload.Kind{workload.KindMultiPeriod}},
	{"episodeon", []workload.Kind{workload.KindMultiPeriod}},
	{"episodeoff", []workload.Kind{workload.KindMultiPeriod}},
	{"ratesigma", []workload.Kind{workload.KindMultiPeriod}},
}

// workloads maps the -workload list onto GridSpec workloads and rejects
// any explicitly set workload flag that no selected kind honors. Each
// spec carries every workload flag; GridSpec keeps the ones its kind
// reads. Multiperiod reuses the bursty flags (-burston/-burstoff/
// -burstlow) for its flicker and floor: it is bursts-of-bursts, with the
// episode layer on top.
func (f *simFlags) workloads() ([]sweepserver.WorkloadSpec, error) {
	var out []sweepserver.WorkloadSpec
	kinds := map[workload.Kind]bool{}
	for _, name := range strings.Split(*f.workload, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, err := workload.ParseKind(name)
		if err != nil {
			return nil, err
		}
		kinds[k] = true
		out = append(out, sweepserver.WorkloadSpec{
			Kind: name, HotGroup: *f.hotGroup, Fraction: *f.hotFrac,
			MeanOn: *f.burstOn, MeanOff: *f.burstOff, OffFactor: *f.burstLow,
			TraceFile: *f.traceFile, Period: *f.period, Amplitude: *f.amplitude,
			EpisodeOn: *f.episodeOn, EpisodeOff: *f.episodeOff, RateSigma: *f.rateSigma,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workload names no workloads")
	}
	for _, fk := range workloadFlagHonor {
		if !f.explicit[fk.flag] {
			continue
		}
		honored := false
		names := make([]string, len(fk.kinds))
		for i, k := range fk.kinds {
			honored = honored || kinds[k]
			names[i] = k.String()
		}
		if !honored {
			return nil, fmt.Errorf("-%s applies to the %s workload; none of the selected workloads honor it",
				fk.flag, strings.Join(names, "/"))
		}
	}
	return out, nil
}

// checkRunFlags validates the run-length flags that exist only on the
// command line: a run has at least one traffic slot (GridSpec reads 0 as
// its default), and -repeat and -seeds run the scenario at least once.
// The rate, drain, queue cap and wavelength ranges are GridSpec's.
func checkRunFlags(slots, repeat, seeds int) error {
	switch {
	case slots < 1:
		return fmt.Errorf("bad -slots %d (want >= 1)", slots)
	case repeat < 1:
		return fmt.Errorf("bad -repeat %d (want >= 1)", repeat)
	case seeds < 1:
		return fmt.Errorf("bad -seeds %d (want >= 1)", seeds)
	}
	return nil
}

// splitList parses a comma-separated sweep axis flag, skipping blank
// fields. Ranges are GridSpec's to check; an axis that names no values
// is an error, never a silent fall back to the grid default.
func splitList[T any](name, list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, v := range strings.Split(list, ",") {
		if v = strings.TrimSpace(v); v == "" {
			continue
		}
		x, err := parse(v)
		if err != nil {
			return nil, fmt.Errorf("bad -%s value %q", name, v)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s names no values", name)
	}
	return out, nil
}

func seedRange(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}
