package main

// Command-line tests. Every bad input is a row of arguments paired with
// its exact error and exit status, run in-process through run; only
// TestExitCodes starts child processes, to pin what main does with them.

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"otisnet/internal/workload"
)

// runMainEnv marks a child copy of the test binary that runs netsim's
// main on its arguments instead of the tests (see TestExitCodes).
const runMainEnv = "NETSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main() // exits
	}
	m.Run()
}

// argsCase is one command line with its exact error ("" = runs cleanly)
// and exit status.
type argsCase struct {
	name string
	args []string
	want string
	code int
}

// runArgsCases runs each command line in-process.
func runArgsCases(t *testing.T, cases []argsCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard)
			code := report(err, io.Discard)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("netsim %q: unexpected error %v", tc.args, err)
			case tc.want != "" && err == nil:
				t.Fatalf("netsim %q: accepted, want error %q", tc.args, tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("netsim %q: error %q, want %q", tc.args, err, tc.want)
			case code != tc.code:
				t.Fatalf("netsim %q: exit %d, want %d", tc.args, code, tc.code)
			}
		})
	}
}

func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBadFlags pairs every rejected command line with its exact error and
// exit status: 2 for a bad command line, 1 for a run that fails.
func TestBadFlags(t *testing.T) {
	ev := writeTrace(t, "0,1,2\n2,3,4\n")
	nan := writeTrace(t, "0,0.2\n5,NaN\n")
	missing := filepath.Join(t.TempDir(), "missing.ndjson")
	small := []string{"-net", "sk", "-s", "2", "-d", "2", "-k", "2"}
	sk := func(args ...string) []string { return append(append([]string{}, small...), args...) }
	runArgsCases(t, []argsCase{
		// Observability flags.
		{"tracesample without trace", []string{"-tracesample", "5"}, "-tracesample only applies with -trace", 2},
		{"tracesample zero", []string{"-trace", "t.ndjson", "-tracesample", "0"}, "-tracesample must be >= 1", 2},
		{"trace with sweep", []string{"-trace", "t.ndjson", "-sweep"}, "-trace records a single run; it conflicts with -sweep", 2},
		{"trace with saturate", []string{"-trace", "t.ndjson", "-saturate"}, "-trace records a single run; it conflicts with -saturate", 2},
		{"trace with repeat", []string{"-trace", "t.ndjson", "-repeat", "2"}, "-trace records a single run; it conflicts with -repeat", 2},
		{"trace with collective", []string{"-trace", "t.ndjson", "-workload", "collective"},
			"-trace records a single run; it does not apply to the collective replay workload", 2},
		{"trace file unwritable", sk("-slots", "10", "-drain", "10", "-trace", filepath.Join(missing, "t.ndjson")),
			"obs: trace: open " + filepath.Join(missing, "t.ndjson") + ": no such file or directory", 1},

		// Sweep-only flags and single-run conflicts.
		{"cachedir without sweep", []string{"-cachedir", "c"}, "-cachedir is a sweep flag; add -sweep", 2},
		{"shards without sweep", []string{"-shards", "2"}, "-shards is a sweep flag; add -sweep", 2},
		{"shard without sweep", []string{"-shard", "1"}, "-shard is a sweep flag; add -sweep", 2},
		{"mergeshards without sweep", []string{"-mergeshards", "a.ndjson"}, "-mergeshards is a sweep flag; add -sweep", 2},
		{"collective sweep", []string{"-sweep", "-workload", "uniform,collective"},
			"the collective workload replays a schedule and is not sweepable; drop -sweep", 2},
		{"repeat in sweep", []string{"-sweep", "-repeat", "2"}, "-repeat is a single-scenario flag; use -seeds for sweep repetitions", 2},
		{"rate and rates", []string{"-sweep", "-rate", "0.1", "-rates", "0.2"}, "-rate conflicts with -rates in sweep mode; use -rates", 2},
		{"deflect and modes", []string{"-sweep", "-deflect", "-modes", "sf"}, "-deflect conflicts with -modes in sweep mode; use -modes", 2},
		{"wavelengths and waveset", []string{"-sweep", "-wavelengths", "2", "-waveset", "1"},
			"-wavelengths conflicts with -waveset in sweep mode; use -waveset", 2},
		{"seed and seeds", []string{"-sweep", "-seed", "2", "-seeds", "3"}, "-seed conflicts with -seeds in sweep mode; use -seeds", 2},
		{"faults and faultset", []string{"-sweep", "-faults", "1", "-faultset", "0,1"}, "-faults conflicts with -faultset in sweep mode; use -faultset", 2},
		{"one workload per single run", []string{"-workload", "uniform,hotspot"}, "one workload per single run (add -sweep to sweep a comma list)", 2},
		{"all without sweep", []string{"-net", "all"}, `sweep: unknown topology family "all" (want sk, stackii, pops or debruijn)`, 2},
		{"unknown topology", []string{"-net", "torus"}, `sweep: unknown topology family "torus" (want sk, stackii, pops or debruijn)`, 2},
		{"one-node pops", []string{"-net", "pops", "-t", "1", "-g", "1"}, "sim: a network needs at least 2 nodes, this topology has 1", 2},
		{"one-node debruijn", []string{"-net", "debruijn", "-d", "1", "-k", "3"}, "sim: a network needs at least 2 nodes, this topology has 1", 2},

		// Shards and merges.
		{"shard past shards", []string{"-sweep", "-shards", "2", "-shard", "2"}, "bad shard selection 2/2 (want 0 <= shard < shards)", 2},
		{"zero shards", []string{"-sweep", "-shards", "0"}, "bad shard selection 0/0 (want 0 <= shard < shards)", 2},
		{"mergeshards with shards", []string{"-sweep", "-mergeshards", "a.ndjson", "-shards", "2"},
			"-mergeshards consumes shard files; it conflicts with -shards/-shard", 2},
		{"mergeshards with cachedir", []string{"-sweep", "-mergeshards", "a.ndjson", "-cachedir", "c"},
			"-mergeshards only reassembles shard files; it does not consult or fill a -cachedir (use -cachedir on the shard runs)", 2},
		{"shard run with format", []string{"-sweep", "-shards", "2", "-format", "csv"},
			"a shard run emits NDJSON shard rows only; format selection happens at -mergeshards time", 2},
		{"shard run with raw", []string{"-sweep", "-shards", "2", "-raw"},
			"a shard run emits NDJSON shard rows only; format selection happens at -mergeshards time", 2},
		{"missing shard file", []string{"-sweep", "-mergeshards", missing}, "open " + missing + ": no such file or directory", 1},

		// Saturation search.
		{"sweep saturate cachedir", []string{"-sweep", "-saturate", "-cachedir", "c"},
			"-cachedir does not apply to -sweep -saturate (the search is not a point grid)", 2},
		{"sweep saturate rates", []string{"-sweep", "-saturate", "-rates", "0.1"},
			"-rates has no effect with -sweep -saturate (use -seed for the search seed)", 2},
		{"sweep saturate seeds", []string{"-sweep", "-saturate", "-seeds", "2"},
			"-seeds has no effect with -sweep -saturate (use -seed for the search seed)", 2},
		{"sweep saturate faults", []string{"-sweep", "-saturate", "-mtbf", "5"},
			"-mtbf is not supported with -sweep -saturate (fault injection does not apply to saturation search)", 2},
		{"sweep saturate workload", []string{"-sweep", "-saturate", "-workload", "uniform"},
			"-workload is not supported with -sweep -saturate (the search runs uniform load)", 2},
		{"saturate workload", []string{"-saturate", "-workload", "hotspot"},
			"-workload is not supported with -saturate (the search runs uniform load)", 2},
		{"saturate repeat", []string{"-saturate", "-repeat", "2"},
			"-repeat does not apply to -saturate (the search already reuses one engine)", 2},

		// Output and worker settings.
		{"raw table", []string{"-sweep", "-raw", "-format", "table"}, "-raw emits machine-readable output; use -format csv or json", 2},
		{"bad format", []string{"-sweep", "-format", "xml"}, `bad sweep format "xml" (want table, csv or json)`, 2},
		{"replicas undefined", sk("-sweep", "-replicas", "auto"), "flag provided but not defined: -replicas", 2},
		{"work zero workers", []string{"work", "-workers", "0"}, "-workers 0 < 1", 2},
		{"synthtrace form", []string{"synthtrace", "-form", "bogus"}, `bad -form "bogus" (want rates or events)`, 2},

		// Sweep axes: list syntax here, ranges in GridSpec.
		{"NaN rates", sk("-sweep", "-rates", "NaN", "-seeds", "1"), "rate NaN not a probability in [0,1]", 2},
		{"rates above one", sk("-sweep", "-rates", "0.1,1.5"), "rate 1.5 not a probability in [0,1]", 2},
		{"rates not a number", sk("-sweep", "-rates", "abc"), `bad -rates value "abc"`, 2},
		{"empty rates", sk("-sweep", "-rates", ","), "-rates names no values", 2},
		{"bad mode", sk("-sweep", "-modes", "fly"), `unknown mode "fly" (want sf or deflect)`, 2},
		{"empty modes", sk("-sweep", "-modes", " , "), "-modes names no values", 2},
		{"zero waveset", sk("-sweep", "-waveset", "1,0"), "wavelength count 0 < 1", 2},
		{"waveset not a number", sk("-sweep", "-waveset", "two"), `bad -waveset value "two"`, 2},
		{"empty waveset", sk("-sweep", "-waveset", ""), "-waveset names no values", 2},
		{"negative faultset", sk("-sweep", "-faultset", "0,-2"), "faults: bad count -2 (want >= 0)", 2},
		{"faultset not a number", sk("-sweep", "-faultset", "x"), `bad -faultset value "x"`, 2},
		{"empty faultset", sk("-sweep", "-faultset", ","), "-faultset names no values", 2},
		{"zero seeds", sk("-sweep", "-seeds", "0"), "bad -seeds 0 (want >= 1)", 2},
		{"negative seeds", sk("-sweep", "-seeds", "-4"), "bad -seeds -4 (want >= 1)", 2},
		{"zero slots", sk("-slots", "0"), "bad -slots 0 (want >= 1)", 2},
		{"mtbf without faults", sk("-mtbf", "-5"), "faults: bad mtbf -5 (want >= 0)", 2},

		// Trace rate rules (GridSpec.Grid).
		{"event trace with rate", sk("-workload", "trace", "-tracefile", ev, "-rate", "0.3"),
			"event-form trace workloads replay verbatim; omit rates (or use a rates-form trace to scale)", 2},
		{"event trace with rates", sk("-sweep", "-workload", "trace", "-tracefile", ev, "-rates", "0.3"),
			"event-form trace workloads replay verbatim; omit rates (or use a rates-form trace to scale)", 2},
		{"event trace with uniform", sk("-sweep", "-workload", "trace,uniform", "-tracefile", ev),
			"event-form trace workloads cannot share a grid with rate-driven workloads (the rate axis applies to all)", 2},
		{"NaN trace rate", sk("-workload", "trace", "-tracefile", nan),
			"workload: trace " + nan + `:2: bad rate "NaN" (want a probability in [0,1])`, 2},

		// Collective replay.
		{"collective rate", []string{"-workload", "collective", "-rate", "0.1"}, "-rate does not apply to the collective replay workload", 2},
		{"collective faults", []string{"-workload", "collective", "-faults", "1"}, "-faults does not apply to the collective replay workload", 2},
		{"collective gossip on sk", []string{"-workload", "collective", "-collective", "gossip"},
			`no "gossip" schedule for -net sk (sk: broadcast; pops: broadcast or gossip)`, 2},
		{"hotfrac NaN", sk("-workload", "hotspot", "-hotfrac", "NaN"), "workload: hotspot fraction NaN outside [0,1]", 2},
	})
}

// TestExitCodes runs the real binary: main prints the error and exits 2
// for a bad command line, 1 for a failed run and 0 for -h.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ndjson")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // prefix of stderr
	}{
		{[]string{"-net", "torus"}, 2, `netsim: sweep: unknown topology family "torus"`},
		{[]string{"-sweep", "-mergeshards", missing}, 1, "netsim: open " + missing},
		{[]string{"-h"}, 0, "Usage of netsim:"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != tc.code || !strings.HasPrefix(stderr.String(), tc.stderr) {
			t.Errorf("netsim %q: exit %d, stderr %q; want exit %d, stderr starting %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestWorkloadSpecErrors pairs bad workload flags with their errors: the
// ranges come from workload.Spec.Validate through GridSpec, and an
// explicit flag that no selected workload honors is an error, not noise.
func TestWorkloadSpecErrors(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope.csv")
	runArgsCases(t, []argsCase{
		{"unknown kind", []string{"-workload", "gaussian"},
			`workload: unknown kind "gaussian" (want uniform, transpose, hotspot, bursty, trace or multiperiod)`, 2},
		{"empty list", []string{"-sweep", "-workload", " , "}, "-workload names no workloads", 2},
		{"hotfrac oob", []string{"-workload", "hotspot", "-hotfrac", "1.5"}, "workload: hotspot fraction 1.5 outside [0,1]", 2},
		{"hotgroup negative", []string{"-workload", "hotspot", "-hotgroup", "-2"},
			"workload: hotspot group -2 is negative (indices wrap modulo each topology's group count, but must be >= 0)", 2},
		{"burston oob", []string{"-workload", "bursty", "-burston", "0.2"}, "workload: bursty mean durations 0.2/150 must be >= 1 slot", 2},
		{"burstlow oob", []string{"-workload", "bursty", "-burstlow", "2"}, "workload: bursty off factor 2 outside [0,1]", 2},
		{"trace without file", []string{"-workload", "trace"}, "the trace workload names no trace file (trace_file, or netsim -tracefile)", 2},
		{"trace file unreadable", []string{"-workload", "trace", "-tracefile", nope}, "workload: trace: open " + nope + ": no such file or directory", 2},
		{"bad multiperiod", []string{"-workload", "multiperiod", "-amplitude", "2"}, "workload: multiperiod amplitude 2 outside [0,1]", 2},
		{"hotgroup unhonored", []string{"-sweep", "-workload", "uniform,bursty", "-hotgroup", "1"},
			"-hotgroup applies to the hotspot workload; none of the selected workloads honor it", 2},
		{"tracefile unhonored", []string{"-workload", "hotspot", "-tracefile", "x.csv"},
			"-tracefile applies to the trace workload; none of the selected workloads honor it", 2},
		{"period unhonored", []string{"-workload", "bursty", "-period", "5"},
			"-period applies to the multiperiod workload; none of the selected workloads honor it", 2},
	})
}

// TestWorkloadSpecBuildsEveryKind checks that the workload flags reach
// every kind's spec through GridSpec, and nothing else does.
func TestWorkloadSpecBuildsEveryKind(t *testing.T) {
	f, err := parseSimFlags([]string{"-sweep", "-workload", "uniform,transpose,hotspot,bursty,trace,multiperiod",
		"-hotgroup", "9999", "-burston", "20", "-burstoff", "60", "-burstlow", "0.1", "-tracefile", "../../examples/traces/day_rates.csv"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := f.gridSpec()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gs.Grid()
	if err != nil {
		t.Fatal(err)
	}
	specs := grid.Workloads
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0] != (workload.Spec{}) || specs[1] != (workload.Spec{Kind: workload.KindTranspose}) {
		t.Fatalf("parameterless kinds picked up flag values: %+v, %+v", specs[0], specs[1])
	}
	// A group index past the default SK(6,3,2)'s 12 groups is legal: it
	// wraps modulo each topology's group count, so there is no
	// per-topology range check.
	if hot := specs[2]; hot != (workload.Spec{Kind: workload.KindHotspot, HotGroup: 9999, Fraction: 0.3}) {
		t.Fatalf("hotspot spec: %+v", hot)
	}
	if b := specs[3]; b != (workload.Spec{Kind: workload.KindBursty, MeanOn: 20, MeanOff: 60, OffFactor: 0.1}) {
		t.Fatalf("bursty spec: %+v", b)
	}
	if tr := specs[4]; tr.Kind != workload.KindTrace || tr.TraceFP == "" || tr.TraceForm != workload.TraceRates {
		t.Fatalf("trace spec not scanned: %+v", tr)
	}
	if mp := specs[5]; mp.MeanOn != 20 || mp.MeanOff != 60 || mp.OffFactor != 0.1 || mp.Period != 1000 || mp.HotGroup != 0 {
		t.Fatalf("multiperiod spec did not reuse burst flags: %+v", mp)
	}
	// A trace in the grid with no explicit rate axis replays at rate 1.
	if len(grid.Rates) != 1 || grid.Rates[0] != 1 {
		t.Fatalf("trace grid rates %v, want [1]", grid.Rates)
	}
	// The same wrap holds when the hotspot actually runs, on a single run
	// and on a sweep over topologies of different group counts.
	runArgsCases(t, []argsCase{
		{"hotgroup wraps", []string{"-net", "sk", "-s", "2", "-d", "2", "-k", "2", "-slots", "10", "-drain", "10",
			"-workload", "hotspot", "-hotgroup", "9999"}, "", 0},
		{"hotgroup wraps in sweep", []string{"-net", "all", "-sweep", "-rates", "0.1", "-seeds", "1", "-slots", "10", "-drain", "10",
			"-workload", "hotspot", "-hotgroup", "9999"}, "", 0},
	})
}

// TestCheckRunFlags pairs each bad scenario flag of a single run with its
// exact error and exit status; the CLI defaults and the boundary values
// run. -slots, -repeat and -seeds are command-line rules (checkRunFlags);
// the rate, drain, queue cap and wavelength ranges come from GridSpec.
func TestCheckRunFlags(t *testing.T) {
	sk := func(args ...string) []string {
		return append([]string{"-net", "sk", "-s", "2", "-d", "2", "-k", "2"}, args...)
	}
	runArgsCases(t, []argsCase{
		{"defaults", sk(), "", 0},
		{"boundaries", sk("-rate", "1", "-slots", "1", "-drain", "0", "-maxq", "0", "-wavelengths", "1", "-repeat", "1", "-seeds", "1"), "", 0},
		{"zero rate", sk("-rate", "0"), "", 0},
		{"negative rate", sk("-rate", "-1"), "rate -1 not a probability in [0,1]", 2},
		{"rate above one", sk("-rate", "1.5"), "rate 1.5 not a probability in [0,1]", 2},
		{"NaN rate", sk("-rate", "NaN"), "rate NaN not a probability in [0,1]", 2},
		{"zero slots", sk("-slots", "0"), "bad -slots 0 (want >= 1)", 2},
		{"negative slots", sk("-slots", "-1"), "bad -slots -1 (want >= 1)", 2},
		{"negative drain", sk("-drain", "-5"), "drain -5 negative", 2},
		{"negative maxq", sk("-maxq", "-2"), "max_queue -2 negative", 2},
		{"zero wavelengths", sk("-wavelengths", "0"), "wavelength count 0 < 1", 2},
		{"negative wavelengths", sk("-wavelengths", "-3"), "wavelength count -3 < 1", 2},
		{"zero repeat", sk("-repeat", "0"), "bad -repeat 0 (want >= 1)", 2},
		{"negative repeat", sk("-repeat", "-3"), "bad -repeat -3 (want >= 1)", 2},
		{"zero seeds", sk("-seeds", "0"), "bad -seeds 0 (want >= 1)", 2},
		{"negative seeds", sk("-seeds", "-4"), "bad -seeds -4 (want >= 1)", 2},
	})
}

// TestTopologyFlagsBelowOne pairs each topology flag below 1 with its
// error: a GridSpec topology reads 0 as "use the default", so the command
// line must not pass an explicit 0 on. The smallest values run.
func TestTopologyFlagsBelowOne(t *testing.T) {
	short := []string{"-slots", "10", "-drain", "10"}
	with := func(args ...string) []string { return append(args, short...) }
	runArgsCases(t, []argsCase{
		{"sk s zero", with("-net", "sk", "-s", "0", "-d", "2", "-k", "2"), "bad -s 0 (want >= 1)", 2},
		{"sk d zero", with("-net", "sk", "-s", "2", "-d", "0", "-k", "2"), "bad -d 0 (want >= 1)", 2},
		{"sk k zero", with("-net", "sk", "-s", "2", "-d", "2", "-k", "0"), "bad -k 0 (want >= 1)", 2},
		{"sk s negative", with("-net", "sk", "-s", "-3", "-d", "2", "-k", "2"), "bad -s -3 (want >= 1)", 2},
		{"debruijn k zero", with("-net", "debruijn", "-d", "2", "-k", "0"), "bad -k 0 (want >= 1)", 2},
		{"pops t zero", with("-net", "pops", "-t", "0", "-g", "2"), "bad -t 0 (want >= 1)", 2},
		{"pops g zero", with("-net", "pops", "-t", "2", "-g", "0"), "bad -g 0 (want >= 1)", 2},
		{"stackii n zero", with("-net", "stackii", "-s", "2", "-d", "2", "-n", "0"), "bad -n 0 (want >= 1)", 2},
		{"sweep s zero", []string{"-sweep", "-net", "sk", "-s", "0", "-rates", "0.1", "-seeds", "1"}, "bad -s 0 (want >= 1)", 2},
		{"sk smallest", with("-net", "sk", "-s", "1", "-d", "1", "-k", "1"), "", 0},
		{"pops smallest", with("-net", "pops", "-t", "1", "-g", "2"), "", 0},
		{"debruijn smallest", with("-net", "debruijn", "-d", "2", "-k", "1"), "", 0},
	})
}

// TestTopologyFlagsWithNetAll pairs each topology flag with its error
// under -net all -sweep, whose trio has fixed sizes: an explicit flag
// would otherwise be ignored without a word.
func TestTopologyFlagsWithNetAll(t *testing.T) {
	var cases []argsCase
	for _, name := range []string{"s", "d", "k", "t", "g", "n"} {
		cases = append(cases, argsCase{"-" + name,
			[]string{"-net", "all", "-sweep", "-rates", "0.1", "-seeds", "1", "-" + name, "3"},
			"-" + name + " does not apply to -net all, which sweeps the fixed comparable-scale trio", 2})
	}
	cases = append(cases, argsCase{"no topology flag",
		[]string{"-net", "all", "-sweep", "-rates", "0.1", "-seeds", "1", "-slots", "10", "-drain", "10"}, "", 0})
	runArgsCases(t, cases)
}

// TestFaultSpecFlags pairs each bad fault flag with its exact error from
// faults.Spec.Validate through GridSpec; the defaults and a valid
// transient spec run.
func TestFaultSpecFlags(t *testing.T) {
	sk := func(args ...string) []string {
		return append([]string{"-net", "sk", "-s", "2", "-d", "2", "-k", "2", "-slots", "50", "-drain", "50"}, args...)
	}
	runArgsCases(t, []argsCase{
		{"defaults", sk(), "", 0},
		{"transient", sk("-faultkind", "tx", "-faults", "3", "-mtbf", "200", "-mttr", "50"), "", 0},
		{"bad kind", sk("-faultkind", "laser"), `unknown fault kind "laser" (want node, coupler or tx)`, 2},
		{"negative count", sk("-faults", "-3"), "faults: bad count -3 (want >= 0)", 2},
		{"negative slot", sk("-faults", "1", "-faultslot", "-7"), "faults: bad slot -7 (want >= 0)", 2},
		{"negative mtbf", sk("-faults", "1", "-mtbf", "-5"), "faults: bad mtbf -5 (want >= 0)", 2},
		{"negative mttr", sk("-faults", "1", "-mtbf", "100", "-mttr", "-2"), "faults: bad mttr -2 (want >= 0)", 2},
		{"NaN mtbf", sk("-mtbf", "NaN"), "faults: bad mtbf NaN (want >= 0)", 2},
		{"mtbf alone", sk("-faults", "1", "-mtbf", "100"), "faults: mtbf and mttr must be set together", 2},
	})
}

// TestLegacyTrafficErrors pins the removal of the legacy -traffic and
// -burst flags: every legacy command line, including the ones the old
// models rejected, now fails at flag parsing (exit 2) instead of running
// some other traffic. -workload names every generator: perm became
// transpose, hotspot -workload hotspot, burst an event trace at slot 0.
func TestLegacyTrafficErrors(t *testing.T) {
	const undefined = "flag provided but not defined: "
	runArgsCases(t, []argsCase{
		{"unknown model", []string{"-traffic", "zipf"}, undefined + "-traffic", 2},
		{"hot node past n", []string{"-traffic", "hotspot", "-hotgroup", "24"}, undefined + "-traffic", 2},
		{"hot node negative", []string{"-traffic", "hotspot", "-hotgroup", "-1"}, undefined + "-traffic", 2},
		{"hotfrac oob", []string{"-traffic", "hotspot", "-hotfrac", "-0.1"}, undefined + "-traffic", 2},
		{"hotgroup on uniform", []string{"-traffic", "uniform", "-hotgroup", "1"}, undefined + "-traffic", 2},
		{"hotfrac on burst", []string{"-traffic", "burst", "-hotfrac", "0.5"}, undefined + "-traffic", 2},
		{"burst on hotspot", []string{"-traffic", "hotspot", "-burst", "5"}, undefined + "-traffic", 2},
		{"tracefile on perm", []string{"-traffic", "perm", "-tracefile", "x.csv"}, undefined + "-traffic", 2},
		{"perm", []string{"-traffic", "perm"}, undefined + "-traffic", 2},
		{"sweep hotspot", []string{"-sweep", "-traffic", "hotspot"}, undefined + "-traffic", 2},
		{"burst count", []string{"-burst", "500"}, undefined + "-burst", 2},
	})
}
