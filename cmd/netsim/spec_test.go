package main

// Tests for the extracted scenario flag handling — every error path the
// CLI used to bury in os.Exit, plus the regression this layer exists to
// prevent: a first-topology hotspot range check contradicting
// workload.Hotspot's documented modulo-group wrap.

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"otisnet/internal/workload"
)

// runMainEnv marks a child copy of the test binary that runs netsim's
// main on its arguments instead of the tests (see runNetsim).
const runMainEnv = "NETSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNetsim runs the real command line in a child process and returns its
// exit code and stderr.
func runNetsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// flags builds a workloadFlags with the CLI defaults, marking the given
// names explicit (as flag.Visit would after the user spelled them).
func flags(explicit ...string) workloadFlags {
	wf := workloadFlags{
		HotGroup: 0, HotFrac: 0.3,
		BurstOn: 20, BurstOff: 60, BurstLow: 0.1,
		Period: 1000, Amplitude: 0.6, EpisodeOn: 400, EpisodeOff: 800, RateSigma: 0.35,
		Explicit: map[string]bool{},
	}
	for _, name := range explicit {
		wf.Explicit[name] = true
	}
	return wf
}

func writeEventTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ev.csv")
	if err := os.WriteFile(path, []byte("0,1,2\n2,3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWorkloadSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		wf   workloadFlags
		list string
		want string // substring of the error
	}{
		{"unknown kind", flags(), "gaussian", "gaussian"},
		{"empty list", flags(), " , ", "names no workloads"},
		{"hotfrac oob", func() workloadFlags { wf := flags(); wf.HotFrac = 1.5; return wf }(), "hotspot", "fraction"},
		{"hotgroup negative", func() workloadFlags { wf := flags(); wf.HotGroup = -2; return wf }(), "hotspot", "group"},
		{"burston oob", func() workloadFlags { wf := flags(); wf.BurstOn = 0.2; return wf }(), "bursty", "mean"},
		{"burstlow oob", func() workloadFlags { wf := flags(); wf.BurstLow = 2; return wf }(), "bursty", "factor"},
		{"trace without file", flags(), "trace", "-tracefile"},
		{"trace file unreadable", func() workloadFlags {
			wf := flags()
			wf.TraceFile = filepath.Join(t.TempDir(), "nope.csv")
			return wf
		}(), "trace", "nope.csv"},
		{"bad multiperiod", func() workloadFlags { wf := flags(); wf.Amplitude = 2; return wf }(), "multiperiod", "amplitude"},
		// Explicit flags no selected workload honors are errors, not noise.
		{"hotgroup unhonored", flags("hotgroup"), "uniform,bursty", "-hotgroup"},
		{"tracefile unhonored", flags("tracefile"), "hotspot", "-tracefile"},
		{"period unhonored", flags("period"), "bursty", "-period"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.wf.specs(c.list)
			if err == nil {
				t.Fatalf("specs(%q) accepted %+v", c.list, c.wf)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("specs(%q) error %q does not mention %q", c.list, err, c.want)
			}
		})
	}
}

func TestWorkloadSpecBuildsEveryKind(t *testing.T) {
	wf := flags("hotgroup", "hotfrac", "burston", "burstoff", "burstlow")
	wf.HotGroup = 7
	wf.TraceFile = writeEventTrace(t)
	specs, err := wf.specs("uniform,transpose,hotspot,bursty,trace,multiperiod")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	hot := specs[2]
	if hot.HotGroup != 7 || hot.Fraction != 0.3 {
		t.Fatalf("hotspot spec dropped flag values: %+v", hot)
	}
	// Satellite 2: a large group index is legal everywhere — it wraps
	// modulo each topology's group count, so no per-topology range check.
	big := flags("hotgroup")
	big.HotGroup = 9999
	if _, err := big.specs("hotspot"); err != nil {
		t.Fatalf("large hot group rejected despite modulo semantics: %v", err)
	}
	tr := specs[4]
	if tr.Kind != workload.KindTrace || tr.TraceFP == "" || tr.TraceForm != workload.TraceEvents {
		t.Fatalf("trace spec not scanned: %+v", tr)
	}
	mp := specs[5]
	if mp.MeanOn != 20 || mp.MeanOff != 60 || mp.OffFactor != 0.1 || mp.Period != 1000 {
		t.Fatalf("multiperiod spec did not reuse burst flags: %+v", mp)
	}
}

func TestTraceRateOverride(t *testing.T) {
	event := workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceEvents}
	rates := workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates}
	uniform := workload.Spec{}

	if force, err := traceRateOverride([]workload.Spec{event}, false); err != nil || !force {
		t.Fatalf("event trace, default rate: force=%v err=%v, want force", force, err)
	}
	if _, err := traceRateOverride([]workload.Spec{event}, true); err == nil {
		t.Fatal("event trace accepted an explicit rate axis")
	}
	if _, err := traceRateOverride([]workload.Spec{event, uniform}, false); err == nil {
		t.Fatal("event trace accepted sharing a sweep with a rate-driven workload")
	}
	if force, err := traceRateOverride([]workload.Spec{rates, uniform}, false); err != nil || !force {
		t.Fatalf("rate trace, default rate: force=%v err=%v, want force", force, err)
	}
	if force, err := traceRateOverride([]workload.Spec{rates}, true); err != nil || force {
		t.Fatalf("rate trace with explicit rates: force=%v err=%v, want honored axis", force, err)
	}
	if force, err := traceRateOverride([]workload.Spec{uniform}, false); err != nil || force {
		t.Fatalf("no trace: force=%v err=%v, want untouched axis", force, err)
	}
}

// TestLegacyTrafficErrors pins the removal of the legacy -traffic and
// -burst flags: every legacy command line, including the ones the old
// models rejected, now fails at flag parsing (exit 2) instead of running
// some other traffic. -workload names every generator: perm became
// transpose, hotspot -workload hotspot, burst an event trace at slot 0.
func TestLegacyTrafficErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown model", []string{"-traffic", "zipf"}, "-traffic"},
		{"hot node past n", []string{"-traffic", "hotspot", "-hotgroup", "24"}, "-traffic"},
		{"hot node negative", []string{"-traffic", "hotspot", "-hotgroup", "-1"}, "-traffic"},
		{"hotfrac oob", []string{"-traffic", "hotspot", "-hotfrac", "-0.1"}, "-traffic"},
		{"hotgroup on uniform", []string{"-traffic", "uniform", "-hotgroup", "1"}, "-traffic"},
		{"hotfrac on burst", []string{"-traffic", "burst", "-hotfrac", "0.5"}, "-traffic"},
		{"burst on hotspot", []string{"-traffic", "hotspot", "-burst", "5"}, "-traffic"},
		{"tracefile on perm", []string{"-traffic", "perm", "-tracefile", "x.csv"}, "-traffic"},
		{"perm", []string{"-traffic", "perm"}, "-traffic"},
		{"sweep hotspot", []string{"-sweep", "-traffic", "hotspot"}, "-traffic"},
		{"burst count", []string{"-burst", "500"}, "-burst"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runNetsim(t, tc.args...)
			if want := "flag provided but not defined: " + tc.want; code != 2 || !strings.Contains(stderr, want) {
				t.Fatalf("netsim %v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, want)
			}
		})
	}
}

// TestCheckRunFlags pairs each bad scenario flag with its exact error; the
// CLI defaults and the boundary values must pass.
func TestCheckRunFlags(t *testing.T) {
	type runFlags struct {
		rate                                     float64
		slots, drain, maxQ, waves, repeat, seeds int
	}
	defaults := runFlags{rate: 0.2, slots: 2000, drain: 2000, maxQ: 0, waves: 1, repeat: 1, seeds: 3}
	with := func(edit func(*runFlags)) runFlags { f := defaults; edit(&f); return f }
	for _, tc := range []struct {
		name  string
		flags runFlags
		want  string // "" means valid
	}{
		{"defaults", defaults, ""},
		{"boundaries", runFlags{rate: 1, slots: 0, drain: 0, maxQ: 0, waves: 1, repeat: 1, seeds: 1}, ""},
		{"zero rate", with(func(f *runFlags) { f.rate = 0 }), ""},
		{"negative rate", with(func(f *runFlags) { f.rate = -1 }), "bad rate -1 (want a probability in [0,1])"},
		{"rate above one", with(func(f *runFlags) { f.rate = 1.5 }), "bad rate 1.5 (want a probability in [0,1])"},
		{"NaN rate", with(func(f *runFlags) { f.rate = math.NaN() }), "bad rate NaN (want a probability in [0,1])"},
		{"negative slots", with(func(f *runFlags) { f.slots = -1 }), "bad -slots -1 (want >= 0)"},
		{"negative drain", with(func(f *runFlags) { f.drain = -5 }), "bad -drain -5 (want >= 0)"},
		{"negative maxq", with(func(f *runFlags) { f.maxQ = -2 }), "bad -maxq -2 (want >= 0; 0 = unbounded)"},
		{"zero wavelengths", with(func(f *runFlags) { f.waves = 0 }), "bad -wavelengths 0 (want >= 1)"},
		{"negative wavelengths", with(func(f *runFlags) { f.waves = -3 }), "bad -wavelengths -3 (want >= 1)"},
		{"zero repeat", with(func(f *runFlags) { f.repeat = 0 }), "bad -repeat 0 (want >= 1)"},
		{"negative repeat", with(func(f *runFlags) { f.repeat = -3 }), "bad -repeat -3 (want >= 1)"},
		{"zero seeds", with(func(f *runFlags) { f.seeds = 0 }), "bad -seeds 0 (want >= 1)"},
		{"negative seeds", with(func(f *runFlags) { f.seeds = -4 }), "bad -seeds -4 (want >= 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.flags
			err := checkRunFlags(f.rate, f.slots, f.drain, f.maxQ, f.waves, f.repeat, f.seeds)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want error %q", tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestFaultSpecFlags pairs each bad fault flag with its exact error; the
// CLI defaults and a valid transient spec must pass.
func TestFaultSpecFlags(t *testing.T) {
	type faultFlags struct {
		kind        string
		count, slot int
		mtbf, mttr  float64
	}
	defaults := faultFlags{kind: "node"}
	with := func(edit func(*faultFlags)) faultFlags { f := defaults; edit(&f); return f }
	for _, tc := range []struct {
		name  string
		flags faultFlags
		want  string // "" means valid
	}{
		{"defaults", defaults, ""},
		{"transient", faultFlags{kind: "tx", count: 3, mtbf: 200, mttr: 50}, ""},
		{"bad kind", with(func(f *faultFlags) { f.kind = "laser" }), `bad fault kind "laser" (want node, coupler or tx)`},
		{"negative count", with(func(f *faultFlags) { f.count = -3 }), "faults: bad count -3 (want >= 0)"},
		{"negative slot", with(func(f *faultFlags) { f.count, f.slot = 1, -7 }), "faults: bad slot -7 (want >= 0)"},
		{"negative mtbf", with(func(f *faultFlags) { f.count, f.mtbf = 1, -5 }), "faults: bad mtbf -5 (want >= 0)"},
		{"negative mttr", with(func(f *faultFlags) { f.count, f.mtbf, f.mttr = 1, 100, -2 }), "faults: bad mttr -2 (want >= 0)"},
		{"NaN mtbf", with(func(f *faultFlags) { f.mtbf = math.NaN() }), "faults: bad mtbf NaN (want >= 0)"},
		{"mtbf alone", with(func(f *faultFlags) { f.count, f.mtbf = 1, 100 }), "faults: mtbf and mttr must be set together"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.flags
			_, err := faultSpec(f.kind, f.count, f.slot, f.mtbf, f.mttr, 4000)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want error %q", tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestBadScenarioFlagsExit2 drives the bad values through the real command
// line: each exits 2 with its named error instead of panicking or running
// a silent default.
func TestBadScenarioFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-faults", "-3"}, "netsim: faults: bad count -3 (want >= 0)"},
		{[]string{"-faults", "1", "-faultslot", "-7"}, "netsim: faults: bad slot -7 (want >= 0)"},
		{[]string{"-mtbf", "-5"}, "netsim: faults: bad mtbf -5 (want >= 0)"},
		{[]string{"-sweep", "-faultset", "0,-2"}, "netsim: faults: bad count -2 (want >= 0)"},
		{[]string{"-sweep", "-seeds", "0"}, "netsim: bad -seeds 0 (want >= 1)"},
		{[]string{"-sweep", "-seeds", "-4"}, "netsim: bad -seeds -4 (want >= 1)"},
		{[]string{"-net", "sk", "-s", "2", "-d", "2", "-k", "2", "-workload", "hotspot", "-hotfrac", "NaN"},
			"netsim: workload: hotspot fraction NaN outside [0,1]"},
	} {
		code, stderr := runNetsim(t, tc.args...)
		if code != 2 || strings.TrimSpace(stderr) != tc.want {
			t.Errorf("netsim %v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, tc.want)
		}
	}
}
