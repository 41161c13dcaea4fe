package main

// Tests for the extracted workload/traffic flag handling — every error
// path the CLI used to bury in os.Exit, plus the two regressions this
// layer exists to prevent: the legacy `-traffic hotspot` silently
// discarding -hotgroup/-hotfrac, and a first-topology hotspot range check
// contradicting workload.Hotspot's documented modulo-group wrap.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

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
		{"burst is legacy-only", flags("burst"), "bursty", "-traffic burst"},
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

// TestLegacyHotspotFlagsWired is the satellite-1 regression: `-traffic
// hotspot` once constructed HotspotTraffic{Hot: 0, Fraction: 0.3} no
// matter what the user passed. The factory must carry both flags.
func TestLegacyHotspotFlagsWired(t *testing.T) {
	wf := flags("hotgroup", "hotfrac")
	wf.HotGroup = 5
	wf.HotFrac = 0.8
	factory, err := legacyTraffic("hotspot", 24, 1, 0, wf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := factory(0.4).(sim.HotspotTraffic)
	if !ok {
		t.Fatalf("hotspot factory built %T", factory(0.4))
	}
	want := sim.HotspotTraffic{Rate: 0.4, Hot: 5, Fraction: 0.8}
	if got != want {
		t.Fatalf("legacy hotspot dropped flags: got %+v, want %+v", got, want)
	}
}

func TestLegacyTrafficErrors(t *testing.T) {
	cases := []struct {
		name    string
		traffic string
		n       int
		wf      workloadFlags
		want    string
	}{
		{"unknown model", "zipf", 24, flags(), "zipf"},
		{"hot node past n", "hotspot", 24, func() workloadFlags { wf := flags(); wf.HotGroup = 24; return wf }(), "out of range"},
		{"hot node negative", "hotspot", 24, func() workloadFlags { wf := flags(); wf.HotGroup = -1; return wf }(), "out of range"},
		{"hotfrac oob", "hotspot", 24, func() workloadFlags { wf := flags(); wf.HotFrac = -0.1; return wf }(), "-hotfrac"},
		// An explicit workload flag the model ignores is an error (the old
		// code dropped these on the floor).
		{"hotgroup on uniform", "uniform", 24, flags("hotgroup"), "-hotgroup does not apply"},
		{"hotfrac on burst", "burst", 24, flags("hotfrac"), "-hotfrac does not apply"},
		{"burst on hotspot", "hotspot", 24, flags("burst"), "-burst does not apply"},
		{"tracefile on perm", "perm", 24, flags("tracefile"), "-tracefile does not apply"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := legacyTraffic(c.traffic, c.n, 1, 0, c.wf)
			if err == nil {
				t.Fatalf("legacyTraffic(%q) accepted %+v", c.traffic, c.wf)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// And the in-range cases still build.
	for _, model := range []string{"uniform", "perm", "burst"} {
		if _, err := legacyTraffic(model, 24, 1, 4, flags()); err != nil {
			t.Fatalf("legacyTraffic(%q): %v", model, err)
		}
	}
}

// TestCheckRunFlags pairs each bad scenario flag with its exact error; the
// CLI defaults and the boundary values must pass.
func TestCheckRunFlags(t *testing.T) {
	type runFlags struct {
		rate                              float64
		slots, drain, maxQ, waves, repeat int
	}
	defaults := runFlags{rate: 0.2, slots: 2000, drain: 2000, maxQ: 0, waves: 1, repeat: 1}
	with := func(edit func(*runFlags)) runFlags { f := defaults; edit(&f); return f }
	for _, tc := range []struct {
		name  string
		flags runFlags
		want  string // "" means valid
	}{
		{"defaults", defaults, ""},
		{"boundaries", runFlags{rate: 1, slots: 0, drain: 0, maxQ: 0, waves: 1, repeat: 1}, ""},
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.flags
			err := checkRunFlags(f.rate, f.slots, f.drain, f.maxQ, f.waves, f.repeat)
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
