package main

// Workload and legacy-traffic flag handling, extracted from main so every
// error path returns a testable (value, error) pair instead of exiting
// inline. Two invariants hold across both paths:
//
//   - an explicitly-set workload flag that the selected model cannot
//     honor is an error, never silently ignored (the legacy `-traffic
//     hotspot` once discarded -hotgroup/-hotfrac outright);
//   - hotspot group indices are validated by sign only: workload.Hotspot
//     documents modulo-group semantics, so any non-negative index is
//     valid on every topology of a mixed-scale sweep, and no check may
//     privilege the first topology's group count.

import (
	"fmt"
	"math/rand"
	"strings"

	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

// workloadFlags carries every workload-family flag value plus the set of
// flag names the user spelled explicitly (flag.Visit), which drives the
// cannot-honor checks.
type workloadFlags struct {
	HotGroup                                    int
	HotFrac                                     float64
	BurstOn, BurstOff, BurstLow                 float64
	TraceFile                                   string
	Period                                      int
	Amplitude, EpisodeOn, EpisodeOff, RateSigma float64
	Explicit                                    map[string]bool
}

// workloadFlagHonor lists, in reporting order, each workload-family flag
// and the kinds that honor it. A flag with no kinds belongs to the legacy
// -traffic path only.
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
	{"burst", nil},
}

// spec builds and validates the workload.Spec for one kind name. Note the
// hotspot case: the group index is range-checked by Spec.Validate (>= 0
// only — it wraps modulo each topology's group count), never against any
// particular topology.
func (wf workloadFlags) spec(kind string) (workload.Spec, error) {
	k, err := workload.ParseKind(kind)
	if err != nil {
		return workload.Spec{}, err
	}
	var s workload.Spec
	switch k {
	case workload.KindHotspot:
		s = workload.Spec{Kind: k, HotGroup: wf.HotGroup, Fraction: wf.HotFrac}
	case workload.KindBursty:
		s = workload.Spec{Kind: k, MeanOn: wf.BurstOn, MeanOff: wf.BurstOff, OffFactor: wf.BurstLow}
	case workload.KindTrace:
		if wf.TraceFile == "" {
			return workload.Spec{}, fmt.Errorf("the trace workload needs -tracefile")
		}
		return workload.NewTraceSpec(wf.TraceFile)
	case workload.KindMultiPeriod:
		// The flicker and floor reuse the bursty flags (-burston/-burstoff/
		// -burstlow): multiperiod is bursts-of-bursts, with the episode
		// layer on top.
		s = workload.Spec{
			Kind: k, Period: wf.Period, Amplitude: wf.Amplitude,
			EpisodeOn: wf.EpisodeOn, EpisodeOff: wf.EpisodeOff,
			MeanOn: wf.BurstOn, MeanOff: wf.BurstOff,
			RateSigma: wf.RateSigma, OffFactor: wf.BurstLow,
		}
	default:
		s = workload.Spec{Kind: k}
	}
	return s, s.Validate()
}

// specs parses the -workload comma list and then rejects any explicitly
// set workload flag that no selected kind honors.
func (wf workloadFlags) specs(list string) ([]workload.Spec, error) {
	var out []workload.Spec
	kinds := map[workload.Kind]bool{}
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		s, err := wf.spec(w)
		if err != nil {
			return nil, err
		}
		kinds[s.Kind] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workload names no workloads")
	}
	for _, fk := range workloadFlagHonor {
		if !wf.Explicit[fk.flag] {
			continue
		}
		honored := false
		names := make([]string, len(fk.kinds))
		for i, k := range fk.kinds {
			honored = honored || kinds[k]
			names[i] = k.String()
		}
		if !honored {
			if fk.kinds == nil {
				return nil, fmt.Errorf("-%s applies to -traffic burst only, not to -workload models", fk.flag)
			}
			return nil, fmt.Errorf("-%s applies to the %s workload; none of the selected workloads honor it",
				fk.flag, strings.Join(names, "/"))
		}
	}
	return out, nil
}

// traceRateOverride applies the trace workloads' rate-axis rules: event
// traces replay verbatim, so an explicit rate axis cannot be honored and
// mixing them with rate-driven workloads would make the rate column lie;
// and any trace workload defaults the rate axis to 1 (replay/scale as
// recorded) instead of the uniform-load default. The returned force flag
// tells the caller to pin the axis to the single rate 1.
func traceRateOverride(specs []workload.Spec, rateExplicit bool) (force bool, err error) {
	hasEvent, hasTrace, hasOther := false, false, false
	for _, s := range specs {
		switch {
		case s.Kind == workload.KindTrace && s.TraceForm == workload.TraceEvents:
			hasEvent = true
			hasTrace = true
		case s.Kind == workload.KindTrace:
			hasTrace = true
			hasOther = true // rate traces honor the axis as a scale factor
		default:
			hasOther = true
		}
	}
	if hasEvent {
		if rateExplicit {
			return false, fmt.Errorf("event-form traces replay verbatim; drop -rate/-rates (or use a rates-form trace to scale)")
		}
		if hasOther {
			return false, fmt.Errorf("event-form trace workloads cannot share a sweep with rate-driven workloads (the rate axis applies to all)")
		}
	}
	return hasTrace && !rateExplicit, nil
}

// legacyTrafficHonor maps each legacy -traffic model to the workload
// flags it honors; everything else explicitly set is rejected.
var legacyTrafficHonor = map[string]map[string]bool{
	"uniform": {},
	"perm":    {},
	"hotspot": {"hotgroup": true, "hotfrac": true},
	"burst":   {"burst": true},
}

// legacyTraffic builds the factory for the legacy -traffic models, kept
// for script compatibility (-workload is the richer replacement). For
// "hotspot", -hotgroup selects the hot *node* index (the legacy model
// predates group structure) and -hotfrac the skew — both wired through,
// where they were once silently discarded. n is the node count the
// generator must fit (the smallest topology in a sweep).
func legacyTraffic(name string, n int, seed int64, burstMsgs int, wf workloadFlags) (func(rate float64) sim.Traffic, error) {
	honors, ok := legacyTrafficHonor[name]
	if !ok {
		return nil, fmt.Errorf("unknown traffic %q (want uniform, perm, hotspot or burst)", name)
	}
	for _, fk := range workloadFlagHonor {
		if wf.Explicit[fk.flag] && !honors[fk.flag] {
			return nil, fmt.Errorf("-%s does not apply to -traffic %s", fk.flag, name)
		}
	}
	switch name {
	case "perm":
		return func(rate float64) sim.Traffic {
			return sim.NewPermutationTraffic(rate, n, rand.New(rand.NewSource(seed)))
		}, nil
	case "hotspot":
		if wf.HotGroup < 0 || wf.HotGroup >= n {
			return nil, fmt.Errorf("-hotgroup %d out of range for -traffic hotspot (the legacy model hots one node of %d; -workload hotspot hots a group)", wf.HotGroup, n)
		}
		if wf.HotFrac < 0 || wf.HotFrac > 1 {
			return nil, fmt.Errorf("-hotfrac %g outside [0,1]", wf.HotFrac)
		}
		return func(rate float64) sim.Traffic {
			return sim.HotspotTraffic{Rate: rate, Hot: wf.HotGroup, Fraction: wf.HotFrac}
		}, nil
	case "burst":
		return func(rate float64) sim.Traffic {
			return sim.BurstTraffic{Messages: burstMsgs}
		}, nil
	default: // uniform
		return func(rate float64) sim.Traffic {
			return sim.UniformTraffic{Rate: rate}
		}, nil
	}
}

// checkRunFlags validates the scenario flags shared by single runs and
// sweeps: the offered load is a per-node injection probability, slot
// counts and the queue cap cannot be negative, and -repeat runs the
// scenario at least once.
func checkRunFlags(rate float64, slots, drain, maxQ, repeat int) error {
	switch {
	case !(rate >= 0 && rate <= 1): // also rejects NaN
		return fmt.Errorf("bad rate %g (want a probability in [0,1])", rate)
	case slots < 0:
		return fmt.Errorf("bad -slots %d (want >= 0)", slots)
	case drain < 0:
		return fmt.Errorf("bad -drain %d (want >= 0)", drain)
	case maxQ < 0:
		return fmt.Errorf("bad -maxq %d (want >= 0; 0 = unbounded)", maxQ)
	case repeat < 1:
		return fmt.Errorf("bad -repeat %d (want >= 1)", repeat)
	}
	return nil
}
