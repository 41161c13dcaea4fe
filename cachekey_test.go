package otisnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"

	"otisnet/internal/faults"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

// fmtCacheKey is the fmt.Fprintf encoder that sweep.Scenario.CacheKey
// replaced, kept as the oracle for its canonical bytes: every cache
// journal ever written is addressed by this encoding, so the strconv
// encoder must reproduce it byte for byte (FuzzCacheKeyMatchesFmtOracle),
// and BenchmarkCacheKey measures it as the baseline. Its one addition is
// the fan-in fold of wavelengths and mode, computed from its own naive
// fan-in count (oracleFanIn) rather than sim.FanIn.
func fmtCacheKey(s sweep.Scenario) string {
	canon := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	h := sha256.New()
	fmt.Fprintf(h, "%s\ntopo %s\n", "otisnet-scenario-v1", sweep.TopologyFingerprint(s.Topology.Topo))
	waves := s.Wavelengths
	if waves < 1 {
		waves = 1
	}
	// No coupler has more senders than its fan-in F: W beyond F grants
	// nothing more, and at W >= F nothing loses arbitration to deflect.
	mode, fanIn := s.Mode, oracleFanIn(s.Topology.Topo)
	if waves >= fanIn && mode == sweep.Deflection {
		mode = sweep.StoreAndForward
	}
	if fanIn >= 1 && waves > fanIn {
		waves = fanIn
	}
	rate := s.Rate
	if s.Workload.Kind == workload.KindTrace &&
		(s.Workload.TraceForm == workload.TraceEvents || rate <= 0) {
		rate = 1
	}
	fmt.Fprintf(h, "rate %s\nseed %d\nmode %d\nwavelengths %d\nmaxqueue %d\nslots %d\ndrain %d\n",
		canon(rate), s.Seed, mode, waves, s.MaxQueue, s.Slots, s.Drain)

	f := s.Fault
	if f.IsZero() {
		fmt.Fprint(h, "fault none\n")
	} else if f.MTBF > 0 && f.MTTR > 0 {
		fmt.Fprintf(h, "fault stochastic %d %d %s %s %d %d\n",
			f.Kind, f.Count, canon(f.MTBF), canon(f.MTTR), f.Horizon, f.Seed)
	} else {
		fmt.Fprintf(h, "fault oneshot %d %d %d %d\n", f.Kind, f.Count, f.Slot, f.Seed)
	}

	w := s.Workload
	switch w.Kind {
	case workload.KindTranspose:
		fmt.Fprintf(h, "workload transpose %d\n", s.Topology.GroupSize)
	case workload.KindHotspot:
		fmt.Fprintf(h, "workload hotspot %d %d %s\n",
			s.Topology.GroupSize, w.HotGroup, canon(w.Fraction))
	case workload.KindBursty:
		fmt.Fprintf(h, "workload bursty %s %s %s\n",
			canon(w.MeanOn), canon(w.MeanOff), canon(w.OffFactor))
	case workload.KindTrace:
		fmt.Fprintf(h, "workload trace %d %s\n", w.TraceForm, w.TraceFP)
	case workload.KindMultiPeriod:
		fmt.Fprintf(h, "workload multiperiod %d %s %s %s %s %s %s %s\n",
			w.Period, canon(w.Amplitude),
			canon(w.EpisodeOn), canon(w.EpisodeOff),
			canon(w.MeanOn), canon(w.MeanOff),
			canon(w.RateSigma), canon(w.OffFactor))
	default:
		fmt.Fprint(h, "workload uniform\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleFanIns memoizes oracleFanIn per topology, so BenchmarkCacheKey
// times the fmt encoder rather than the quadratic count.
var oracleFanIns sync.Map // sim.Topology -> int

// oracleFanIn counts, for each coupler, the nodes whose out-couplers
// include it, and returns the largest count.
func oracleFanIn(t sim.Topology) int {
	if f, ok := oracleFanIns.Load(t); ok {
		return f.(int)
	}
	f := 0
	for c := 0; c < t.Couplers(); c++ {
		senders := 0
		for u := 0; u < t.Nodes(); u++ {
			if slices.Contains(t.OutCouplers(u), c) {
				senders++
			}
		}
		f = max(f, senders)
	}
	oracleFanIns.Store(t, f)
	return f
}

// FuzzCacheKeyMatchesFmtOracle drives every field the key reads — engine
// parameters, both fault branches, every workload kind (and out-of-range
// ones, which hash as uniform), the topology's group size and arbitrary
// floats including NaN, ±Inf and -0 — and requires the strconv encoder to
// agree with the fmt oracle.
func FuzzCacheKeyMatchesFmtOracle(f *testing.F) {
	var topos []sweep.Topology
	for _, spec := range []sweep.TopoSpec{
		{Net: "sk", S: 3, D: 2, K: 2},
		{Net: "pops", T: 4, G: 2},
		{Net: "debruijn", D: 2, K: 3},
	} {
		topo, err := spec.Build()
		if err != nil {
			f.Fatal(err)
		}
		topos = append(topos, topo)
	}
	const fp = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	// Seeds: one per workload kind, the stochastic and one-shot fault
	// branches, Wavelengths 0, a rates trace at rate 0, extreme floats.
	f.Add(uint8(0), 0.2, int64(1), 0, 0, 0, 300, 300, 0, 0, 0, 0.0, 0.0, 0, int64(0), 0, 0, 0.0, 0.0, 0.0, 0.0, 0, "", 0, 0.0, 0.0, 0.0, 0.0, 3)
	f.Add(uint8(1), 0.35, int64(97), 1, 2, 8, 200, 500, 0, 2, 50, 0.0, 0.0, 0, int64(0), 2, 1, 0.3, 0.0, 0.0, 0.0, 0, "", 0, 0.0, 0.0, 0.0, 0.0, 4)
	f.Add(uint8(2), 0.1, int64(-5), 0, 1, 0, 10, 0, 1, 3, 9, 500.0, 50.0, 4000, int64(7), 1, 0, 0.0, 0.0, 0.0, 0.0, 0, "", 0, 0.0, 0.0, 0.0, 0.0, 0)
	f.Add(uint8(0), 0.4, int64(3), 0, 4, 0, 100, 100, 2, 1, 0, 5.0, 0.0, 0, int64(0), 3, 0, 0.0, 20.0, 80.0, 0.1, 0, "", 0, 0.0, 0.0, 0.0, 0.0, 3)
	f.Add(uint8(0), 0.4, int64(3), 0, 1, 0, 100, 100, 0, 0, 0, 0.0, 0.0, 0, int64(0), 4, 0, 0.0, 0.0, 0.0, 0.0, int(workload.TraceEvents), fp, 0, 0.0, 0.0, 0.0, 0.0, 3)
	f.Add(uint8(0), 0.0, int64(3), 0, 1, 0, 100, 100, 0, 0, 0, 0.0, 0.0, 0, int64(0), 4, 0, 0.0, 0.0, 0.0, 0.0, int(workload.TraceRates), fp, 0, 0.0, 0.0, 0.0, 0.0, 3)
	f.Add(uint8(1), 0.25, int64(11), 0, 2, 16, 2000, 400, 0, 0, 0, 0.0, 0.0, 0, int64(0), 5, 0, 0.0, 5.0, 10.0, 0.05, 0, "", 1000, 0.5, 50.0, 200.0, 0.2, 4)
	f.Add(uint8(2), math.NaN(), int64(math.MinInt64), -1, -3, -1, -1, math.MaxInt, 9, -2, -7, math.Inf(1), math.NaN(), -1, int64(math.MaxInt64), 17, -1, math.Inf(-1), math.Copysign(0, -1), 1e-300, 1e300, 99, "x\ny", math.MinInt, 0.1, 0.7, 1.5e-7, 123456789.125, -9)
	f.Fuzz(func(t *testing.T, topo uint8, rate float64, seed int64, mode, waves, maxQueue, slots, drain int,
		fKind, fCount, fSlot int, mtbf, mttr float64, horizon int, fSeed int64,
		wKind, hotGroup int, fraction, meanOn, meanOff, offFactor float64, traceForm int, traceFP string,
		period int, amplitude, episodeOn, episodeOff, rateSigma float64, groupSize int) {
		tp := topos[int(topo)%len(topos)]
		tp.GroupSize = groupSize
		s := sweep.Scenario{
			Topology: tp, Rate: rate, Seed: seed, Mode: sweep.Mode(mode),
			Wavelengths: waves, MaxQueue: maxQueue, Slots: slots, Drain: drain,
			Fault: faults.Spec{Kind: faults.Kind(fKind), Count: fCount, Slot: fSlot,
				MTBF: mtbf, MTTR: mttr, Horizon: horizon, Seed: fSeed},
			Workload: workload.Spec{Kind: workload.Kind(wKind), HotGroup: hotGroup, Fraction: fraction,
				MeanOn: meanOn, MeanOff: meanOff, OffFactor: offFactor,
				TraceFP: traceFP, TraceForm: workload.TraceForm(traceForm),
				Period: period, Amplitude: amplitude, EpisodeOn: episodeOn, EpisodeOff: episodeOff,
				RateSigma: rateSigma},
		}
		if got, want := s.CacheKey(), fmtCacheKey(s); got != want {
			t.Fatalf("CacheKey %s, fmt oracle %s for %+v", got, want, s)
		}
	})
}

// TestCacheKeyAllocatesOnlyItsString holds CacheKey to one allocation,
// the returned string, on every encoding branch: the encoding lives in a
// stack buffer and the topology fingerprint is memoized.
func TestCacheKeyAllocatesOnlyItsString(t *testing.T) {
	topo, err := sweep.TopoSpec{Net: "sk", S: 6, D: 3, K: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sweep.Scenario{
		{Topology: topo, Rate: 0.3, Seed: 1, Slots: 2000, Drain: 1000},
		{Topology: topo, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 2, Slots: 2000, Drain: 1000,
			Fault:    faults.Spec{Kind: faults.KindNode, Count: 2, Slot: 500},
			Workload: workload.Spec{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.4}},
		{Topology: topo, Rate: 0.1, Fault: faults.Spec{Kind: faults.KindCoupler, Count: 3, MTBF: 500, MTTR: 50, Horizon: 4000},
			Workload: workload.Spec{Kind: workload.KindMultiPeriod, Period: 1000, Amplitude: 0.5, EpisodeOn: 50, EpisodeOff: 200,
				MeanOn: 5, MeanOff: 10, RateSigma: 0.2, OffFactor: 0.05}},
		{Topology: topo, Workload: workload.Spec{Kind: workload.KindTrace, TraceForm: workload.TraceRates,
			TraceFP: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}},
	} {
		s.CacheKey() // memoize the fingerprint
		if n := testing.AllocsPerRun(100, func() { _ = s.CacheKey() }); n > 1 {
			t.Errorf("CacheKey of %s made %v allocations, want 1", s.Workload.Label(), n)
		}
	}
}
