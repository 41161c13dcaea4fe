package workload

import (
	"math"
	"testing"
)

// mpSpec is the testSpecs() multiperiod entry, reused for targeted tests
// (determinism and the 0 B/op run loop are covered by the shared
// TestGeneratorsDeterministic / TestWorkloadRunLoopAllocFree).
func mpSpec() Spec {
	return Spec{Kind: KindMultiPeriod, Period: 200, Amplitude: 0.6, EpisodeOn: 40, EpisodeOff: 80,
		MeanOn: 10, MeanOff: 30, RateSigma: 0.35, OffFactor: 0.1}
}

// TestMultiPeriodDiurnalRamp checks the diurnal layer: with the episode
// and flicker processes disabled (sigma 0, floor 1, huge episode), load
// near the sinusoid's crest must exceed load near its trough.
func TestMultiPeriodDiurnalRamp(t *testing.T) {
	const n, period = 60, 400
	mp := &MultiPeriod{
		BaseRate: 0.3, Period: period, Amplitude: 0.9,
		EpisodeOn: math.Inf(1), EpisodeOff: 1, MeanOn: math.Inf(1), MeanOff: 1,
		RateSigma: 0, FloorFactor: 1,
	}
	injs := stream(mp, 10*period, n, 4)
	crest, trough := 0, 0
	for s, slot := range injs {
		phase := math.Sin(2 * math.Pi * float64(s) / period)
		switch {
		case phase > 0.7:
			crest += len(slot)
		case phase < -0.7:
			trough += len(slot)
		}
	}
	if crest <= 2*trough {
		t.Fatalf("diurnal ramp missing: crest %d vs trough %d injections", crest, trough)
	}
}

// TestMultiPeriodEpisodesModulate checks the episode layer: with a
// silent floor, gaps between episodes produce empty slots while episodes
// produce loaded ones.
func TestMultiPeriodEpisodesModulate(t *testing.T) {
	const n, slots = 40, 4000
	mp := &MultiPeriod{
		BaseRate: 0.9, Period: 0, Amplitude: 0,
		EpisodeOn: 30, EpisodeOff: 60, MeanOn: math.Inf(1), MeanOff: 1,
		RateSigma: 0, FloorFactor: 0,
	}
	silent, loaded := 0, 0
	for _, slot := range stream(mp, slots, n, 11) {
		if len(slot) == 0 {
			silent++
		} else {
			loaded++
		}
	}
	if silent < slots/10 || loaded < slots/20 {
		t.Fatalf("episode process barely toggled: %d silent, %d loaded of %d slots", silent, loaded, slots)
	}
}

// TestMultiPeriodPeakBoostsEpisodes checks the bursts-of-bursts layer:
// a positive RateSigma draws per-episode peaks > 1, so total load over a
// long run must exceed the sigma-0 baseline.
func TestMultiPeriodPeakBoostsEpisodes(t *testing.T) {
	const n, slots = 40, 6000
	count := func(sigma float64) int {
		mp := &MultiPeriod{
			BaseRate: 0.2, EpisodeOn: 50, EpisodeOff: 50,
			MeanOn: 20, MeanOff: 20, RateSigma: sigma, FloorFactor: 0.1,
		}
		total := 0
		for _, slot := range stream(mp, slots, n, 21) {
			total += len(slot)
		}
		return total
	}
	base, boosted := count(0), count(1.0)
	if boosted <= base {
		t.Fatalf("sigma-1 peaks did not raise load: %d vs %d injections", boosted, base)
	}
}

func TestMultiPeriodSpecValidate(t *testing.T) {
	if err := mpSpec().Validate(); err != nil {
		t.Fatalf("test spec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Period = -1 },
		func(s *Spec) { s.Amplitude = 1.5 },
		func(s *Spec) { s.Amplitude = -0.1 },
		func(s *Spec) { s.EpisodeOn = 0.5 },
		func(s *Spec) { s.EpisodeOff = 0 },
		func(s *Spec) { s.MeanOn = 0 },
		func(s *Spec) { s.MeanOff = 0.9 },
		func(s *Spec) { s.RateSigma = -0.1 },
		func(s *Spec) { s.OffFactor = 1.1 },
	}
	for i, mutate := range bad {
		s := mpSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
		}
	}
	// Hotspot and bursty ranges run through the same entry point.
	if err := (Spec{Kind: KindHotspot, HotGroup: -1}).Validate(); err == nil {
		t.Error("Validate accepted a negative hotspot group")
	}
	if err := (Spec{Kind: KindHotspot, HotGroup: 999, Fraction: 0.5}).Validate(); err != nil {
		t.Errorf("Validate rejected a large hotspot group (modulo contract): %v", err)
	}
	if err := (Spec{Kind: KindBursty, MeanOn: 0, MeanOff: 5}).Validate(); err == nil {
		t.Error("Validate accepted bursty mean_on < 1")
	}
}

// TestSpecValidateRejectsNaN pairs a NaN in every float range of
// Validate with its exact error: a NaN compares false both ways, so a
// check written as `x < lo || x > hi` would let it through.
func TestSpecValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	bursty := func(mutate func(*Spec)) Spec {
		s := Spec{Kind: KindBursty, MeanOn: 50, MeanOff: 150, OffFactor: 0}
		mutate(&s)
		return s
	}
	mp := func(mutate func(*Spec)) Spec {
		s := mpSpec()
		mutate(&s)
		return s
	}
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: KindHotspot, Fraction: nan}, "workload: hotspot fraction NaN outside [0,1]"},
		{bursty(func(s *Spec) { s.MeanOn = nan }), "workload: bursty mean durations NaN/150 must be >= 1 slot"},
		{bursty(func(s *Spec) { s.MeanOff = nan }), "workload: bursty mean durations 50/NaN must be >= 1 slot"},
		{bursty(func(s *Spec) { s.OffFactor = nan }), "workload: bursty off factor NaN outside [0,1]"},
		{mp(func(s *Spec) { s.Amplitude = nan }), "workload: multiperiod amplitude NaN outside [0,1]"},
		{mp(func(s *Spec) { s.EpisodeOn = nan }), "workload: multiperiod episode means NaN/80 must be >= 1 slot"},
		{mp(func(s *Spec) { s.EpisodeOff = nan }), "workload: multiperiod episode means 40/NaN must be >= 1 slot"},
		{mp(func(s *Spec) { s.MeanOn = nan }), "workload: multiperiod flicker means NaN/30 must be >= 1 slot"},
		{mp(func(s *Spec) { s.MeanOff = nan }), "workload: multiperiod flicker means 10/NaN must be >= 1 slot"},
		{mp(func(s *Spec) { s.RateSigma = nan }), "workload: multiperiod rate sigma NaN must be >= 0"},
		{mp(func(s *Spec) { s.OffFactor = nan }), "workload: multiperiod floor factor NaN outside [0,1]"},
	} {
		err := tc.spec.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate(%+v) = %v, want %q", tc.spec, err, tc.want)
		}
	}
}
