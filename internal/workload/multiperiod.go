package workload

// Multi-period empirical workload: a spec-driven generator that layers
// the temporal patterns observed in production arrival traces without
// needing a trace file. Three processes compose multiplicatively on top
// of the base rate:
//
//   - a diurnal ramp — a sinusoid of period Period slots and depth
//     Amplitude, the "datacenter day";
//   - an episode process — a two-state Markov chain (mean lengths
//     EpisodeOn/EpisodeOff) gating busy episodes; between episodes the
//     rate drops to FloorFactor of the ramped base;
//   - bursts-of-bursts — inside an episode, an inner Bursty-style
//     flicker (MeanOn/MeanOff) toggles between the ramped base and an
//     episode peak sampled once per episode from a log-half-normal
//     distribution, exp(RateSigma·|N(0,1)|), the heavy-tailed empirical
//     rate multiplier.
//
// The resulting per-slot rate is clamped to [0,1] and drives the same
// per-node Bernoulli sampler as the uniform model, so the generator
// keeps the append-into-caller-scratch 0 B/op contract and is fully
// deterministic per seed.

import (
	"math"
	"math/rand"

	"otisnet/internal/sim"
)

// MultiPeriod implements sim.Traffic. Like Bursty it is stateful (the
// episode and flicker chains advance once per slot), so use one value per
// engine; Spec.New returns a fresh instance.
type MultiPeriod struct {
	// BaseRate is the per-node arrival probability before modulation.
	BaseRate float64
	// Period is the diurnal period in slots; <= 1 disables the ramp.
	Period int
	// Amplitude in [0,1] is the diurnal modulation depth.
	Amplitude float64
	// EpisodeOn and EpisodeOff are the mean episode/gap lengths in slots
	// (both >= 1).
	EpisodeOn, EpisodeOff float64
	// MeanOn and MeanOff are the inner flicker's mean phase lengths in
	// slots (both >= 1).
	MeanOn, MeanOff float64
	// RateSigma >= 0 shapes the per-episode peak multiplier
	// exp(RateSigma*|N(0,1)|); 0 pins the peak to the ramped base.
	RateSigma float64
	// FloorFactor in [0,1] scales the rate between episodes.
	FloorFactor float64

	started   bool
	inEpisode bool
	flickerOn bool
	peak      float64
}

// Generate implements sim.Traffic.
func (t *MultiPeriod) Generate(buf []sim.Injection, slot, n int, rng *rand.Rand) []sim.Injection {
	if !t.started {
		// Start inside an episode with the flicker on, like Bursty starts
		// in its on phase.
		t.started = true
		t.inEpisode = true
		t.flickerOn = true
		t.peak = t.drawPeak(rng)
	} else if t.inEpisode {
		if t.EpisodeOn >= 1 && rng.Float64() < 1/t.EpisodeOn {
			t.inEpisode = false
		} else if t.flickerOn {
			if t.MeanOn >= 1 && rng.Float64() < 1/t.MeanOn {
				t.flickerOn = false
			}
		} else if t.MeanOff < 1 || rng.Float64() < 1/t.MeanOff {
			t.flickerOn = true
		}
	} else if t.EpisodeOff < 1 || rng.Float64() < 1/t.EpisodeOff {
		t.inEpisode = true
		t.flickerOn = true
		t.peak = t.drawPeak(rng)
	}

	rate := t.BaseRate
	if t.Period > 1 && t.Amplitude > 0 {
		rate *= 1 + t.Amplitude*math.Sin(2*math.Pi*float64(slot)/float64(t.Period))
	}
	if !t.inEpisode {
		rate *= t.FloorFactor
	} else if t.flickerOn {
		rate *= t.peak
	}
	if rate > 1 {
		rate = 1
	}
	if rate <= 0 {
		return buf
	}
	return sim.UniformTraffic{Rate: rate}.Generate(buf, slot, n, rng)
}

// drawPeak samples the episode's heavy-tailed rate multiplier.
func (t *MultiPeriod) drawPeak(rng *rand.Rand) float64 {
	if t.RateSigma <= 0 {
		return 1
	}
	return math.Exp(t.RateSigma * math.Abs(rng.NormFloat64()))
}
