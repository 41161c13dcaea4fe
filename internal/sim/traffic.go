package sim

import "math/rand"

// Injection is a message creation request: src wants to send to dst.
type Injection struct {
	Src, Dst int
}

// Traffic generates the injections of each slot. UniformTraffic is the
// engine's one built-in model; internal/workload names every generator
// (workload.Spec) and provides the structured ones (OTIS transpose, group
// hotspot, bursty on/off, trace replay) behind this interface.
type Traffic interface {
	// Generate appends the injections of one slot to buf and returns the
	// extended slice. n is the node count. Appending into a caller-owned
	// scratch slice keeps the simulation loop allocation-free once the
	// scratch has reached its high-water capacity.
	Generate(buf []Injection, slot, n int, rng *rand.Rand) []Injection
}

// UniformRater is implemented by traffic models whose Generate is exactly
// the uniform Bernoulli model at some per-node rate (bit-for-bit the RNG
// consumption of UniformTraffic). Engine.Run draws such models through a
// UniformStream instead of calling Generate: the same injections from the
// same seed, at a few cycles per node. So only declare it on models with
// precisely that Generate behavior.
type UniformRater interface {
	UniformRate() float64
}

// UniformTraffic injects, per node per slot, a message with probability
// Rate, to a destination chosen uniformly among the other nodes. This is
// the canonical load model of the multihop lightwave literature.
type UniformTraffic struct {
	// Rate is the per-node injection probability per slot, in [0,1].
	Rate float64
}

// UniformRate implements UniformRater.
func (t UniformTraffic) UniformRate() float64 { return t.Rate }

// Generate implements Traffic.
func (t UniformTraffic) Generate(buf []Injection, _, n int, rng *rand.Rand) []Injection {
	for u := 0; u < n; u++ {
		if rng.Float64() < t.Rate {
			dst := rng.Intn(n - 1)
			if dst >= u {
				dst++
			}
			buf = append(buf, Injection{Src: u, Dst: dst})
		}
	}
	return buf
}

// math/rand's seeded source is an additive lagged-Fibonacci generator,
// y[k] = y[k-607] + y[k-273] mod 2^64, and math/rand keeps that stream
// fixed. After any 607 outputs its whole state is those outputs.
const (
	lagLong   = 607
	lagShort  = 273
	int63Mask = 1<<63 - 1
	// float64(x)/(1<<63) rounds to 1.0 exactly for Int63 values x at or
	// above this, and Float64 then draws again.
	float64Redraw = 1<<63 - 512
)

// UniformStream draws UniformTraffic's injections, bit for bit, without
// calling math/rand per node. Start loads the next 607 outputs of the
// run's *rand.Rand; AppendSlot then regenerates the source's outputs
// itself, one 607-word block at a time, and scans each block for the next
// injecting node with one unsigned compare per node. Float64() < Rate is
// the integer test Int63 < t, and Intn(n-1) is replayed as math/rand's
// Int31n (n fits in int32, as node ids do), so slot after slot the
// injections equal UniformTraffic.Generate on that *rand.Rand. A stream is
// reusable: Start re-arms it without allocating.
type UniformStream struct {
	y   [lagLong]uint64 // the current block of source outputs
	pos int             // next unread output in y
	t   uint64          // a node injects iff its Int63 draw is below t
}

// Start arms s to continue rng's stream at the given per-node rate. It
// consumes 607 outputs of rng, which s replays; rng must not be drawn
// from again while s is in use.
func (s *UniformStream) Start(rng *rand.Rand, rate float64) {
	for i := range s.y {
		s.y[i] = rng.Uint64()
	}
	s.pos = 0
	s.t = uniformThreshold(rate)
}

// uniformThreshold is the smallest Int63 value x for which
// float64(x)/(1<<63) < rate fails, capped at float64Redraw: every value
// below it passes, and no value at or above float64Redraw is ever tested.
// NaN and rates <= 0 give 0; rates >= 1 give float64Redraw.
func uniformThreshold(rate float64) uint64 {
	lo, hi := uint64(0), uint64(float64Redraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < rate {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refill advances the block by 607 outputs in place: y[i] gains the
// output 334 places on in the old block while those are still unwritten,
// then the output 273 places back in the new one.
func (s *UniformStream) refill() {
	y := &s.y
	for i := 0; i < lagShort; i++ {
		y[i] += y[i+lagLong-lagShort]
	}
	for i := lagShort; i < lagLong; i++ {
		y[i] += y[i-lagShort]
	}
	s.pos = 0
}

// int63 returns the next Int63 of the stream.
func (s *UniformStream) int63() uint64 {
	if s.pos == lagLong {
		s.refill()
	}
	x := s.y[s.pos] & int63Mask
	s.pos++
	return x
}

// int31n is math/rand's Int31n(m) for m > 0, given its rejection limit
// lim = 1<<31 - 1 - (1<<31)%m. For a power-of-two m, lim is 1<<31 - 1 and
// v%m is v&(m-1), which is Int31n's mask branch.
func (s *UniformStream) int31n(m, lim int32) int32 {
	v := int32(s.int63() >> 32)
	for v > lim {
		v = int32(s.int63() >> 32)
	}
	return v % m
}

// AppendSlot appends one slot of uniform injections over n nodes to buf,
// exactly as UniformTraffic.Generate would on the stream's *rand.Rand.
func (s *UniformStream) AppendSlot(buf []Injection, n int) []Injection {
	// x-t < quiet exactly for t <= x < float64Redraw: a draw that neither
	// injects nor makes Float64 draw again.
	t, quiet := s.t, float64Redraw-s.t
	// Destinations are Intn(n-1), which is Int31n(n-1); an injection at
	// n < 2 panics below, as Intn does.
	m := int32(max(n-1, 1))
	lim := int32(1<<31 - 1 - (1<<31)%uint32(m))
	for u := 0; u < n; {
		if s.pos == lagLong {
			s.refill()
		}
		blk := s.y[s.pos:min(lagLong, s.pos+n-u)]
		i := 0
		for i < len(blk) && blk[i]&int63Mask-t < quiet {
			i++
		}
		u += i
		s.pos += i
		if i == len(blk) {
			continue
		}
		x := blk[i] & int63Mask
		s.pos++
		if x >= float64Redraw {
			continue // Float64 draws again for the same node
		}
		if n < 2 {
			panic("invalid argument to Intn")
		}
		dst := int(s.int31n(m, lim))
		if dst >= u {
			dst++ // skip self, as the uniform model does
		}
		buf = append(buf, Injection{Src: u, Dst: dst})
		u++
	}
	return buf
}
