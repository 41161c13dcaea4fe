package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkUniformStream draws `slots` slots from UniformTraffic.Generate on
// oracle and from a UniformStream started on stream (a second *rand.Rand
// in the same state), and fails on the first slot that differs. It then
// checks that both consumed the same number of draws by comparing the
// next few Int63 values.
func checkUniformStream(t testing.TB, oracle, stream *rand.Rand, rate float64, n, slots int) {
	t.Helper()
	var s UniformStream
	s.Start(stream, rate)
	tr := UniformTraffic{Rate: rate}
	var want, got []Injection
	for slot := 0; slot < slots; slot++ {
		want = tr.Generate(want[:0], slot, n, oracle)
		got = s.AppendSlot(got[:0], n)
		if !slices.Equal(want, got) {
			t.Fatalf("rate %v n %d slot %d: stream injected %v, Generate %v", rate, n, slot, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if w, g := uint64(oracle.Int63()), s.int63(); w != g {
			t.Fatalf("rate %v n %d: after %d slots draw %d is %d, Generate's RNG gives %d", rate, n, slots, i, g, w)
		}
	}
}

// TestUniformStreamMatchesMathRand pins the block-replay sampler to the
// Float64 loop it replaces, on seeds that include math/rand's seed-0
// substitute (2^31-1) and math.MinInt64, rates from never to always, and
// node counts where n-1 is a power of two (Int31n's mask branch) or the
// slot crosses a 607-draw block boundary.
func TestUniformStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 97, 1<<31 - 1, math.MinInt64}
	rates := []float64{0, 1e-300, 0.01, 0.5, math.Nextafter(1, 0), 1}
	ns := []int{2, 3, 5, 9, 65, 607, 608, 6144}
	for _, seed := range seeds {
		for _, rate := range rates {
			for _, n := range ns {
				oracle := rand.New(rand.NewSource(seed))
				stream := rand.New(rand.NewSource(seed))
				checkUniformStream(t, oracle, stream, rate, n, 300)
			}
		}
	}
}

// TestUniformThreshold checks t for each rate: the largest Int63 value
// below it passes Float64's `float64(x)/(1<<63) < rate` and t itself
// fails, so `x < t` is the Float64 comparison for every x Float64 keeps.
func TestUniformThreshold(t *testing.T) {
	const redraw = float64Redraw
	pass := func(x uint64, rate float64) bool { return float64(int64(x))/(1<<63) < rate }
	if !(float64(int64(redraw-1))/(1<<63) < 1) || float64(int64(redraw))/(1<<63) != 1 {
		t.Fatalf("2^63-513 and 2^63-512 do not straddle Float64's redraw")
	}
	for _, tc := range []struct {
		rate float64
		want uint64 // checked only when set; the pass/fail property always is
		set  bool
	}{
		{rate: 0, want: 0, set: true},
		{rate: -1, want: 0, set: true},
		{rate: math.NaN(), want: 0, set: true},
		{rate: 1e-300, want: 1, set: true},
		{rate: 0.01},
		{rate: 0.1},
		{rate: 0.5, want: 1<<62 - 256, set: true},
		{rate: math.Nextafter(1, 0), want: 1<<63 - 1535, set: true},
		{rate: 1, want: redraw, set: true},
		{rate: 2, want: redraw, set: true},
		{rate: math.Inf(1), want: redraw, set: true},
	} {
		got := uniformThreshold(tc.rate)
		if tc.set && got != tc.want {
			t.Errorf("rate %v: threshold %d, want %d", tc.rate, got, tc.want)
		}
		if got > 0 && !pass(got-1, tc.rate) {
			t.Errorf("rate %v: threshold-1 = %d fails Float64's comparison", tc.rate, got-1)
		}
		if got < redraw && pass(got, tc.rate) {
			t.Errorf("rate %v: threshold %d passes Float64's comparison", tc.rate, got)
		}
	}
}

// lagSource is a Source64 that outputs a given first block of 607 values
// and extends it with y[k] = y[k-607] + y[k-273], keeping the whole
// history: a plain restatement of math/rand's generator that lets a test
// plant draws Float64 rejects.
type lagSource struct {
	y []uint64
	k int // index of the next output
}

func (l *lagSource) Uint64() uint64 {
	if l.k == len(l.y) {
		l.y = append(l.y, l.y[l.k-lagLong]+l.y[l.k-lagShort])
	}
	l.k++
	return l.y[l.k-1]
}
func (l *lagSource) Int63() int64 { return int64(l.Uint64() & int63Mask) }
func (l *lagSource) Seed(int64)   { panic("lagSource is not seedable") }

// TestUniformStreamRedraw plants the draws that random seeds almost never
// produce: Int63 values at which Float64 rounds to 1 and draws again
// (2^63-512 up, with and without the top bit Int63 drops), values next to
// the rate threshold, and Int31 values that Int31n rejects, one run of
// them crossing the block boundary. Later blocks follow from the planted
// one through the recurrence.
func TestUniformStreamRedraw(t *testing.T) {
	const rate = 0.3
	th := uniformThreshold(rate)
	// Every draw not planted is quiet (it neither injects nor redraws), so
	// at n=600 each planted run starts on a node's Float64 draw.
	first := make([]uint64, lagLong)
	r := rand.New(rand.NewSource(5))
	for i := range first {
		first[i] = th + r.Uint64()%(float64Redraw-th) | r.Uint64()&(1<<63)
	}
	at := 3
	for _, run := range [][]uint64{
		{float64Redraw, float64Redraw},     // Float64 redraws, twice
		{1<<64 - 1, 1<<63 | float64Redraw}, // the same with the top bit set
		{float64Redraw - 1},                // the largest draw Float64 keeps
		{th - 1, 1<<63 - 1, 1<<63 - 1, 5},  // inject; Int31n rejects twice
		{th},                               // the smallest draw that does not inject
		{1<<63 | (th - 1), 0},              // inject, to node 0 (Int31 of 0)
	} {
		at += copy(first[at:], run) + 7
	}
	// Inject on the block's third-last draw; Int31n's rejections run on
	// into the next block.
	copy(first[lagLong-3:], []uint64{th - 1, 1<<63 - 1, 1<<63 - 1})
	for _, n := range []int{2, 5, 9, 600} {
		oracle := rand.New(&lagSource{y: append([]uint64(nil), first...)})
		stream := rand.New(&lagSource{y: append([]uint64(nil), first...)})
		checkUniformStream(t, oracle, stream, rate, n, 40)
	}
}

// FuzzUniformStreamMatchesMathRand lets the fuzzer pick the seed, the
// rate's bit pattern (NaN, negative, subnormal and above-one rates
// included), the node count and the slot count.
func FuzzUniformStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(1), math.Float64bits(0.01), uint16(6142), uint8(20))
	f.Add(int64(0), math.Float64bits(1), uint16(0), uint8(3))
	f.Add(int64(-7), math.Float64bits(0.6), uint16(52), uint8(200))
	f.Add(int64(1<<31-1), math.Float64bits(math.NaN()), uint16(605), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, rateBits uint64, n uint16, slots uint8) {
		rate := math.Float64frombits(rateBits)
		oracle := rand.New(rand.NewSource(seed))
		stream := rand.New(rand.NewSource(seed))
		checkUniformStream(t, oracle, stream, rate, 2+int(n)%8192, 1+int(slots))
	})
}
