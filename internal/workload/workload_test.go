package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"otisnet/internal/otis"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// stream collects the full injection sequence of a generator over the given
// number of slots, one seeded RNG per call.
func stream(t sim.Traffic, slots, n int, seed int64) [][]sim.Injection {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]sim.Injection, slots)
	for s := 0; s < slots; s++ {
		buf := t.Generate(nil, s, n, rng)
		out[s] = append([]sim.Injection(nil), buf...)
	}
	return out
}

// specs under test: one per kind, with realistic parameters for a 72-node
// network of 12 groups of 6 (SK(6,3,2) shape).
func testSpecs() []Spec {
	return []Spec{
		{Kind: KindUniform},
		{Kind: KindTranspose},
		{Kind: KindHotspot, HotGroup: 2, Fraction: 0.4},
		{Kind: KindBursty, MeanOn: 20, MeanOff: 60, OffFactor: 0.1},
		{Kind: KindMultiPeriod, Period: 200, Amplitude: 0.6, EpisodeOn: 40, EpisodeOff: 80,
			MeanOn: 10, MeanOff: 30, RateSigma: 0.35, OffFactor: 0.1},
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	const n, groupSize, slots = 72, 6, 400
	for _, spec := range testSpecs() {
		a := stream(spec.New(0.3, n, groupSize), slots, n, 7)
		b := stream(spec.New(0.3, n, groupSize), slots, n, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different streams", spec.Label())
		}
		c := stream(spec.New(0.3, n, groupSize), slots, n, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical streams", spec.Label())
		}
	}
}

// TestUniformMatchesLegacyTrafficStream pins the zero Spec to
// sim.UniformTraffic itself: uniform sweeps keep its RNG stream and the
// engine's fused UniformRater injection path.
func TestUniformMatchesLegacyTrafficStream(t *testing.T) {
	const n, slots = 72, 500
	tr := Spec{}.New(0.25, n, 6)
	if tr != sim.Traffic(sim.UniformTraffic{Rate: 0.25}) {
		t.Fatalf("zero Spec built %#v, want sim.UniformTraffic{Rate: 0.25}", tr)
	}
	legacy := stream(sim.UniformTraffic{Rate: 0.25}, slots, n, 11)
	if ours := stream(tr, slots, n, 11); !reflect.DeepEqual(legacy, ours) {
		t.Fatal("zero-Spec stream differs from sim.UniformTraffic")
	}
}

func TestUniformRunMatchesLegacyRunBitForBit(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	cfg := sim.Config{Seed: 3}
	legacy := sim.Run(topo, sim.UniformTraffic{Rate: 0.2}, 500, 500, cfg)
	// Via the Spec path, as sweeps materialize it.
	ours := sim.Run(topo, Spec{}.New(0.2, topo.Nodes(), 6), 500, 500, cfg)
	if legacy != ours {
		t.Fatalf("uniform workload run diverged from legacy traffic run:\nlegacy: %v\nours:   %v", legacy, ours)
	}
}

func TestTransposeIsOTISPermutation(t *testing.T) {
	const n, groupSize = 12, 3
	perm := otis.New(n/groupSize, groupSize).Permutation()
	tr := NewTranspose(1.0, n, groupSize)
	if !reflect.DeepEqual(tr.Perm, perm) {
		t.Fatal("transpose permutation is not the OTIS permutation")
	}
	seen := make(map[int]bool)
	for _, injs := range stream(tr, 10, n, 1) {
		for _, inj := range injs {
			if inj.Dst != perm[inj.Src] {
				t.Fatalf("injection %d->%d is not the transpose partner %d", inj.Src, inj.Dst, perm[inj.Src])
			}
			seen[inj.Src] = true
		}
	}
	for u := 0; u < n; u++ {
		if perm[u] != u && !seen[u] {
			t.Errorf("node %d (partner %d) never injected at rate 1", u, perm[u])
		}
		if perm[u] == u && seen[u] {
			t.Errorf("fixed point %d injected to itself", u)
		}
	}
}

func TestTransposeWrongSizePanics(t *testing.T) {
	tr := NewTranspose(1.0, 6, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch should panic")
		}
	}()
	tr.Generate(nil, 0, 12, rand.New(rand.NewSource(4)))
}

func TestTransposeDegenerateGroupSizeIsReversal(t *testing.T) {
	tr := NewTranspose(1.0, 8, 0)
	for u, p := range tr.Perm {
		if p != 8-1-u {
			t.Fatalf("OTIS(n,1) transpose should be reversal; perm[%d]=%d", u, p)
		}
	}
}

func TestHotspotSkewTargetsGroup(t *testing.T) {
	const n, gs, hot = 72, 6, 2
	h := Hotspot{Rate: 1.0, Group: hot, GroupSize: gs, Fraction: 1.0}
	hotLo, hotHi := hot*gs, hot*gs+gs
	for _, injs := range stream(h, 50, n, 5) {
		for _, inj := range injs {
			fromHot := inj.Src >= hotLo && inj.Src < hotHi
			toHot := inj.Dst >= hotLo && inj.Dst < hotHi
			if !fromHot && !toHot {
				t.Fatalf("fraction-1 hotspot sent %d->%d outside the hot group", inj.Src, inj.Dst)
			}
			if inj.Src == inj.Dst {
				t.Fatalf("self-send %d->%d", inj.Src, inj.Dst)
			}
		}
	}
	// Fraction 0 degenerates to uniform: destinations leave the hot group.
	u := Hotspot{Rate: 1.0, Group: hot, GroupSize: gs, Fraction: 0}
	outside := false
	for _, injs := range stream(u, 20, n, 5) {
		for _, inj := range injs {
			if inj.Dst < hotLo || inj.Dst >= hotHi {
				outside = true
			}
		}
	}
	if !outside {
		t.Fatal("fraction-0 hotspot never sent outside the hot group")
	}
}

// TestHotspotGroupWrapsAcrossScales guards the sweep-safety rule: a hot
// group index valid on one topology must not send destinations past N on a
// smaller one in the same grid — the group wraps modulo the group count.
func TestHotspotGroupWrapsAcrossScales(t *testing.T) {
	const n, gs = 72, 9 // POPS(9,8) shape: 8 groups
	h := Hotspot{Rate: 1.0, Group: 11, GroupSize: gs, Fraction: 1.0}
	wantLo, wantHi := (11%8)*gs, (11%8)*gs+gs
	for _, injs := range stream(h, 20, n, 3) {
		for _, inj := range injs {
			if inj.Dst < 0 || inj.Dst >= n {
				t.Fatalf("destination %d out of range", inj.Dst)
			}
			fromHot := inj.Src >= wantLo && inj.Src < wantHi
			if !fromHot && (inj.Dst < wantLo || inj.Dst >= wantHi) {
				t.Fatalf("injection %d->%d missed the wrapped hot group [%d,%d)", inj.Src, inj.Dst, wantLo, wantHi)
			}
		}
	}
}

// TestHotspotRemainderTailNeverHot pins the documented ragged-topology
// semantics: when n is not a multiple of GroupSize, the tail n mod
// GroupSize nodes still send but are never hot destinations, and the
// group index wraps at the truncated count n/GroupSize.
func TestHotspotRemainderTailNeverHot(t *testing.T) {
	const n, gs = 70, 6 // 11 whole groups + a 4-node tail (66..69)
	groups := n / gs
	for group := 0; group < 2*groups; group++ {
		h := Hotspot{Rate: 1.0, Group: group, GroupSize: gs, Fraction: 1.0}
		wantLo := (group % groups) * gs
		wantHi := wantLo + gs
		tailSent := false
		for _, injs := range stream(h, 30, n, int64(group+1)) {
			for _, inj := range injs {
				if inj.Src >= groups*gs {
					tailSent = true
				}
				// Non-hot senders redirect with probability 1, so their
				// destinations — tail senders' included — land in the hot
				// range, which never covers the tail. (Hot-group members
				// fall back to uniform destinations and may reach the tail.)
				fromHot := inj.Src >= wantLo && inj.Src < wantHi
				if !fromHot && (inj.Dst < wantLo || inj.Dst >= wantHi) {
					t.Fatalf("group %d: injection %d->%d missed hot range [%d,%d)",
						group, inj.Src, inj.Dst, wantLo, wantHi)
				}
			}
		}
		if !tailSent {
			t.Fatalf("group %d: tail nodes never injected at rate 1", group)
		}
	}
}

func TestBurstyModulatesLoad(t *testing.T) {
	const n, slots = 20, 2000
	b := &Bursty{OnRate: 1.0, OffRate: 0, MeanOn: 10, MeanOff: 10}
	silent, loud := 0, 0
	for _, injs := range stream(b, slots, n, 9) {
		switch len(injs) {
		case 0:
			silent++
		case n:
			loud++
		default:
			t.Fatalf("rate-1/rate-0 burst produced a partial slot of %d injections", len(injs))
		}
	}
	if silent < slots/10 || loud < slots/10 {
		t.Fatalf("on/off process barely toggled: %d silent, %d loud of %d slots", silent, loud, slots)
	}
}

// TestWorkloadRunLoopAllocFree pins the acceptance criterion that the
// sim.Run inner loop (Generate into reusable scratch, Inject, Step) stays
// allocation-free in steady state under every workload kind. Rates are well
// below SK(6,3,2) saturation so ring buffers reach a stable high-water mark
// during warmup.
func TestWorkloadRunLoopAllocFree(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	n := topo.Nodes()
	for _, spec := range testSpecs() {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			tr := spec.New(0.08, n, 6)
			e := sim.NewEngine(topo, sim.Config{Seed: 1})
			rng := rand.New(rand.NewSource(2))
			var buf []sim.Injection
			slot := 0
			step := func() {
				buf = tr.Generate(buf[:0], slot, n, rng)
				for _, inj := range buf {
					e.Inject(inj.Src, inj.Dst)
				}
				e.Step()
				slot++
			}
			for i := 0; i < 4000; i++ { // warmup to steady state
				step()
			}
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Errorf("run loop allocated %.2f times per slot in steady state", allocs)
			}
		})
	}
}

func TestSpecLabelsAndParse(t *testing.T) {
	cases := map[string]Spec{
		"uniform":           {},
		"transpose":         {Kind: KindTranspose},
		"hotspot(g2,0.4)":   {Kind: KindHotspot, HotGroup: 2, Fraction: 0.4},
		"bursty(20/60,0.1)": {Kind: KindBursty, MeanOn: 20, MeanOff: 60, OffFactor: 0.1},
		"multiperiod(p200;a0.6;ep40/80;fl10/30;s0.35;lo0.1)": {Kind: KindMultiPeriod,
			Period: 200, Amplitude: 0.6, EpisodeOn: 40, EpisodeOff: 80,
			MeanOn: 10, MeanOff: 30, RateSigma: 0.35, OffFactor: 0.1},
	}
	for want, spec := range cases {
		if got := spec.Label(); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
		k, err := ParseKind(spec.Kind.String())
		if err != nil || k != spec.Kind {
			t.Errorf("ParseKind(%q) = %v, %v", spec.Kind.String(), k, err)
		}
	}
	if !(Spec{}).IsZero() || (Spec{Kind: KindBursty}).IsZero() {
		t.Error("IsZero misclassifies specs")
	}
	if _, err := ParseKind("collective"); err == nil {
		t.Error("ParseKind should reject non-sweepable kinds")
	}
}
