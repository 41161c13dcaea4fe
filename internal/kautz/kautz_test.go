package kautz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"otisnet/internal/digraph"
)

func TestNCounts(t *testing.T) {
	cases := []struct{ d, k, want int }{
		{2, 1, 3}, {2, 2, 6}, {2, 3, 12}, {3, 2, 12}, {3, 3, 36},
		// The paper's §2.5 example says "KG(5,4) has N = 3750 nodes", but by
		// its own formula d^{k-1}(d+1), KG(5,4) has 5³·6 = 750 nodes; 3750
		// is KG(5,5). We encode the formula (the definition) and record the
		// erratum in DESIGN.md's experiment index.
		{5, 4, 750}, {5, 5, 3750},
	}
	for _, c := range cases {
		if got := N(c.d, c.k); got != c.want {
			t.Errorf("N(%d,%d) = %d, want %d", c.d, c.k, got, c.want)
		}
	}
}

func TestNInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N(0,1) should panic")
		}
	}()
	N(0, 1)
}

// TestCountsOverflowPanic: a vertex count that does not fit an int panics
// with the family and the bound instead of wrapping, and the largest
// counts that fit are exact.
func TestCountsOverflowPanic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count func() int
		want  string
	}{
		{"KG(2,70)", func() int { return N(2, 70) }, "kautz: KG(2,70) has more than 9223372036854775807 vertices"},
		{"KG(max,1)", func() int { return N(math.MaxInt, 1) }, "kautz: KG(9223372036854775807,1) has more than 9223372036854775807 vertices"},
		{"B(2,70)", func() int { return DeBruijnN(2, 70) }, "kautz: B(2,70) has more than 9223372036854775807 vertices"},
		{"B(3,40)", func() int { return DeBruijnN(3, 40) }, "kautz: B(3,40) has more than 9223372036854775807 vertices"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
				}
			}()
			t.Errorf("%s: count %d, want a panic", tc.name, tc.count())
		}()
	}
	if n := DeBruijnN(2, 62); n != 1<<62 {
		t.Errorf("DeBruijnN(2,62) = %d, want 2^62", n)
	}
	if n := N(2, 62); n != 3<<61 {
		t.Errorf("N(2,62) = %d, want 3·2^61", n)
	}
	if n := DeBruijnN(1, math.MaxInt); n != 1 {
		t.Errorf("DeBruijnN(1, MaxInt) = %d, want 1", n)
	}
}

func TestLabelString(t *testing.T) {
	if s := (Label{1, 2, 0}).String(); s != "120" {
		t.Fatalf("String = %q, want 120", s)
	}
	if s := (Label{11}).String(); s != "b" {
		t.Fatalf("String = %q, want b", s)
	}
}

func TestLabelValid(t *testing.T) {
	if !(Label{0, 1, 0}).Valid(2) {
		t.Fatal("010 is a valid degree-2 word")
	}
	if (Label{0, 0, 1}).Valid(2) {
		t.Fatal("001 has a repeat")
	}
	if (Label{0, 3}).Valid(2) {
		t.Fatal("symbol 3 out of alphabet {0,1,2}")
	}
	if (Label{}).Valid(2) {
		t.Fatal("empty label is invalid")
	}
}

func TestIndexLabelRoundTrip(t *testing.T) {
	for _, p := range []struct{ d, k int }{{2, 1}, {2, 3}, {3, 2}, {4, 3}} {
		kg := New(p.d, p.k)
		for u := 0; u < kg.N(); u++ {
			w := kg.LabelOf(u)
			if !w.Valid(p.d) {
				t.Fatalf("KG(%d,%d): label %v of %d invalid", p.d, p.k, w, u)
			}
			if got := kg.Index(w); got != u {
				t.Fatalf("KG(%d,%d): round trip %d -> %v -> %d", p.d, p.k, u, w, got)
			}
		}
	}
}

func TestIndexInvalidPanics(t *testing.T) {
	kg := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Index on invalid word should panic")
		}
	}()
	kg.Index(Label{0, 0})
}

func TestStructuralParameters(t *testing.T) {
	// §2.5: KG(d,k) has constant degree d and diameter k.
	for _, p := range []struct{ d, k int }{{2, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}} {
		kg := New(p.d, p.k)
		g := kg.Digraph()
		if !g.IsRegular(p.d) {
			t.Errorf("KG(%d,%d) not %d-regular", p.d, p.k, p.d)
		}
		if diam := g.Diameter(); diam != p.k {
			t.Errorf("KG(%d,%d) diameter = %d, want %d", p.d, p.k, diam, p.k)
		}
		if !IsKautzDigraph(g, p.d, p.k) {
			t.Errorf("IsKautzDigraph rejects KG(%d,%d)", p.d, p.k)
		}
	}
}

func TestNoLoopsInPlainKautz(t *testing.T) {
	kg := New(3, 2)
	if kg.Digraph().LoopCount() != 0 {
		t.Fatal("KG(d,k) must have no loops (consecutive symbols differ)")
	}
}

func TestWithLoops(t *testing.T) {
	kg := New(3, 2)
	gl := kg.WithLoops()
	if gl.LoopCount() != kg.N() {
		t.Fatal("KG+ must have a loop at every vertex")
	}
	for u := 0; u < gl.N(); u++ {
		if gl.OutDegree(u) != 4 {
			t.Fatalf("KG+(3,2) vertex %d out-degree %d, want d+1=4", u, gl.OutDegree(u))
		}
	}
}

func TestLineDigraphEquivalenceFig6(t *testing.T) {
	// Fig. 6: KG(2,1) = K3, KG(2,2) = L(K3), KG(2,3) = L²(K3).
	for k := 1; k <= 3; k++ {
		kg := New(2, k)
		l := digraph.LineDigraphPower(digraph.Complete(3), k-1)
		if !digraph.Isomorphic(kg.Digraph(), l) {
			t.Errorf("KG(2,%d) not isomorphic to L^%d(K3)", k, k-1)
		}
	}
	// And for degree 3 as an extra check.
	if !digraph.Isomorphic(New(3, 2).Digraph(), digraph.LineDigraph(digraph.Complete(4))) {
		t.Error("KG(3,2) not isomorphic to L(K4)")
	}
}

func TestEulerianAndHamiltonian(t *testing.T) {
	// §2.5: "It is both Eulerian and Hamiltonian".
	for _, p := range []struct{ d, k int }{{2, 2}, {2, 3}, {3, 2}} {
		kg := New(p.d, p.k)
		if !kg.Digraph().IsEulerian() {
			t.Errorf("KG(%d,%d) should be Eulerian", p.d, p.k)
		}
		cyc := kg.Digraph().HamiltonianCycle()
		if cyc == nil || !kg.Digraph().IsHamiltonianCycle(cyc) {
			t.Errorf("KG(%d,%d) should be Hamiltonian", p.d, p.k)
		}
	}
}

func TestOverlapAndDistance(t *testing.T) {
	from := Label{1, 2, 0}
	to := Label{2, 0, 1}
	if ov := Overlap(from, to); ov != 2 {
		t.Fatalf("Overlap = %d, want 2", ov)
	}
	if d := Distance(from, to); d != 1 {
		t.Fatalf("Distance = %d, want 1", d)
	}
	if d := Distance(from, from); d != 0 {
		t.Fatal("self distance should be 0")
	}
}

func TestRouteEndpointsAndValidity(t *testing.T) {
	kg := New(3, 3)
	from := kg.LabelOf(5)
	to := kg.LabelOf(29)
	p := Route(from, to)
	if !p[0].Equal(from) || !p[len(p)-1].Equal(to) {
		t.Fatalf("route endpoints wrong: %v", p)
	}
	if !ValidPath(p, 3) {
		t.Fatalf("invalid route %v", p)
	}
}

func TestRouteMatchesBFSDistance(t *testing.T) {
	// The label-induced distance must equal the true shortest-path distance.
	for _, p := range []struct{ d, k int }{{2, 3}, {3, 2}, {3, 3}} {
		kg := New(p.d, p.k)
		g := kg.Digraph()
		for u := 0; u < kg.N(); u++ {
			dist := g.BFS(u)
			wu := kg.LabelOf(u)
			for v := 0; v < kg.N(); v++ {
				if got := Distance(wu, kg.LabelOf(v)); got != dist[v] {
					t.Fatalf("KG(%d,%d) dist(%d,%d): label %d, BFS %d",
						p.d, p.k, u, v, got, dist[v])
				}
			}
		}
	}
}

func TestRouteVia(t *testing.T) {
	kg := New(2, 3)
	from := kg.LabelOf(0)
	to := kg.LabelOf(7)
	for z := byte(0); z <= 2; z++ {
		p := RouteVia(from, to, z)
		if from[len(from)-1] == z {
			if p != nil {
				t.Fatalf("RouteVia with z == last symbol should be nil")
			}
			continue
		}
		if !ValidPath(p, 2) {
			t.Fatalf("invalid detour path %v", p)
		}
		if !p[len(p)-1].Equal(to) {
			t.Fatalf("detour does not reach destination: %v", p)
		}
		if len(p)-1 > 3+1 {
			t.Fatalf("detour too long: %d hops", len(p)-1)
		}
	}
}

func TestValidPathRejects(t *testing.T) {
	if ValidPath(nil, 2) {
		t.Fatal("empty path should be invalid")
	}
	bad := []Label{{0, 1}, {0, 2}} // not a shift
	if ValidPath(bad, 2) {
		t.Fatal("non-shift step should be invalid")
	}
	repeat := []Label{{0, 0}}
	if ValidPath(repeat, 2) {
		t.Fatal("invalid word should be rejected")
	}
}

func TestCandidatePathsProperties(t *testing.T) {
	kg := New(3, 2)
	from := kg.LabelOf(1)
	to := kg.LabelOf(10)
	paths := CandidatePaths(3, from, to)
	if len(paths) < 3 {
		t.Fatalf("want at least d candidate paths, got %d", len(paths))
	}
	for i, p := range paths {
		if !ValidPath(p, 3) {
			t.Fatalf("candidate %d invalid: %v", i, p)
		}
		if !p[0].Equal(from) || !p[len(p)-1].Equal(to) {
			t.Fatalf("candidate %d endpoints wrong: %v", i, p)
		}
		if pathLen(p) > 2+2 {
			t.Fatalf("candidate %d exceeds k+2 hops: %v", i, p)
		}
		if i > 0 && len(paths[i-1]) > len(p) {
			t.Fatal("candidates not sorted by length")
		}
	}
}

func TestRouteAvoidingNoFaults(t *testing.T) {
	kg := New(2, 3)
	from, to := kg.LabelOf(2), kg.LabelOf(9)
	p, viaFamily := kg.RouteAvoiding(from, to, func(Label) bool { return false })
	if !viaFamily {
		t.Fatal("fault-free routing should use the candidate family")
	}
	if pathLen(p) != Distance(from, to) {
		t.Fatal("fault-free route should be shortest")
	}
}

func TestRouteAvoidingSelf(t *testing.T) {
	kg := New(2, 2)
	w := kg.LabelOf(3)
	p, _ := kg.RouteAvoiding(w, w, func(Label) bool { return true })
	if len(p) != 1 || !p[0].Equal(w) {
		t.Fatalf("self route = %v", p)
	}
}

// The paper's fault-tolerance claim (T6): with up to d-1 faulty nodes, a
// path of length at most k+2 survives. Verified by randomized injection.
func TestFaultToleranceClaimKPlus2(t *testing.T) {
	for _, pr := range []struct{ d, k int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		kg := New(pr.d, pr.k)
		rng := rand.New(rand.NewSource(int64(pr.d*100 + pr.k)))
		for trial := 0; trial < 200; trial++ {
			u := rng.Intn(kg.N())
			v := rng.Intn(kg.N())
			if u == v {
				continue
			}
			// Choose up to d-1 faulty nodes distinct from u, v.
			faulty := map[int]bool{}
			for len(faulty) < pr.d-1 {
				f := rng.Intn(kg.N())
				if f != u && f != v {
					faulty[f] = true
				}
			}
			fs := func(w Label) bool { return faulty[kg.Index(w)] }
			p, _ := kg.RouteAvoiding(kg.LabelOf(u), kg.LabelOf(v), fs)
			if p == nil {
				t.Fatalf("KG(%d,%d): no surviving path %d->%d with faults %v",
					pr.d, pr.k, u, v, faulty)
			}
			if pathLen(p) > pr.k+2 {
				t.Fatalf("KG(%d,%d): surviving path %d->%d has %d hops > k+2",
					pr.d, pr.k, u, v, pathLen(p))
			}
			for _, w := range p[1 : len(p)-1] {
				if fs(w) {
					t.Fatalf("path passes through faulty node %v", w)
				}
			}
		}
	}
}

func TestDeBruijnStructure(t *testing.T) {
	b := NewDeBruijn(2, 3)
	if b.N() != 8 {
		t.Fatalf("B(2,3) n = %d, want 8", b.N())
	}
	if !b.Digraph().IsRegular(2) {
		t.Fatal("B(2,3) should be 2-regular")
	}
	if d := b.Digraph().Diameter(); d != 3 {
		t.Fatalf("B(2,3) diameter = %d, want 3", d)
	}
	if b.Digraph().LoopCount() != 2 {
		t.Fatalf("B(2,3) should have exactly d=2 loops (constant words)")
	}
}

func TestDeBruijnLabelRoundTrip(t *testing.T) {
	b := NewDeBruijn(3, 2)
	for u := 0; u < b.N(); u++ {
		if got := b.Index(b.LabelOf(u)); got != u {
			t.Fatalf("round trip %d -> %d", u, got)
		}
	}
}

func TestMooreBound(t *testing.T) {
	if MooreBound(2, 2) != 7 || MooreBound(3, 1) != 4 || MooreBound(2, 0) != 1 {
		t.Fatal("Moore bound values wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid parameters should panic")
		}
	}()
	MooreBound(0, 1)
}

// §2.5 optimality: Kautz graphs have d^k + d^{k-1} vertices — below the
// (unattainable for d,k >= 2) Moore bound but above every other known
// construction at these degrees; in particular strictly above de Bruijn.
func TestKautzNearMooreOptimality(t *testing.T) {
	for _, p := range []struct{ d, k int }{{2, 2}, {3, 2}, {3, 3}, {4, 3}, {5, 4}} {
		n := N(p.d, p.k)
		mb := MooreBound(p.d, p.k)
		if n >= mb {
			t.Errorf("KG(%d,%d): %d vertices >= Moore bound %d?!", p.d, p.k, n, mb)
		}
		// Gap below Moore bound is exactly the lower-order terms:
		// mb - n = 1 + d + ... + d^{k-2}.
		gap := MooreBound(p.d, p.k-2+1) - 0 // 1 + d + ... + d^{k-1}
		_ = gap
		if mb-n != MooreBound(p.d, p.k-2) {
			t.Errorf("KG(%d,%d): Moore gap = %d, want %d", p.d, p.k, mb-n, MooreBound(p.d, p.k-2))
		}
		if n <= DeBruijnN(p.d, p.k) {
			t.Errorf("KG(%d,%d) should beat de Bruijn", p.d, p.k)
		}
	}
}

func TestKautzVsDeBruijnNodeAdvantage(t *testing.T) {
	// Kautz beats de Bruijn in nodes for equal degree and diameter:
	// d^{k-1}(d+1) > d^k.
	for _, p := range []struct{ d, k int }{{2, 3}, {3, 3}, {4, 2}} {
		if N(p.d, p.k) <= DeBruijnN(p.d, p.k) {
			t.Errorf("KG(%d,%d) should have more nodes than B(%d,%d)", p.d, p.k, p.d, p.k)
		}
	}
}

// Property: Distance is a metric-compatible quantity: 0 iff equal, and
// routing along Route decreases the remaining distance by 1 at every step.
func TestRouteProgressProperty(t *testing.T) {
	kg := New(3, 3)
	f := func(a, b uint16) bool {
		u := int(a) % kg.N()
		v := int(b) % kg.N()
		from, to := kg.LabelOf(u), kg.LabelOf(v)
		p := Route(from, to)
		for i, w := range p {
			if Distance(w, to) != len(p)-1-i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arcs computed from labels coincide with the digraph adjacency.
func TestLabelAdjacencyConsistencyProperty(t *testing.T) {
	kg := New(3, 2)
	f := func(a uint16) bool {
		u := int(a) % kg.N()
		w := kg.LabelOf(u)
		for _, v := range kg.Digraph().Out(u) {
			if Distance(w, kg.LabelOf(v)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
