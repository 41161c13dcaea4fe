package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"otisnet/internal/digraph"
)

func TestNewAndAdd(t *testing.T) {
	h := New(8)
	if h.N() != 8 || h.M() != 0 {
		t.Fatalf("n=%d m=%d, want 8, 0", h.N(), h.M())
	}
	i := h.AddHyperarc([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	if i != 0 || h.M() != 1 {
		t.Fatal("AddHyperarc index/count wrong")
	}
	a := h.Hyperarc(0)
	if a.Degree() != 4 {
		t.Fatalf("degree = %d, want 4", a.Degree())
	}
}

func TestHyperarcDegreeUnbalanced(t *testing.T) {
	a := Hyperarc{Tail: []int{0}, Head: []int{1, 2}}
	if a.Degree() != -1 {
		t.Fatal("unbalanced hyperarc should have degree -1")
	}
}

func TestAddHyperarcCopies(t *testing.T) {
	h := New(4)
	tail := []int{0, 1}
	h.AddHyperarc(tail, []int{2, 3})
	tail[0] = 3
	if h.Hyperarc(0).Tail[0] != 0 {
		t.Fatal("AddHyperarc must copy slices")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("should panic on out-of-range node")
		}
	}()
	h.AddHyperarc([]int{0}, []int{5})
}

func TestOutInArcsAndReachable(t *testing.T) {
	// Models Fig. 3: one OPS of degree 4, sources 0-3, destinations 4-7.
	h := New(8)
	h.AddHyperarc([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
	if got := h.OutArcs(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("OutArcs(2) = %v", got)
	}
	if got := h.InArcs(6); len(got) != 1 || got[0] != 0 {
		t.Fatalf("InArcs(6) = %v", got)
	}
	if h.OutDegree(5) != 0 || h.InDegree(5) != 1 {
		t.Fatal("degree wrong for destination node")
	}
	if !h.Reachable(0, 7) || h.Reachable(7, 0) {
		t.Fatal("Reachable wrong")
	}
}

func TestUnderlyingDigraph(t *testing.T) {
	h := New(4)
	h.AddHyperarc([]int{0, 1}, []int{2, 3})
	g := h.UnderlyingDigraph()
	if g.M() != 4 {
		t.Fatalf("underlying digraph m = %d, want 4", g.M())
	}
	for _, u := range []int{0, 1} {
		for _, v := range []int{2, 3} {
			if !g.HasArc(u, v) {
				t.Fatalf("missing arc %d->%d", u, v)
			}
		}
	}
}

func TestUnderlyingDigraphNoDuplicates(t *testing.T) {
	h := New(2)
	h.AddHyperarc([]int{0}, []int{1})
	h.AddHyperarc([]int{0}, []int{1})
	g := h.UnderlyingDigraph()
	if g.ArcMultiplicity(0, 1) != 1 {
		t.Fatal("underlying digraph should deduplicate reachability")
	}
}

// randomHypergraph draws hyperarcs with repeated tail and head nodes,
// empty sides and exact duplicates, the cases the one-pass constructions must
// treat as the per-node scans do.
func randomHypergraph(rng *rand.Rand) *Hypergraph {
	n := 1 + rng.Intn(7)
	h := New(n)
	side := func() []int {
		s := make([]int, rng.Intn(4))
		for i := range s {
			s[i] = rng.Intn(n)
		}
		return s
	}
	for m := rng.Intn(10); m > 0; m-- {
		if h.M() > 0 && rng.Intn(4) == 0 {
			a := h.Hyperarc(rng.Intn(h.M()))
			h.AddHyperarc(a.Tail, a.Head)
			continue
		}
		h.AddHyperarc(side(), side())
	}
	return h
}

func TestOutArcListsMatchOutArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h := randomHypergraph(rng)
		lists := h.OutArcLists()
		for v := 0; v < h.N(); v++ {
			if got, want := lists[v], h.OutArcs(v); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: OutArcLists()[%d] = %v, OutArcs = %v", h.arcs, v, got, want)
			}
		}
	}
}

// TestUnderlyingDigraphArcOrder checks the one-pass construction against
// the per-node one it replaced: same arcs, in the same adjacency order.
func TestUnderlyingDigraphArcOrder(t *testing.T) {
	perNode := func(h *Hypergraph) *digraph.Digraph {
		g := digraph.New(h.n)
		for u := 0; u < h.n; u++ {
			seen := map[int]bool{}
			for _, i := range h.OutArcs(u) {
				for _, v := range h.arcs[i].Head {
					if !seen[v] {
						seen[v] = true
						g.AddArc(u, v)
					}
				}
			}
		}
		return g
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		h := randomHypergraph(rng)
		got, want := h.UnderlyingDigraph(), perNode(h)
		if fmt.Sprint(got.Arcs()) != fmt.Sprint(want.Arcs()) || got.M() != want.M() {
			t.Fatalf("%v: arcs %v, per-node construction %v", h.arcs, got.Arcs(), want.Arcs())
		}
		for v := 0; v < h.N(); v++ {
			if fmt.Sprint(got.In(v)) != fmt.Sprint(want.In(v)) {
				t.Fatalf("%v: In(%d) = %v, per-node construction %v", h.arcs, v, got.In(v), want.In(v))
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := New(4)
	a.AddHyperarc([]int{0, 1}, []int{2, 3})
	b := New(4)
	b.AddHyperarc([]int{1, 0}, []int{3, 2}) // same sets, different order
	if !a.Equal(b) {
		t.Fatal("set-equal hypergraphs should be Equal")
	}
	c := New(4)
	c.AddHyperarc([]int{0, 2}, []int{1, 3})
	if a.Equal(c) {
		t.Fatal("different hypergraphs reported Equal")
	}
}

func TestStackGraphPOPSModel(t *testing.T) {
	// Fig. 5: POPS(4,2) modeled as ς(4, K+2): 8 nodes, 4 hyperarcs of deg 4.
	sg := NewStackGraph(4, digraph.CompleteWithLoops(2))
	if sg.N() != 8 || sg.M() != 4 {
		t.Fatalf("ς(4,K+2): n=%d m=%d, want 8, 4", sg.N(), sg.M())
	}
	for i := 0; i < sg.M(); i++ {
		if sg.Hyperarc(i).Degree() != 4 {
			t.Fatalf("hyperarc %d degree != 4", i)
		}
	}
	if sg.Diameter() != 1 {
		t.Fatalf("POPS model diameter = %d, want 1 (single-hop)", sg.Diameter())
	}
}

func TestStackGraphNodeIDRoundTrip(t *testing.T) {
	sg := NewStackGraph(6, digraph.Complete(4))
	for id := 0; id < sg.N(); id++ {
		if got := sg.NodeID(sg.Node(id)); got != id {
			t.Fatalf("round trip %d -> %d", id, got)
		}
	}
	if sg.Project(7) != 1 { // s=6: node 7 is group 1, member 1
		t.Fatalf("Project(7) = %d, want 1", sg.Project(7))
	}
}

func TestStackGraphInvalidArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("s=0 should panic")
		}
	}()
	NewStackGraph(0, digraph.Complete(2))
}

func TestStackGraphHyperarcFor(t *testing.T) {
	g := digraph.Complete(3)
	sg := NewStackGraph(2, g)
	i := sg.HyperarcFor(0, 1)
	if i < 0 {
		t.Fatal("hyperarc for (0,1) should exist")
	}
	u, v := sg.BaseArcOf(i)
	if u != 0 || v != 1 {
		t.Fatalf("BaseArcOf = (%d,%d), want (0,1)", u, v)
	}
	if sg.HyperarcFor(0, 0) != -1 {
		t.Fatal("no loop hyperarc in loopless base")
	}
}

func TestStackGraphRouteSameGroupWithLoop(t *testing.T) {
	sg := NewStackGraph(3, digraph.CompleteWithLoops(2))
	src := sg.NodeID(StackNode{0, 0})
	dst := sg.NodeID(StackNode{0, 2})
	r := sg.Route(src, dst)
	if len(r) != 2 || !sg.ValidRoute(r) {
		t.Fatalf("same-group route with loop = %v, want 2 hops valid", r)
	}
}

func TestStackGraphRouteSameGroupNoLoop(t *testing.T) {
	sg := NewStackGraph(2, digraph.Complete(3))
	src := sg.NodeID(StackNode{1, 0})
	dst := sg.NodeID(StackNode{1, 1})
	r := sg.Route(src, dst)
	if r == nil || !sg.ValidRoute(r) {
		t.Fatalf("no valid same-group route without loop: %v", r)
	}
	if len(r) != 3 { // out to any neighbor and back (K3 is complete)
		t.Fatalf("route %v, want length 3", r)
	}
}

func TestStackGraphRouteCrossGroup(t *testing.T) {
	sg := NewStackGraph(4, digraph.Cycle(5))
	src := sg.NodeID(StackNode{0, 1})
	dst := sg.NodeID(StackNode{3, 2})
	r := sg.Route(src, dst)
	if !sg.ValidRoute(r) {
		t.Fatalf("invalid route %v", r)
	}
	if len(r) != 4 { // 0->1->2->3 in C5
		t.Fatalf("route length %d, want 4", len(r))
	}
	if r[len(r)-1] != dst {
		t.Fatal("route must end at dst")
	}
}

func TestStackGraphRouteSelf(t *testing.T) {
	sg := NewStackGraph(2, digraph.Complete(3))
	r := sg.Route(5, 5)
	if len(r) != 1 || r[0] != 5 {
		t.Fatalf("self route = %v", r)
	}
}

func TestValidRouteRejects(t *testing.T) {
	sg := NewStackGraph(2, digraph.Cycle(4))
	if sg.ValidRoute(nil) {
		t.Fatal("empty route should be invalid")
	}
	// Nodes in groups 0 and 2 of C4 are not adjacent.
	if sg.ValidRoute([]int{sg.NodeID(StackNode{0, 0}), sg.NodeID(StackNode{2, 0})}) {
		t.Fatal("non-adjacent hop should be invalid")
	}
}

// Property: ς(s,G) has s*|V| nodes, |A| hyperarcs, all of degree s, and —
// when every vertex of G carries a loop, so that same-group members are one
// hop apart — its hop diameter equals the diameter of G (piling copies never
// changes group-to-group distances).
func TestStackGraphInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := 1 + rng.Intn(4)
		g := digraph.Cycle(n) // strongly connected backbone
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				g.AddArc(rng.Intn(n), rng.Intn(n))
			}
		}
		g = digraph.AddLoops(g)
		sg := NewStackGraph(s, g)
		if sg.N() != s*n || sg.M() != g.M() {
			return false
		}
		for i := 0; i < sg.M(); i++ {
			if sg.Hyperarc(i).Degree() != s {
				return false
			}
		}
		return sg.Diameter() == g.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every Route produced between random node pairs is valid and no
// longer than base-diameter+1 hops... specifically dist(groups)+1 nodes.
func TestStackGraphRouteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := 1 + rng.Intn(4)
		base := digraph.AddLoops(digraph.Cycle(n))
		sg := NewStackGraph(s, base)
		src := rng.Intn(sg.N())
		dst := rng.Intn(sg.N())
		r := sg.Route(src, dst)
		if r == nil || !sg.ValidRoute(r) {
			return false
		}
		return r[0] == src && r[len(r)-1] == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
