package sim_test

// Table-level oracle for the precomputed distance and route tables. The
// reference here is the plain per-node construction: one BFS per source on
// the node-to-node digraph, and one coupler/head scan per (source,
// destination) pair, picking the first strictly closest head. The
// production stack build works once per twin class instead, so these tests
// require its tables to match the reference entry for entry, delivers bit
// included. The differential engine fuzzers cannot catch a wrong table:
// legacysim routes through the same NextCoupler tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"otisnet/internal/digraph"
	"otisnet/internal/hypergraph"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// oracleTables computes dist[u][v] and the row-major route table of a
// network from each node's out-coupler list and each coupler's heads.
func oracleTables(n int, out, heads [][]int) ([][]int, []sim.RouteEntry) {
	g := digraph.New(n)
	for u, cs := range out {
		for _, c := range cs {
			for _, h := range heads[c] {
				g.AddArc(u, h)
			}
		}
	}
	dist := make([][]int, n)
	for u := range dist {
		dist[u] = g.BFS(u)
	}
	route := make([]sim.RouteEntry, n*n)
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			c, hop := oracleNext(out, heads, dist, u, dst)
			route[u*n+dst] = sim.MakeRouteEntry(c, hop, c >= 0 && hop == dst)
		}
	}
	return dist, route
}

// oracleNext scans u's couplers and their heads in topology order and
// keeps the first head strictly closer to dst than any seen so far.
func oracleNext(out, heads, dist [][]int, u, dst int) (int, int) {
	if u == dst {
		return -1, u
	}
	best, bestHop := -1, -1
	bestDist := dist[u][dst]
	for _, c := range out[u] {
		for _, h := range heads[c] {
			d := dist[h][dst]
			if d != digraph.Unreachable && d < bestDist {
				bestDist = d
				best, bestHop = c, h
			}
		}
	}
	return best, bestHop
}

// checkTablesMatch compares the tables a topology lends the engine with
// the oracle's, reporting the first differing entry.
func checkTablesMatch(t *testing.T, name string, topo sim.Topology, dist [][]int, route []sim.RouteEntry) {
	t.Helper()
	n := topo.Nodes()
	gotDist := topo.(sim.DistanceRowed).DistanceRows()
	gotRoute := topo.(sim.RouteTabled).RouteTable()
	if len(gotDist) != n || len(gotRoute) != n*n {
		t.Fatalf("%s: %d distance rows, %d route entries; want %d, %d", name, len(gotDist), len(gotRoute), n, n*n)
	}
	for u := 0; u < n; u++ {
		if len(gotDist[u]) != n {
			t.Fatalf("%s: distance row %d has %d entries, want %d", name, u, len(gotDist[u]), n)
		}
		for v := 0; v < n; v++ {
			if gotDist[u][v] != dist[u][v] {
				t.Fatalf("%s: dist[%d][%d] = %d, oracle %d", name, u, v, gotDist[u][v], dist[u][v])
			}
			if g, w := gotRoute[u*n+v], route[u*n+v]; g != w {
				t.Fatalf("%s: route[%d][%d] = (c=%d hop=%d delivers=%v), oracle (c=%d hop=%d delivers=%v)",
					name, u, v, g.Coupler(), g.NextHop(), g.Delivers(), w.Coupler(), w.NextHop(), w.Delivers())
			}
		}
	}
}

func TestTablesMatchOracleEveryFamily(t *testing.T) {
	specs := []sweep.TopoSpec{
		{Net: "sk", S: 6, D: 3, K: 2},
		{Net: "sk", S: 4, D: 2, K: 4},
		{Net: "sk", S: 1, D: 2, K: 5},
		{Net: "sk", S: 2, D: 2, K: 1},
		{Net: "stackii", S: 3, D: 2, N: 10},
		{Net: "stackii", S: 2, D: 3, N: 7},
		{Net: "pops", T: 9, G: 8},
		{Net: "pops", T: 3, G: 1},
		{Net: "debruijn", D: 2, K: 4},
		{Net: "debruijn", D: 3, K: 3},
	}
	for _, spec := range specs {
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		tp := topo.Topo
		out := make([][]int, tp.Nodes())
		for u := range out {
			out[u] = tp.OutCouplers(u)
		}
		heads := make([][]int, tp.Couplers())
		for c := range heads {
			heads[c] = tp.Heads(c)
		}
		dist, route := oracleTables(tp.Nodes(), out, heads)
		checkTablesMatch(t, topo.Name, tp, dist, route)
	}
}

// randomBase draws a small digraph with loops, parallel arcs and, for most
// draws, vertex pairs with no path between them.
func randomBase(rng *rand.Rand, n int) *digraph.Digraph {
	g := digraph.New(n)
	arcs := rng.Intn(3*n + 1)
	for i := 0; i < arcs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(4) {
		case 0: // loop
			v = u
		case 1: // parallel to an existing arc
			if all := g.Arcs(); len(all) > 0 {
				a := all[rng.Intn(len(all))]
				u, v = a[0], a[1]
			}
		}
		g.AddArc(u, v)
	}
	return g
}

// checkRandomStack builds ς(s, G) for one random base and compares its
// tables with the oracle's, which reads the out-coupler lists through the
// per-node Hypergraph.OutArcs rather than the one-pass build. It reports
// what the instance exercised.
func checkRandomStack(t *testing.T, seed int64, s, nv int) (loops, parallel, unreachable bool) {
	t.Helper()
	g := randomBase(rand.New(rand.NewSource(seed)), nv)
	sg := hypergraph.NewStackGraph(s, g)
	n := sg.N()
	out := make([][]int, n)
	for u := range out {
		out[u] = sg.OutArcs(u)
	}
	heads := make([][]int, sg.M())
	for c := range heads {
		heads[c] = sg.Hyperarc(c).Head
	}
	dist, route := oracleTables(n, out, heads)
	checkTablesMatch(t, fmt.Sprintf("seed %d ς(%d, %v)", seed, s, g.Arcs()), sim.NewStackTopology(sg), dist, route)
	for _, row := range dist {
		for _, d := range row {
			unreachable = unreachable || d == digraph.Unreachable
		}
	}
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			parallel = parallel || g.ArcMultiplicity(u, v) > 1
		}
	}
	return g.LoopCount() > 0, parallel, unreachable
}

func TestStackTablesMatchOracleRandom(t *testing.T) {
	var loops, parallel, unreachable int
	for seed := int64(1); seed <= 400; seed++ {
		l, p, u := checkRandomStack(t, seed, 1+int(seed%4), 1+int(seed%9))
		if l {
			loops++
		}
		if p {
			parallel++
		}
		if u {
			unreachable++
		}
	}
	if loops == 0 || parallel == 0 || unreachable == 0 {
		t.Fatalf("random bases too tame: %d with loops, %d with parallel arcs, %d with unreachable pairs", loops, parallel, unreachable)
	}
}

func FuzzStackTablesMatchOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4))
	f.Add(int64(7), uint8(3), uint8(8))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, s, nv uint8) {
		checkRandomStack(t, seed, 1+int(s)%4, 1+int(nv)%12)
	})
}
