package sim_test

// Table-level oracle for the precomputed distance and route tables. The
// reference is legacysim.Oracle, the plain per-node construction the
// reference engine routes by: one BFS per source on the node-to-node
// digraph, and one coupler/head scan per (source, destination) pair,
// picking the first strictly closest head. The production build keeps
// quotient blocks, one cell per (row class, column class) pair, so these
// tests expand the blocks per node and require them to match the oracle
// entry for entry, delivers bit and next hop included, and check the
// packing of the cells, which the engine differential tests only see
// through the routes they decode. Fault plans rebuild the blocks of
// faults.FaultedTopology from the live lists, so those are checked after
// every event against the oracle over the live OutCouplers and Heads.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"otisnet/internal/digraph"
	"otisnet/internal/faults"
	"otisnet/internal/hypergraph"
	"otisnet/internal/legacysim"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// checkTablesMatch expands the blocks a topology lends the engine per node
// and compares them with the oracle's tables, reporting the first
// differing entry. The blocks must have at most maxClasses rows and
// columns, and their dictionaries and cell width must be as small as
// their cells allow (checkDictionaries).
func checkTablesMatch(t *testing.T, name string, topo sim.Topology, dist [][]int, route []sim.RouteEntry, maxClasses int) {
	t.Helper()
	n := topo.Nodes()
	b := topo.RouteBlocks()
	rows := b.Rows()
	if len(b.Row) != n || len(b.Col) != n || b.Cols <= 0 || rows <= 0 || b.Shift > 5 || b.Base[0] != 0 ||
		int(b.Base[rows]) != len(b.Dict) || len(b.Cells) != (rows*b.Cols<<b.Shift+63)/64 {
		t.Fatalf("%s: malformed blocks: len(Row) %d, len(Col) %d, Cols %d, %d rows, shift %d, %d words, %d dictionary entries",
			name, len(b.Row), len(b.Col), b.Cols, rows, b.Shift, len(b.Cells), len(b.Dict))
	}
	if rows > maxClasses || b.Cols > maxClasses {
		t.Fatalf("%s: %d×%d blocks, want at most %d×%d", name, rows, b.Cols, maxClasses, maxClasses)
	}
	for u := 0; u < n; u++ {
		if int(b.Row[u]) >= rows || int(b.Col[u]) >= b.Cols {
			t.Fatalf("%s: node %d in class (%d, %d) of %d×%d blocks", name, u, b.Row[u], b.Col[u], rows, b.Cols)
		}
	}
	checkDictionaries(t, name, b)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got := b.Distance(u, v); got != dist[u][v] {
				t.Fatalf("%s: dist(%d, %d) = %d, oracle %d", name, u, v, got, dist[u][v])
			}
			g, w := b.Entry(u, v), route[u*n+v]
			if g != w {
				t.Fatalf("%s: route(%d, %d) = (c=%d hop=%d delivers=%v), oracle (c=%d hop=%d delivers=%v)",
					name, u, v, g.Coupler(), g.NextHop(), g.Delivers(), w.Coupler(), w.NextHop(), w.Delivers())
			}
		}
	}
}

// checkDictionaries decodes every cell of the blocks and requires each
// row's dictionary to hold exactly the distinct cells of its row, and the
// cell width to be the smallest power of two that indexes the largest
// dictionary. It returns that largest dictionary's size.
func checkDictionaries(t *testing.T, name string, b *sim.RouteBlocks) int {
	t.Helper()
	widest := 0
	for r := 0; r < b.Rows(); r++ {
		dict := b.Dict[b.Base[r]:b.Base[r+1]]
		widest = max(widest, len(dict))
		seen := map[sim.RouteCell]bool{}
		for k := 0; k < b.Cols; k++ {
			seen[b.Cell(r, k)] = true
		}
		if len(seen) != len(dict) {
			t.Fatalf("%s: row class %d has %d dictionary entries for %d distinct cells", name, r, len(dict), len(seen))
		}
	}
	want := 1
	for 1<<want < widest {
		want *= 2
	}
	if b.Width() != want {
		t.Fatalf("%s: %d-bit cells for dictionaries of up to %d entries, want %d bits", name, b.Width(), widest, want)
	}
	return widest
}

func TestTablesMatchOracleEveryFamily(t *testing.T) {
	specs := []sweep.TopoSpec{
		{Net: "sk", S: 6, D: 3, K: 2},
		{Net: "sk", S: 4, D: 2, K: 4},
		{Net: "sk", S: 1, D: 2, K: 5},
		{Net: "sk", S: 2, D: 2, K: 1},
		{Net: "sk", S: 3, D: 2, K: 2},
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
		dist, route := legacysim.Oracle(tp)
		// Stack families keep one block row and column per group at most;
		// point-to-point ones (GroupSize 1) keep per-node tables.
		groups := tp.Nodes() / max(topo.GroupSize, 1)
		checkTablesMatch(t, topo.Name, tp, dist, route, groups)
		for _, plan := range faultPlans(tp, 1) {
			checkFaultedTablesMatch(t, topo.Name, tp, plan, groups)
		}
	}
}

// TestTablesMatchOracleEveryWidth covers the narrowest and a wide cell:
// on the directed 2-cycle each row's dictionary is a relay and a delivery,
// which fill one bit; on the directed 300-cycle each row holds 300
// distances, which need 16 bits and, past 254 hops, 16-bit distance lanes
// in the build's scratch. The reach sets of the 300-cycle take one pass
// per hop level, 300 passes, and the build must still take well under a
// second.
func TestTablesMatchOracleEveryWidth(t *testing.T) {
	start := time.Now()
	sim.NewPointToPointTopology(digraph.Cycle(300))
	if d := time.Since(start); d > time.Second {
		t.Fatalf("C_300 blocks took %v to build, want under 1s", d)
	}
	for _, tc := range []struct{ n, widest, width int }{{2, 2, 1}, {300, 300, 16}} {
		widest, width := checkRandomCycle(t, 1, tc.n, 0)
		if widest != tc.widest || width != tc.width {
			t.Fatalf("C_%d: %d-bit cells, dictionaries of up to %d entries; want %d bits, %d entries", tc.n, width, widest, tc.widest, tc.width)
		}
	}
}

// TestTablesMatchOracleManyWays covers a row class with more ways out
// than a byte lane can number. Node 0 transmits on one coupler heard by
// the 299 hubs 1..299, each of a row class of its own; hub i transmits
// on a coupler heard by leaf 299+i alone, and every leaf answers on a
// coupler heard by node 0. Node 0 reaches leaf 299+i through its i-th
// relay head, so its row numbers 301 ways out and the build takes 16-bit
// lanes.
func TestTablesMatchOracleManyWays(t *testing.T) {
	const hubs = 299
	n := 1 + 2*hubs
	out, heads := make([][]int, n), make([][]int, n)
	out[0] = []int{0}
	for i := 1; i <= hubs; i++ {
		heads[0] = append(heads[0], i)
		out[i], heads[i] = []int{i}, []int{hubs + i}
		out[hubs+i], heads[hubs+i] = []int{hubs + i}, []int{0}
	}
	tp := sim.NewListTopology(out, heads)
	dist, route := legacysim.Oracle(tp)
	checkTablesMatch(t, "star", tp, dist, route, n)
}

// TestTablesMatchOracleUnreachable covers reach sets that stop short: in
// ς(2, G), where G joins the cycle {0, 1} to the cycle {2, 3} by the one
// arc 1 -> 2 and vertex 4 has only a loop, no node of groups 2 to 4
// reaches groups 0 and 1, and only group 4 reaches group 4.
func TestTablesMatchOracleUnreachable(t *testing.T) {
	g := digraph.New(5)
	for _, a := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {4, 4}} {
		g.AddArc(a[0], a[1])
	}
	topo := sim.NewStackTopology(hypergraph.NewStackGraph(2, g))
	dist, route := legacysim.Oracle(topo)
	unreachable := 0
	for _, row := range dist {
		for _, d := range row {
			if d == digraph.Unreachable {
				unreachable++
			}
		}
	}
	// 4 nodes of groups 2, 3 miss the 4 of groups 0, 1; the 2 of group 4
	// miss the other 8, and those 8 miss the 2.
	if want := 4*4 + 2*8 + 8*2; unreachable != want {
		t.Fatalf("%d unreachable pairs, want %d", unreachable, want)
	}
	checkTablesMatch(t, "bridge", topo, dist, route, 5)
	for _, plan := range faultPlans(topo, 1) {
		checkFaultedTablesMatch(t, "bridge", topo, plan, 5)
	}
}

// TestTablesMatchOracleDeepFirstWord covers a build whose column sets
// span many words and whose deepest cells all lie in the first: the
// chain 0 -> 1 -> ... -> 59 hangs off the de Bruijn digraph B(2,10) on
// nodes 60..1083, entered only from node 60 and left from every chain
// node to node 60. Every node reaches every de Bruijn node within 11
// hops, while chain node 59 lies up to 70 hops away, so the largest
// distance, which numbers the codes of every row, is found only in
// columns below 64.
func TestTablesMatchOracleDeepFirstWord(t *testing.T) {
	const chain, k = 60, 10
	n := chain + 1<<k
	out := make([][]int, n)
	var heads [][]int
	arc := func(u, v int) {
		out[u] = append(out[u], len(heads))
		heads = append(heads, []int{v})
	}
	for i := 0; i < chain; i++ {
		if i+1 < chain {
			arc(i, i+1)
		}
		arc(i, chain)
	}
	for x := 0; x < 1<<k; x++ {
		arc(chain+x, chain+2*x%(1<<k))
		arc(chain+x, chain+(2*x+1)%(1<<k))
	}
	arc(chain, 0)
	tp := sim.NewListTopology(out, heads)
	dist, route := legacysim.Oracle(tp)
	low, high := 0, 0
	for _, row := range dist {
		low, high = max(low, slices.Max(row[:64])), max(high, slices.Max(row[64:]))
	}
	if cols := tp.RouteBlocks().Cols; low != 70 || high != 11 || cols < 16*64 {
		t.Fatalf("deepest cells %d in columns below 64 and %d above, %d columns; want 70, 11 and at least 1024", low, high, cols)
	}
	checkTablesMatch(t, "chain+B(2,10)", tp, dist, route, n)
}

// TestRouteBuilderReuse builds one network after another with one
// RouteBuilder into one RouteBlocks, as faults.FaultedTopology does at
// every event batch, through class counts and diameters that grow and
// shrink and through the fallback from 8- to 16-bit distance lanes, and
// requires every build to equal a fresh builder's blocks field for field.
func TestRouteBuilderReuse(t *testing.T) {
	var topos []sim.Topology
	for _, spec := range []sweep.TopoSpec{
		{Net: "sk", S: 6, D: 3, K: 2},
		{Net: "debruijn", D: 2, K: 6},
		{Net: "sk", S: 1, D: 2, K: 5},
		{Net: "pops", T: 3, G: 1},
		{Net: "sk", S: 4, D: 2, K: 4},
	} {
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo.Topo)
	}
	c300 := sim.NewPointToPointTopology(digraph.Cycle(300))
	c2 := sim.NewPointToPointTopology(digraph.Cycle(2))
	topos = append(topos, c300, topos[0], c2, c300, topos[2], topos[1], topos[0])
	var rb sim.RouteBuilder
	var reused sim.RouteBlocks
	for i, tp := range topos {
		out, heads := make([][]int, tp.Nodes()), make([][]int, tp.Couplers())
		for u := range out {
			out[u] = tp.OutCouplers(u)
		}
		for c := range heads {
			heads[c] = tp.Heads(c)
		}
		rb.Build(&reused, out, heads)
		var fresh sim.RouteBlocks
		sim.BuildRouteBlocks(&fresh, out, heads)
		if !slices.Equal(reused.Row, fresh.Row) || !slices.Equal(reused.Col, fresh.Col) || reused.Cols != fresh.Cols ||
			reused.Shift != fresh.Shift || !slices.Equal(reused.Cells, fresh.Cells) || !slices.Equal(reused.Base, fresh.Base) ||
			!slices.Equal(reused.Dict, fresh.Dict) {
			t.Fatalf("build %d (N=%d): the reused builder's blocks differ from a fresh builder's", i, tp.Nodes())
		}
	}
}

// checkRandomCycle builds the directed n-cycle with chords random arcs
// added as a point-to-point network and compares its tables with the
// oracle's, before and after the events of fault plans. It returns the
// largest row dictionary and the cell width of the pristine blocks.
func checkRandomCycle(t *testing.T, seed int64, n, chords int) (widest, width int) {
	t.Helper()
	g := digraph.Cycle(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < chords; i++ {
		g.AddArc(rng.Intn(n), rng.Intn(n))
	}
	tp := sim.NewPointToPointTopology(g)
	name := fmt.Sprintf("seed %d C_%d + %d chords", seed, n, chords)
	dist, route := legacysim.Oracle(tp)
	checkTablesMatch(t, name, tp, dist, route, n)
	for _, plan := range faultPlans(tp, seed) {
		checkFaultedTablesMatch(t, name, tp, plan, n)
	}
	b := tp.RouteBlocks()
	return checkDictionaries(t, name, b), b.Width()
}

// faultPlans draws node, coupler and transmitter faults that strike at
// once, and a stochastic plan that fails and repairs all three kinds.
func faultPlans(tp sim.Topology, seed int64) []faults.Plan {
	kinds := []faults.Kind{faults.KindNode, faults.KindCoupler, faults.KindTransmitter}
	var plans []faults.Plan
	var mixed []faults.Event
	for _, k := range kinds {
		plans = append(plans, faults.Random(k, 2, 1, tp, seed))
		mixed = append(mixed, faults.Stochastic(k, 2, tp, 8, 4, 40, seed).Events...)
	}
	return append(plans, faults.NewPlan("mixed-mtbf", mixed...))
}

// checkFaultedTablesMatch wraps base in plan and, before the first event
// and after every event batch, requires the wrapper's blocks to match the
// oracle over the live structure, with at most baseClasses plus one row
// and column per event, and EntryChanged to equal the oracle's per-entry
// diff from the previous batch.
func checkFaultedTablesMatch(t *testing.T, name string, base sim.Topology, plan faults.Plan, baseClasses int) {
	t.Helper()
	ft := faults.Wrap(base, plan)
	n := ft.Nodes()
	dist0, prev := legacysim.Oracle(ft)
	checkTablesMatch(t, name+" "+plan.Name+" before any event", ft, dist0, prev, baseClasses)
	for i, ev := range plan.Events {
		if i > 0 && plan.Events[i-1].Slot == ev.Slot {
			continue // applied with the batch of its slot
		}
		ch := ft.Advance(ev.Slot)
		at := fmt.Sprintf("%s %s after slot %d", name, plan.Name, ev.Slot)
		dist, route := legacysim.Oracle(ft)
		checkTablesMatch(t, at, ft, dist, route, baseClasses+len(plan.Events))
		for j := range route {
			if got, want := ch.EntryChanged(j/n, j%n), route[j] != prev[j]; got != want {
				t.Fatalf("%s: EntryChanged(%d, %d) = %v, oracle diff %v", at, j/n, j%n, got, want)
			}
		}
		prev = route
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

// randomStackCover records what a random instance exercised.
type randomStackCover struct {
	loops, parallel, unreachable bool
	noOut, noIn                  bool // a group with no out-arcs / no in-arcs
}

// checkRandomStack builds ς(s, G) for one random base and compares its
// tables with the oracle's over lists that read the out-couplers through
// the per-node Hypergraph.OutArcs rather than the one-pass build. It
// reports what the instance exercised.
func checkRandomStack(t *testing.T, seed int64, s, nv int) (cov randomStackCover) {
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
	dist, route := legacysim.Oracle(sim.NewListTopology(out, heads))
	name := fmt.Sprintf("seed %d ς(%d, %v)", seed, s, g.Arcs())
	topo := sim.NewStackTopology(sg)
	checkTablesMatch(t, name, topo, dist, route, nv)
	for _, plan := range faultPlans(topo, seed) {
		checkFaultedTablesMatch(t, name, topo, plan, nv)
	}
	// Reversing every odd node's out list gives twins whose lists hold the
	// same couplers in another order; with parallel arcs the order breaks
	// ties, so out-twins must have equal lists, not equal sets.
	rev := make([][]int, n)
	for u := range rev {
		rev[u] = slices.Clone(out[u])
		if u%2 == 1 {
			slices.Reverse(rev[u])
		}
	}
	lt := sim.NewListTopology(rev, heads)
	for _, plan := range faultPlans(lt, seed) {
		checkFaultedTablesMatch(t, name+" reversed", lt, plan, n)
	}
	for _, row := range dist {
		for _, d := range row {
			cov.unreachable = cov.unreachable || d == digraph.Unreachable
		}
	}
	outDeg, inDeg := make([]int, nv), make([]int, nv)
	for _, a := range g.Arcs() {
		outDeg[a[0]]++
		inDeg[a[1]]++
	}
	for u := 0; u < nv; u++ {
		cov.noOut = cov.noOut || outDeg[u] == 0
		cov.noIn = cov.noIn || inDeg[u] == 0
		for v := 0; v < nv; v++ {
			cov.parallel = cov.parallel || g.ArcMultiplicity(u, v) > 1
		}
	}
	cov.loops = g.LoopCount() > 0
	return cov
}

func TestStackTablesMatchOracleRandom(t *testing.T) {
	var loops, parallel, unreachable, noOut, noIn int
	count := func(n *int, hit bool) {
		if hit {
			*n++
		}
	}
	for seed := int64(1); seed <= 400; seed++ {
		cov := checkRandomStack(t, seed, 1+int(seed%4), 1+int(seed%9))
		count(&loops, cov.loops)
		count(&parallel, cov.parallel)
		count(&unreachable, cov.unreachable)
		count(&noOut, cov.noOut)
		count(&noIn, cov.noIn)
	}
	if loops == 0 || parallel == 0 || unreachable == 0 || noOut == 0 || noIn == 0 {
		t.Fatalf("random bases too tame: %d with loops, %d with parallel arcs, %d with unreachable pairs, %d with a group without out-arcs, %d with a group without in-arcs",
			loops, parallel, unreachable, noOut, noIn)
	}
}

func FuzzStackTablesMatchOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4))
	f.Add(int64(7), uint8(3), uint8(8))
	f.Add(int64(42), uint8(1), uint8(0))  // 1-bit cells on C_2
	f.Add(int64(5), uint8(0), uint8(255)) // 16-bit cells on C_257
	f.Add(int64(3), uint8(0), uint8(253)) // C_255: 254 hops, the most a byte lane holds
	f.Add(int64(3), uint8(0), uint8(254)) // C_256: 255 hops, built again with 16-bit lanes
	f.Fuzz(func(t *testing.T, seed int64, s, nv uint8) {
		checkRandomStack(t, seed, 1+int(s)%4, 1+int(nv)%12)
		checkRandomCycle(t, seed, 2+int(nv), int(s)%4)
	})
}
