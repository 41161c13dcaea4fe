// Package sim is a slotted-time simulator for multi-OPS networks. Its
// semantics follow the POPS / stack-Kautz literature the paper builds on:
// time advances in synchronous slots; each OPS coupler carries at most one
// message per slot per wavelength (the paper's networks have one, and
// Config.Wavelengths runs W on the same slot kernel); a transmission
// on a coupler is heard by every node on the coupler's output side; each
// node transmits at most one message per slot. Store-and-forward routing
// with per-node FIFO queues is the default; hot-potato deflection (Zhang &
// Acampora, reference [25]) is available as an ablation. A topology is
// its lists, each node's out-couplers and each coupler's heads, and the
// route blocks built from them. A stack-graph ς(s, G) and a
// point-to-point digraph (the de Bruijn single-OPS baseline of reference
// [22], every arc a degree-1 coupler, which is ς(1, G)) both become the
// one static list type. Routing and distances are precomputed once per
// topology, and once per fault event batch, by BuildRouteBlocks into
// quotient blocks whose cells index small per-row dictionaries
// (RouteBlocks), so a routing decision is one packed-cell decode.
package sim

import (
	"fmt"
	"slices"
	"sync/atomic"

	"otisnet/internal/digraph"
	"otisnet/internal/hypergraph"
)

// Topology abstracts a network for the engine: its nodes and couplers,
// who transmits on and who hears each coupler, and its routing state as
// route blocks.
type Topology interface {
	// Nodes returns the number of processors.
	Nodes() int
	// Couplers returns the number of couplers (transmission resources).
	Couplers() int
	// OutCouplers lists the couplers node u may transmit on.
	OutCouplers(u int) []int
	// Heads lists the nodes that hear a transmission on coupler c.
	Heads(c int) []int
	// RouteBlocks lends the topology's routing state: for every (u, dst),
	// Entry names the coupler a message at u bound for dst takes under
	// shortest-path routing and its next hop, and Distance the hop count.
	// The coupler is one of OutCouplers(u), or -1 when there is no route:
	// the engine bounds each coupler's senders by FanIn. The engine
	// borrows the blocks instead of copying them and never writes them; a
	// DynamicTopology may lend other blocks after each Advance or Reset,
	// and the engine re-reads them after every TopologyChange and after a
	// Reset that follows one, so the lent blocks must stay unchanged until
	// then.
	RouteBlocks() *RouteBlocks
}

// FanIn returns the topology's coupler fan-in F: the most nodes that list
// any one coupler in OutCouplers. A node makes at most one request per
// slot, on one of its out-couplers, so no coupler ever has more than F
// senders in a slot (Config.Canonical).
func FanIn(t Topology) int {
	cnt := make([]int32, t.Couplers())
	f := int32(0)
	for u := 0; u < t.Nodes(); u++ {
		for _, c := range t.OutCouplers(u) {
			cnt[c]++
			f = max(f, cnt[c])
		}
	}
	return int(f)
}

// lists is the static Topology: node u transmits on out[u] and coupler c
// is heard by heads[c], and its route blocks are built once from those
// lists by BuildRouteBlocks. A stack-graph and a point-to-point digraph
// are both given this way, so neither is kept alive by the topology.
type lists struct {
	out, heads [][]int
	blocks     RouteBlocks
	id         atomic.Pointer[Identity] // see FingerprintSlot
}

// newLists builds the route blocks of the network given by out and heads.
func newLists(out, heads [][]int) *lists {
	l := &lists{out: out, heads: heads}
	BuildRouteBlocks(&l.blocks, out, heads)
	return l
}

// NewStackTopology wraps a stack-graph for simulation: node u transmits on
// its out-arcs in ascending index and coupler c is heard by the head of
// hyperarc c. Distances are hop counts through the couplers; routing
// takes, at each hop, the coupler whose head set contains the node
// strictly closest to the destination, scanning couplers and heads in
// list order so ties break the same way in every run. All routing
// decisions are precomputed (BuildRouteBlocks). In ς(s, G) the row and
// column classes are the groups, except that groups without out-arcs
// share one row and groups without in-arcs share one column.
func NewStackTopology(sg *hypergraph.StackGraph) Topology {
	arcs := sg.Hyperarcs()
	heads := make([][]int, len(arcs))
	for c, a := range arcs {
		heads[c] = a.Head
	}
	return newLists(sg.OutArcLists(), heads)
}

// NewPointToPointTopology wraps a digraph where each arc is a dedicated
// point-to-point optical link (the single-OPS baseline): arc i is coupler
// i, transmitted on by its tail and heard by its head alone. No two nodes
// share an out-coupler or hear the same one, so its blocks come out per
// node: every class is one node, except that nodes without out-arcs (or
// in-arcs) share the class of the empty list.
func NewPointToPointTopology(g *digraph.Digraph) Topology {
	out := make([][]int, g.N())
	arcs := g.Arcs()
	head := make([]int, len(arcs))
	heads := make([][]int, len(arcs))
	for c, a := range arcs {
		head[c] = a[1]
		heads[c] = head[c : c+1]
		out[a[0]] = append(out[a[0]], c)
	}
	return newLists(out, heads)
}

// BuildRouteBlocks fills b with the routing state of the network in which
// node u transmits on out[u] and coupler c is heard by heads[c], as
// quotient blocks: rows are out-twin classes (identical out-coupler lists,
// in the same order) and columns are in-twin classes (identical lists of
// couplers heard). Each row class runs one BFS and one route scan over the
// column classes, nothing is ever expanded to per-node rows, and each row
// is packed into b as soon as its scan ends. b's arrays are reused when
// they are large enough.
func BuildRouteBlocks(b *RouteBlocks, out, heads [][]int) {
	var rb RouteBuilder
	rb.Build(b, out, heads)
}

// RouteBuilder holds the scratch of a route block build, so a caller that
// rebuilds blocks often (faults.FaultedTopology, once per event batch)
// allocates it once. The zero value is ready to use.
type RouteBuilder struct {
	heardStart, heard    []int32 // node v hears heard[heardStart[v]:heardStart[v+1]]
	rowRep, colRep       []int32 // class -> its smallest member
	colStart, colMembers []int32 // column class k: colMembers[colStart[k]:colStart[k+1]]
	kindStart, kinds     []int32 // coupler c: kinds[kindStart[c]:kindStart[c+1]]
	adjStart, adj        []int32 // column class k: adj[adjStart[k]:adjStart[k+1]]
	byList               map[uint64]int32
	seen, queue          []int32
	best                 []uint32
	vals                 []RouteCell
	d8                   []uint8
	d16                  []uint16
	d32                  []uint32
	w                    blockWriter
}

// Build is BuildRouteBlocks on rb's scratch.
func (rb *RouteBuilder) Build(b *RouteBlocks, out, heads [][]int) {
	n, m := len(out), len(heads)
	// heard lists each node's couplers in ascending order, as CSR: count,
	// then fill at advancing offsets and shift the offsets back.
	rb.heardStart = grown(rb.heardStart, n+1)
	clear(rb.heardStart)
	for _, hs := range heads {
		for _, h := range hs {
			rb.heardStart[h+1]++
		}
	}
	for v := 0; v < n; v++ {
		rb.heardStart[v+1] += rb.heardStart[v]
	}
	rb.heard = grown(rb.heard, int(rb.heardStart[n]))
	for c, hs := range heads {
		for _, h := range hs {
			rb.heard[rb.heardStart[h]] = int32(c)
			rb.heardStart[h]++
		}
	}
	copy(rb.heardStart[1:], rb.heardStart[:n])
	rb.heardStart[0] = 0

	if rb.byList == nil {
		rb.byList = map[uint64]int32{}
	}
	b.Row, rb.rowRep = twinClasses(b.Row, rb.rowRep, rb.byList, n, func(u int) []int { return out[u] })
	b.Col, rb.colRep = twinClasses(b.Col, rb.colRep, rb.byList, n, func(v int) []int32 {
		return rb.heard[rb.heardStart[v]:rb.heardStart[v+1]]
	})
	row, col := b.Row, b.Col
	cols := len(rb.colRep)

	// The members of each column class, ascending, as CSR.
	rb.colStart = grown(rb.colStart, cols+1)
	clear(rb.colStart)
	for _, k := range col {
		rb.colStart[k+1]++
	}
	for k := 0; k < cols; k++ {
		rb.colStart[k+1] += rb.colStart[k]
	}
	rb.colMembers = grown(rb.colMembers, n)
	for v, k := range col {
		rb.colMembers[rb.colStart[k]] = int32(v)
		rb.colStart[k]++
	}
	copy(rb.colStart[1:], rb.colStart[:cols])
	rb.colStart[0] = 0

	// kinds keeps, in head order, the first head of coupler c of each
	// (row, column) class pair: later heads of the same pair have the same
	// distances and hear the same couplers, so neither the BFS nor the
	// strict-< route scan can learn anything from them.
	rb.kindStart = grown(rb.kindStart, m+1)
	rb.kinds = slices.Grow(rb.kinds[:0], len(rb.heard))
	for c, hs := range heads {
		first := len(rb.kinds)
		rb.kindStart[c] = int32(first)
		for _, h := range hs {
			if !slices.ContainsFunc(rb.kinds[first:], func(k int32) bool { return row[k] == row[h] && col[k] == col[h] }) {
				rb.kinds = append(rb.kinds, int32(h))
			}
		}
	}
	rb.kindStart[m] = int32(len(rb.kinds))

	// adj lists the distinct column classes one hop from column class k:
	// the columns of the heads of every coupler a member of k transmits
	// on. Every member of a column is at the same distance from a row, so
	// the BFS expands a column once for all its members.
	rb.adjStart = grown(rb.adjStart, cols+1)
	rb.adj = rb.adj[:0]
	rb.seen = grown(rb.seen, cols) // seen[t] == k+1: t is in adj of k
	clear(rb.seen)
	for k := 0; k < cols; k++ {
		rb.adjStart[k] = int32(len(rb.adj))
		for _, v := range rb.colMembers[rb.colStart[k]:rb.colStart[k+1]] {
			for _, c := range out[v] {
				for _, h := range rb.kinds[rb.kindStart[c]:rb.kindStart[c+1]] {
					if t := col[h]; rb.seen[t] != int32(k+1) {
						rb.seen[t] = int32(k + 1)
						rb.adj = append(rb.adj, t)
					}
				}
			}
		}
	}
	rb.adjStart[cols] = int32(len(rb.adj))

	// Distances fit one byte per cell in all but networks of diameter 254
	// or more; those are built again with wider scratch.
	if !routeRows(rb, &rb.d8, b, out) && !routeRows(rb, &rb.d16, b, out) {
		routeRows(rb, &rb.d32, b, out)
	}
}

// grown returns s resliced to length n, reallocated only when its capacity
// is short. The contents are not cleared.
func grown[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// routeRows computes the distance and route of every (row class, column
// class) cell into b, keeping every row's distances in scratch, one D per
// cell with the largest D meaning unreachable. It reports false, leaving
// b's cells unwritten, when a distance does not fit D.
func routeRows[D uint8 | uint16 | uint32](rb *RouteBuilder, scratch *[]D, b *RouteBlocks, out [][]int) bool {
	far := ^D(0)
	rows, cols := len(rb.rowRep), len(rb.colRep)
	row, col := b.Row, b.Col
	*scratch = grown(*scratch, rows*cols)
	dist := *scratch
	kinds, kindStart, adj, adjStart := rb.kinds, rb.kindStart, rb.adj, rb.adjStart

	// Distances: one BFS per row class over the column classes, seeded
	// with the columns of the class's couplers at distance 1. The result
	// is D(k) = 1 + min over the heads w of the class's couplers of
	// dist(w, v) for any v in column k: dist(u, v) for every member u and
	// v != u.
	queue := slices.Grow(rb.queue[:0], cols)
	for r := 0; r < rows; r++ {
		d := dist[r*cols : (r+1)*cols]
		for k := range d {
			d[k] = far
		}
		queue = queue[:0]
		for _, c := range out[rb.rowRep[r]] {
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				if k := col[h]; d[k] == far {
					d[k] = 1
					queue = append(queue, k)
				}
			}
		}
		for i := 0; i < len(queue); i++ {
			x := d[queue[i]]
			if x == far-1 {
				return false // one more hop would not fit D
			}
			k := queue[i]
			for _, t := range adj[adjStart[k]:adjStart[k+1]] {
				if d[t] == far {
					d[t] = x + 1
					queue = append(queue, t)
				}
			}
		}
	}
	rb.queue = queue

	// Routes: one scan per row class over the class's couplers and heads,
	// in topology order with a strict < so the first strictly closest head
	// wins; best starts at the class's own distance. A head h is at
	// distance 0 from itself, and every in-twin of h hears the coupler too,
	// so the first coupler with a head in a column delivers to the whole
	// column. Each row goes to the writer as soon as its scan ends.
	rb.best = grown(rb.best, cols)
	rb.vals = grown(rb.vals, cols)
	best, vals := rb.best, rb.vals
	none := RouteCell{Route: MakeRouteEntry(-1, -1, false), Dist: digraph.Unreachable}
	rb.w.start(b, rows, cols)
	for r := 0; r < rows; r++ {
		for k, x := range dist[r*cols : (r+1)*cols] {
			best[k], vals[k] = uint32(x), none
			if x != far {
				vals[k].Dist = int32(x)
			}
		}
		for _, c := range out[rb.rowRep[r]] {
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				via := MakeRouteEntry(c, int(h), false)
				hr := int(row[h])
				for k, dh := range dist[hr*cols : (hr+1)*cols] {
					if uint32(dh) < best[k] {
						best[k] = uint32(dh)
						vals[k].Route = via
					}
				}
				if k := col[h]; best[k] > 0 {
					best[k] = 0
					vals[k].Route = MakeRouteEntry(c, -1, true)
				}
			}
		}
		rb.w.row(vals)
	}
	return true
}

// twinClasses partitions nodes 0..n-1 into classes whose coupler lists
// are identical, in the same order, reusing classOf and reps. It returns
// each node's class and each class's smallest member; classes are
// numbered by their smallest member. byList maps a hash of a list to its
// class; a colliding list that differs takes the next free hash.
func twinClasses[T int | int32](classOf, reps []int32, byList map[uint64]int32, n int, list func(u int) []T) ([]int32, []int32) {
	clear(byList)
	classOf, reps = grown(classOf, n), reps[:0]
	for u := 0; u < n; u++ {
		l := list(u)
		h := uint64(len(l))
		for _, c := range l {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
		for {
			k, ok := byList[h]
			if !ok {
				k = int32(len(reps))
				byList[h] = k
				reps = append(reps, int32(u))
			} else if !slices.Equal(list(int(reps[k])), l) {
				h++
				continue
			}
			classOf[u] = k
			break
		}
	}
	return classOf, reps
}

func (l *lists) Nodes() int              { return len(l.out) }
func (l *lists) Couplers() int           { return len(l.heads) }
func (l *lists) OutCouplers(u int) []int { return l.out[u] }
func (l *lists) Heads(c int) []int       { return l.heads[c] }

// RouteBlocks lends the engine the blocks built from the lists.
func (l *lists) RouteBlocks() *RouteBlocks { return &l.blocks }

// Identity is a topology's structural identity as the sweep cache key
// reads it: the fingerprint sweep.TopologyFingerprint computes, and the
// coupler fan-in (FanIn) the key folds wavelengths and mode by.
type Identity struct {
	Fingerprint string
	FanIn       int
}

// FingerprintSlot is where the sweep cache key keeps the topology's
// Identity once computed, so the memo is collected with the topology
// instead of pinning it in a process-wide map.
func (l *lists) FingerprintSlot() *atomic.Pointer[Identity] { return &l.id }

// CheckTopology validates basic sanity: there are at least two nodes (so
// traffic has somewhere to go), every node has at least one out coupler,
// every coupler has at least one head, and routing reaches every
// destination. Returns nil for usable topologies. Reachability is read
// from the route blocks: each node's row dictionary is tested for an
// unreachable cell, and only a row whose dictionary holds one is decoded,
// so the first failing pair, in (u, v) order, is the one reported.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	if n < 2 {
		return fmt.Errorf("sim: a network needs at least 2 nodes, this topology has %d", n)
	}
	b := t.RouteBlocks()
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if v := firstUnreachable(b, u); v >= 0 {
			return fmt.Errorf("sim: node %d cannot reach %d", u, v)
		}
	}
	for c := 0; c < t.Couplers(); c++ {
		if len(t.Heads(c)) == 0 {
			return fmt.Errorf("sim: coupler %d has no listeners", c)
		}
	}
	return nil
}

// firstUnreachable returns the first node u cannot reach in b, or -1. A
// row class's dictionary holds every distance of its row, so only a row
// whose dictionary has an unreachable cell is decoded.
func firstUnreachable(b *RouteBlocks, u int) int {
	r := int(b.Row[u])
	if !slices.ContainsFunc(b.Dict[b.Base[r]:b.Base[r+1]], func(c RouteCell) bool { return c.Dist == digraph.Unreachable }) {
		return -1 // every member of u's row class reaches every node
	}
	for v, k := range b.Col {
		if v != u && b.Cell(r, int(k)).Dist == digraph.Unreachable {
			return v
		}
	}
	return -1
}
