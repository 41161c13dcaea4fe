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
// topology, and once per fault event batch, by BuildRouteBlocks, which
// finds the distances of all row classes at once with bitset reach sets,
// one pass per hop level, into quotient blocks of two planes
// (RouteBlocks): a route plane whose cells index small per-row
// dictionaries of route entries, so a routing decision is one packed-cell
// decode, and a distance plane of raw hop distances, which only
// deflection and the checks read. The slot loop's head-of-line resolution
// reads the route plane alone: 4-bit cells for SK(4,2,10) and 2-bit cells
// for the de Bruijn B(2,12), against 4-bit distance cells for both.
package sim

import (
	"fmt"
	"math/bits"
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
// couplers heard). Distances come from reach sets, one bitset over the
// column classes per row class, which advance one hop level per pass for
// all row classes at once (see distances). Then each row class runs one
// route scan, and each row is packed into b as soon as its scan ends.
// Nothing is ever expanded to per-node rows. b's arrays are reused when
// they are large enough.
func BuildRouteBlocks(b *RouteBlocks, out, heads [][]int) {
	var rb RouteBuilder
	rb.Build(b, out, heads)
}

// RouteBuilder holds the scratch of a route block build, so a caller that
// rebuilds blocks often (faults.FaultedTopology, once per event batch)
// allocates it once. The zero value is ready to use.
type RouteBuilder struct {
	heardStart, heard []int32 // node v hears heard[heardStart[v]:heardStart[v+1]]
	rowRep, colRep    []int32 // class -> its smallest member
	kindStart, kinds  []int32 // coupler c: kinds[kindStart[c]:kindStart[c+1]]
	nextStart, next   []int32 // row class r: next[nextStart[r]:nextStart[r+1]]
	byList            map[uint64]int32
	seen              []int32
	reach             []uint64     // two hop levels of reach sets, one bitset over the columns per row
	dist              []uint64     // every cell's distance, packed in lanes (distances)
	relays            []int32      // the current row's relay heads, as their row classes
	vias              []uint64     // the current row's vias (codes into routes), a lane a cell, and the scratch its distances narrow in
	routes            []RouteEntry // the current row's possible route entries, by code
	w                 blockWriter
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
	rows := len(rb.rowRep)

	// kinds keeps, in head order, the first head of coupler c of each
	// (row, column) class pair: later heads of the same pair have the same
	// distances and hear the same couplers, so neither the reach sets nor
	// the route scan can learn anything from them.
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

	// next lists the distinct row classes one hop from row class r: the
	// rows of the heads of the couplers r transmits on. What a node reaches
	// within t hops depends only on its row, so the reach set of r grows
	// from the sets of these rows.
	rb.nextStart = grown(rb.nextStart, rows+1)
	rb.next = rb.next[:0]
	rb.seen = grown(rb.seen, rows) // seen[q] == r+1: q is in next of r
	clear(rb.seen)
	for r, u := range rb.rowRep {
		rb.nextStart[r] = int32(len(rb.next))
		for _, c := range out[u] {
			for _, h := range rb.kinds[rb.kindStart[c]:rb.kindStart[c+1]] {
				if q := row[h]; rb.seen[q] != int32(r+1) {
					rb.seen[q] = int32(r + 1)
					rb.next = append(rb.next, q)
				}
			}
		}
	}
	rb.nextStart[rows] = int32(len(rb.next))

	// Distances fit one byte per cell in all but networks of diameter 255
	// or more; those are built again with 16-bit, then 32-bit lanes.
	if !routeRows[uint8](rb, b, out) && !routeRows[uint16](rb, b, out) {
		routeRows[uint32](rb, b, out)
	}
}

// grown returns s resliced to length n, reallocated only when its capacity
// is short. The contents are not cleared.
func grown[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// lane is the type of one cell's distance in the build's scratch, where
// the distances are packed into words, 64 bits/lane of them to a word, low
// lanes first; a lane of all ones is an unreachable cell.
type lane interface{ uint8 | uint16 | uint32 }

// laneBits returns the bits of a lane of type D, a constant in every
// instance.
func laneBits[D lane]() uint { return uint(bits.Len64(uint64(^D(0)))) }

// distances fills rb.dist with the distance of every (row class, column
// class) cell, in lanes of type D, stride words a row, and returns the
// largest. It reports false when a distance does not fit a lane.
//
// The column classes row class r reaches within t hops form its reach
// set R_t(r): the columns of r's heads and, for t > 1, R_{t-1}(q) of
// every row q in next(r). A cell's distance is the first t whose R_t
// holds it. R_t(r) = R_{t-1}(r) ∪ ⋃ R_{t-1}(q), so each pass derives
// every row's level-t set from the level t-1 sets with word-wide ORs and
// records the distance of the bits it adds, and the passes end when no
// set grows, after at most diameter+1 of them: O(diameter × rows ×
// |next| × cols/64) word operations. The two levels of sets take a
// quarter of the bytes of the 8-bit distances.
func distances[D lane](rb *RouteBuilder, out [][]int, col []int32) (int, bool) {
	far, lb := uint64(^D(0)), int(laneBits[D]())
	rows, cols := len(rb.rowRep), len(rb.colRep)
	stride, words := (cols*lb+63)/64, (cols+63)/64
	rb.dist = grown(rb.dist, rows*stride)
	for i := range rb.dist {
		rb.dist[i] = ^uint64(0)
	}
	dist, kinds, kindStart := rb.dist, rb.kinds, rb.kindStart
	rb.reach = grown(rb.reach, 2*rows*words)
	cur, nxt := rb.reach[:rows*words], rb.reach[rows*words:]
	clear(cur)
	maxd := 0
	for r, u := range rb.rowRep {
		set := cur[r*words : r*words+words]
		for _, c := range out[u] {
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				set[col[h]>>6] |= 1 << (col[h] & 63)
			}
		}
		for i, x := range set {
			if x != 0 {
				maxd = 1
				setLanes[D](dist[r*stride+i*lb:], x, far^1)
			}
		}
	}
	for t := uint64(2); ; t++ {
		grew := false
		for r := 0; r < rows; r++ {
			own, set := cur[r*words:r*words+words], nxt[r*words:r*words+words]
			copy(set, own)
			for _, q := range rb.next[rb.nextStart[r]:rb.nextStart[r+1]] {
				for i, x := range cur[int(q)*words : int(q)*words+words] {
					set[i] |= x
				}
			}
			for i, x := range set {
				if fresh := x &^ own[i]; fresh != 0 {
					if t == far {
						return 0, false
					}
					grew = true
					setLanes[D](dist[r*stride+i*lb:], fresh, far^t)
				}
			}
		}
		if !grew {
			return maxd, true
		}
		maxd = int(t)
		cur, nxt = nxt, cur
	}
}

// laneSpread[i][m] has the low bit of lane j set for every bit j of m,
// for lanes 8<<i bits wide. It is an array, so it stays off the heap.
var laneSpread = func() (t [3][256]uint64) {
	for i := range t {
		lb, per := 8<<i, 8>>i
		for m := 0; m < 1<<per; m++ {
			for j := 0; j < per; j++ {
				t[i][m] |= uint64(m>>j&1) << (j * lb)
			}
		}
	}
	return t
}()

// setLanes XORs x into the lane of d of type D of every bit of fresh: bit
// j is lane j. A lane that held all ones then holds the distance x was
// made from.
func setLanes[D lane](d []uint64, fresh, x uint64) {
	lb := laneBits[D]()
	per := 64 / lb
	m := uint64(1)<<per - 1
	spread := &laneSpread[bits.Len(lb)-4]
	for j := 0; fresh != 0; j++ {
		d[j] ^= spread[fresh&m] * x
		fresh >>= per
	}
}

// zeroLanes returns the high bit of every lane of z that is zero, where
// low is a word with every bit set but the lanes' high bits.
func zeroLanes(z, low uint64) uint64 { return ^((z&low + low) | z) &^ low }

// routeRows computes the distance and route of every (row class, column
// class) cell into b, with distances in lanes of type D. It reports false
// when a distance, or the number of ways out of a row class, does not fit
// a lane; b is then only part written, and a build with wider lanes
// starts it over.
func routeRows[D lane](rb *RouteBuilder, b *RouteBlocks, out [][]int) bool {
	maxd, ok := distances[D](rb, out, b.Col)
	if !ok {
		return false
	}
	far, lb := uint64(^D(0)), laneBits[D]()
	ones := ^uint64(0) / far
	low := ^(ones << (lb - 1))
	rows, cols := len(rb.rowRep), len(rb.colRep)
	stride := (cols*int(lb) + 63) / 64
	dist, row, col, kinds, kindStart := rb.dist, b.Row, b.Col, rb.kinds, rb.kindStart
	rb.vias = grown(rb.vias, 2*stride)
	vias, folded := rb.vias[:stride], rb.vias[stride:]
	rb.w.start(b, rows, cols, maxd)
	dw := uint(b.DistWidth())
	for r, u := range rb.rowRep {
		// The row's ways out, by via: 0 is no route, 1+p delivers on
		// out[u][p], and 1+len(out[u])+j relays through the row's j-th head
		// in list order. Its route cells are coded by their via, in the
		// lanes of vias.
		ds := len(out[u])
		rb.relays = rb.relays[:0]
		for _, c := range out[u] {
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				rb.relays = append(rb.relays, row[h])
			}
		}
		if uint64(1+ds+len(rb.relays)) > far {
			return false
		}
		rb.routes = grown(rb.routes, 1+ds+len(rb.relays))
		routes := rb.routes
		routes[0] = MakeRouteEntry(-1, -1, false)
		j := 1 + ds
		for p, c := range out[u] {
			routes[1+p] = MakeRouteEntry(c, -1, true)
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				routes[j] = MakeRouteEntry(c, int(h), false)
				j++
			}
		}

		// Relays: a cell at distance D >= 2 goes through the first head in
		// list order at distance D-1 from its column. Each distance word is
		// matched against the heads' words, all its lanes at once, and the
		// vias found go to the same lanes of vias; unreachable lanes, and
		// the distance-1 lanes the deliveries take below, keep via 0.
		drow := dist[r*stride : (r+1)*stride]
		for w, x := range drow {
			pend := ^(zeroLanes(^x, low) | zeroLanes(x^ones, low) | low)
			target, v := x-ones, uint64(0)
			for j, q := range rb.relays {
				hit := zeroLanes(dist[int(q)*stride+w]^target, low) & pend
				pend &^= hit
				v |= hit >> (lb - 1) * uint64(1+ds+j)
			}
			vias[w] = v
		}
		narrowLanes(b.Dists, uint(r*cols)*dw, dw, drow, lb, cols, folded)
		// Deliveries: a head h is at distance 0 from itself, and every
		// in-twin of h hears the coupler too, so the first coupler with a
		// head in a column delivers to the whole column. Writing the
		// couplers last to first leaves the first.
		for p := ds - 1; p >= 0; p-- {
			c := out[u][p]
			for _, h := range kinds[kindStart[c]:kindStart[c+1]] {
				at := uint(col[h]) * lb
				w := &vias[at>>6]
				*w = *w&^(far<<(at&63)) | uint64(1+p)<<(at&63)
			}
		}
		rb.w.row(vias, lb, routes)
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
// from the distance plane of the route blocks: each row class's cells are
// tested for an unreachable one a word at a time, and only the nodes of a
// row class that holds one are decoded, so the first failing pair, in
// (u, v) order, is the one reported.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	if n < 2 {
		return fmt.Errorf("sim: a network needs at least 2 nodes, this topology has %d", n)
	}
	b := t.RouteBlocks()
	cut := unreachableRows(b)
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if !cut[b.Row[u]] {
			continue // every member of u's row class reaches every node
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

// unreachableRows reports, for every row class of b, whether its row of
// the distance plane holds an unreachable (all-ones) cell, testing the
// cells of a word at once.
func unreachableRows(b *RouteBlocks) []bool {
	width := uint(b.DistWidth())
	low := ^(^uint64(0) / cellMask(b.DistShift) << (width - 1))
	cut := make([]bool, b.Rows())
	for r := range cut {
		from, to := uint(r*b.Cols)*width, uint(r*b.Cols+b.Cols)*width
		for bit := from; bit < to && !cut[r]; bit = bit&^63 + 64 {
			in := ^uint64(0) << (bit & 63) // the row's cells in this word
			if end := to - bit&^63; end < 64 {
				in &= 1<<end - 1
			}
			cut[r] = zeroLanes(^b.Dists[bit>>6], low)&in != 0
		}
	}
	return cut
}

// firstUnreachable returns the first node u cannot reach in b, or -1.
func firstUnreachable(b *RouteBlocks, u int) int {
	r := int(b.Row[u])
	for v, k := range b.Col {
		if v != u && b.dist(r, int(k)) == digraph.Unreachable {
			return v
		}
	}
	return -1
}
