// Package sim is a slotted-time simulator for single-wavelength multi-OPS
// networks. Its semantics follow the POPS / stack-Kautz literature the
// paper builds on: time advances in synchronous slots; each OPS coupler
// carries at most one message per slot (single wavelength); a transmission
// on a coupler is heard by every node on the coupler's output side; each
// node transmits at most one message per slot. Store-and-forward routing
// with per-node FIFO queues is the default; hot-potato deflection (Zhang &
// Acampora, reference [25]) is available as an ablation. Point-to-point
// digraph networks (the de Bruijn single-OPS baseline of reference [22])
// are simulated through the same interface by viewing every arc as a
// degree-1 coupler.
package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"otisnet/internal/digraph"
	"otisnet/internal/hypergraph"
)

// Topology abstracts a network for the engine: nodes, couplers, and a
// routing oracle.
type Topology interface {
	// Nodes returns the number of processors.
	Nodes() int
	// Couplers returns the number of couplers (transmission resources).
	Couplers() int
	// OutCouplers lists the couplers node u may transmit on.
	OutCouplers(u int) []int
	// Heads lists the nodes that hear a transmission on coupler c.
	Heads(c int) []int
	// NextCoupler returns the coupler a message at u bound for dst should
	// take under shortest-path routing, and the preferred next-hop node.
	// The coupler is one of OutCouplers(u), or -1 when there is no route:
	// the engine bounds each coupler's senders by FanIn.
	NextCoupler(u, dst int) (coupler, nextHop int)
	// Distance returns the hop distance from u to dst.
	Distance(u, dst int) int
}

// stackTopology adapts a stack-graph (multi-OPS network) with precomputed
// shortest-path distance and routing blocks.
type stackTopology struct {
	sg     *hypergraph.StackGraph
	out    [][]int
	blocks RouteBlocks
	id     atomic.Pointer[Identity] // see FingerprintSlot
}

// NewStackTopology wraps a stack-graph for simulation. Distances are hop
// counts through the couplers; routing takes, at each hop, the coupler
// whose head set contains the node strictly closest to the destination,
// scanning couplers and heads in topology order so ties break the same way
// in every run. All routing decisions are precomputed (BuildRouteBlocks) so
// the per-slot NextCoupler call is a table lookup. In ς(s, G) the row and
// column classes are the groups, except that groups without out-arcs share
// one row and groups without in-arcs share one column.
func NewStackTopology(sg *hypergraph.StackGraph) Topology {
	st := &stackTopology{sg: sg, out: sg.OutArcLists()}
	arcs := sg.Hyperarcs()
	heads := make([][]int, len(arcs))
	for c, a := range arcs {
		heads[c] = a.Head
	}
	BuildRouteBlocks(&st.blocks, st.out, heads)
	return st
}

// BuildRouteBlocks fills b with the routing state of the network in which
// node u transmits on out[u] and coupler c is heard by heads[c], as
// quotient blocks: rows are out-twin classes (identical out-coupler lists,
// in the same order) and columns are in-twin classes (identical lists of
// couplers heard). Each row class runs one BFS and one route scan over the
// column classes, and nothing is ever expanded to per-node rows. b's route
// and distance arrays are reused when they are large enough.
func BuildRouteBlocks(b *RouteBlocks, out, heads [][]int) {
	heard := make([][]int, len(out))
	for c, hs := range heads {
		for _, h := range hs {
			heard[h] = append(heard[h], c)
		}
	}
	row, rowMembers := twinClasses(out)
	col, colMembers := twinClasses(heard)
	rows, cols := len(rowMembers), len(colMembers)
	b.Row, b.Col, b.Cols = row, col, cols
	b.Routes = slices.Grow(b.Routes[:0], rows*cols)[:rows*cols]
	b.Dists = slices.Grow(b.Dists[:0], rows*cols)[:rows*cols]

	// kinds[c] keeps, in head order, the first head of coupler c of each
	// (row, column) class pair: later heads of the same pair have the same
	// distances and hear the same couplers, so neither the BFS nor the
	// strict-< route scan can learn anything from them. classOut[k] lists
	// the couplers the members of column class k transmit on, one out list
	// per distinct row class among them.
	kinds := make([][]int32, len(heads))
	for c, hs := range heads {
		for _, h := range hs {
			if !slices.ContainsFunc(kinds[c], func(k int32) bool { return row[k] == row[h] && col[k] == col[h] }) {
				kinds[c] = append(kinds[c], int32(h))
			}
		}
	}
	classOut := make([][]int, cols)
	rowSeen := make([]int, rows) // rowSeen[r] == k+1: column class k took row r's list
	for k, members := range colMembers {
		for _, v := range members {
			if rowSeen[row[v]] != k+1 {
				rowSeen[row[v]] = k + 1
				classOut[k] = append(classOut[k], out[v]...)
			}
		}
	}

	// Distances: one BFS per row class over the column classes, seeded
	// with the columns of the class's couplers at distance 1. Every member
	// of a column class is at the same distance, so a dequeued column
	// expands the couplers of all its members at once, and each coupler is
	// expanded from its first dequeued column only. The result is
	// D(k) = 1 + min over the heads w of the class's couplers of dist(w, v)
	// for any v in column k: dist(u, v) for every member u and v != u.
	queue := make([]int32, 0, cols)
	expanded := make([]int, len(heads)) // expanded[c] == r+1: row class r's BFS used c
	for r, members := range rowMembers {
		d := b.Dists[r*cols : (r+1)*cols]
		for k := range d {
			d[k] = digraph.Unreachable
		}
		queue = queue[:0]
		reach := func(c int, dist int32) {
			expanded[c] = r + 1
			for _, h := range kinds[c] {
				if k := col[h]; d[k] == digraph.Unreachable {
					d[k] = dist
					queue = append(queue, k)
				}
			}
		}
		for _, c := range out[members[0]] {
			reach(c, 1)
		}
		for i := 0; i < len(queue); i++ {
			k := queue[i]
			for _, c := range classOut[k] {
				if expanded[c] != r+1 {
					reach(c, d[k]+1)
				}
			}
		}
	}

	// Routes: one scan per row class over the class's couplers and heads,
	// in topology order with a strict < so the first strictly closest head
	// wins; bestDist starts at the class's own distance. A head h is at
	// distance 0 from itself, and every in-twin of h hears the coupler too,
	// so the first coupler with a head in a column delivers to the whole
	// column.
	best := make([]int32, cols)
	for r, members := range rowMembers {
		routes := b.Routes[r*cols : (r+1)*cols]
		copy(best, b.Dists[r*cols:(r+1)*cols])
		for k := range routes {
			routes[k] = MakeRouteEntry(-1, -1, false)
		}
		for _, c := range out[members[0]] {
			for _, h := range kinds[c] {
				hr := int(row[h])
				for k, dh := range b.Dists[hr*cols : (hr+1)*cols] {
					if dh != digraph.Unreachable && dh < best[k] {
						best[k] = dh
						routes[k] = MakeRouteEntry(c, int(h), false)
					}
				}
				if k := col[h]; best[k] > 0 {
					best[k] = 0
					routes[k] = MakeRouteEntry(c, int(h), true)
				}
			}
		}
	}
}

// twinClasses partitions the nodes into classes whose coupler lists are
// identical, in the same order. It returns each node's class and each
// class's members, in ascending order; classes are numbered by their
// smallest member. A list's key is its couplers as concatenated uvarints,
// which no other list shares.
func twinClasses(lists [][]int) ([]int32, [][]int) {
	classOf := make([]int32, len(lists))
	var members [][]int
	byList := map[string]int32{} // encoded coupler list -> class id
	var key []byte
	for u, list := range lists {
		key = key[:0]
		for _, c := range list {
			key = binary.AppendUvarint(key, uint64(c))
		}
		k, ok := byList[string(key)]
		if !ok {
			k = int32(len(members))
			byList[string(key)] = k
			members = append(members, nil)
		}
		classOf[u] = k
		members[k] = append(members[k], u)
	}
	return classOf, members
}

func (st *stackTopology) Nodes() int              { return st.sg.N() }
func (st *stackTopology) Couplers() int           { return st.sg.M() }
func (st *stackTopology) OutCouplers(u int) []int { return st.out[u] }
func (st *stackTopology) Heads(c int) []int       { return st.sg.Hyperarc(c).Head }

func (st *stackTopology) Distance(u, dst int) int { return st.blocks.Distance(u, dst) }

// RouteBlocks lends the engine the quotient blocks (BlockTabled).
func (st *stackTopology) RouteBlocks() *RouteBlocks { return &st.blocks }

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
func (st *stackTopology) FingerprintSlot() *atomic.Pointer[Identity] { return &st.id }

func (st *stackTopology) NextCoupler(u, dst int) (int, int) {
	r := st.blocks.Entry(u, dst)
	return r.Coupler(), r.NextHop()
}

// pointToPoint adapts a digraph as a single-OPS-per-arc network: every arc
// is its own degree-1 coupler. No two nodes share an out-coupler or hear
// the same one, so its blocks come out per node: every class is one node,
// except that nodes without out-arcs (or in-arcs) share the class of the
// empty list.
type pointToPoint struct {
	g      *digraph.Digraph
	out    [][]int // coupler ids per node
	head   []int   // head node per coupler
	blocks RouteBlocks
	id     atomic.Pointer[Identity] // see FingerprintSlot
}

// NewPointToPointTopology wraps a digraph where each arc is a dedicated
// point-to-point optical link (the single-OPS baseline). Routing decisions
// are precomputed by BuildRouteBlocks, as for stack topologies.
func NewPointToPointTopology(g *digraph.Digraph) Topology {
	pt := &pointToPoint{g: g, out: make([][]int, g.N())}
	for _, a := range g.Arcs() {
		c := len(pt.head)
		pt.head = append(pt.head, a[1])
		pt.out[a[0]] = append(pt.out[a[0]], c)
	}
	heads := make([][]int, len(pt.head))
	for c := range heads {
		heads[c] = pt.head[c : c+1]
	}
	BuildRouteBlocks(&pt.blocks, pt.out, heads)
	return pt
}

func (pt *pointToPoint) Nodes() int              { return pt.g.N() }
func (pt *pointToPoint) Couplers() int           { return len(pt.head) }
func (pt *pointToPoint) OutCouplers(u int) []int { return pt.out[u] }
func (pt *pointToPoint) Heads(c int) []int       { return pt.head[c : c+1] }
func (pt *pointToPoint) Distance(u, dst int) int { return pt.blocks.Distance(u, dst) }

// RouteBlocks lends the engine the per-node blocks (BlockTabled).
func (pt *pointToPoint) RouteBlocks() *RouteBlocks { return &pt.blocks }

// FingerprintSlot holds the topology's Identity, as for stack topologies.
func (pt *pointToPoint) FingerprintSlot() *atomic.Pointer[Identity] { return &pt.id }

func (pt *pointToPoint) NextCoupler(u, dst int) (int, int) {
	r := pt.blocks.Entry(u, dst)
	return r.Coupler(), r.NextHop()
}

// CheckTopology validates basic sanity: there are at least two nodes (so
// traffic has somewhere to go), every node has at least one out coupler,
// every coupler has at least one head, and routing reaches every
// destination. Returns nil for usable topologies. A BlockTabled topology
// has its distance blocks scanned directly instead of through N² Distance
// calls; either way the first failing pair, in (u, v) order, is the one
// reported.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	if n < 2 {
		return fmt.Errorf("sim: a network needs at least 2 nodes, this topology has %d", n)
	}
	var blocks *RouteBlocks
	if bt, ok := t.(BlockTabled); ok {
		blocks = bt.RouteBlocks()
	}
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if v := firstUnreachable(t, blocks, u); v >= 0 {
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

// firstUnreachable returns the first node u cannot reach, or -1. It reads
// the blocks when the topology lends them, and calls Distance otherwise.
func firstUnreachable(t Topology, b *RouteBlocks, u int) int {
	if b != nil {
		r := int(b.Row[u])
		dists := b.Dists[r*b.Cols : (r+1)*b.Cols]
		if !slices.Contains(dists, digraph.Unreachable) {
			return -1 // every member of u's row class reaches every node
		}
		for v, k := range b.Col {
			if dists[k] == digraph.Unreachable && v != u {
				return v
			}
		}
		return -1
	}
	for v, n := 0, t.Nodes(); v < n; v++ {
		if v != u && t.Distance(u, v) == digraph.Unreachable {
			return v
		}
	}
	return -1
}
