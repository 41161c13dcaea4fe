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
	"fmt"
	"slices"

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
	NextCoupler(u, dst int) (coupler, nextHop int)
	// Distance returns the hop distance from u to dst.
	Distance(u, dst int) int
}

// buildRouteTable precomputes route[u][dst] for every ordered pair using
// the provided per-pair oracle, turning NextCoupler into an O(1) lookup on
// the simulation hot path. The oracle is only consulted once per pair, at
// construction time. It returns both the row views and the flat backing
// array, which RouteTable hands to the engine as its compiled route table.
// The delivers-here bit is packed from nextHop == dst: the routing scans
// pick the strictly closest head, and only the destination itself is at
// distance 0, so the chosen next hop is dst exactly when dst hears the
// chosen coupler. NewStackTopology packs its entries the same way.
func buildRouteTable(n int, next func(u, dst int) (int, int)) ([][]RouteEntry, []RouteEntry) {
	route := make([][]RouteEntry, n)
	flat := make([]RouteEntry, n*n) // one backing array, n row views
	for u := 0; u < n; u++ {
		row := flat[u*n : (u+1)*n : (u+1)*n]
		for dst := 0; dst < n; dst++ {
			c, hop := next(u, dst)
			row[dst] = MakeRouteEntry(c, hop, c >= 0 && hop == dst)
		}
		route[u] = row
	}
	return route, flat
}

// stackTopology adapts a stack-graph (multi-OPS network) with precomputed
// shortest-path distance and routing tables.
type stackTopology struct {
	sg        *hypergraph.StackGraph
	out       [][]int
	dist      [][]int // dist[u][v]: hop distance through the couplers
	route     [][]RouteEntry
	routeFlat []RouteEntry // backing array of route, lent to the engine
}

// NewStackTopology wraps a stack-graph for simulation. Distances are hop
// counts through the couplers; routing takes, at each hop, the coupler
// whose head set contains the node strictly closest to the destination,
// scanning couplers and heads in topology order so ties break the same way
// in every run. All routing decisions are precomputed so the per-slot
// NextCoupler call is a table lookup.
//
// The tables are built once per twin class: nodes with identical
// out-coupler lists, which in ς(s, G) are exactly the groups. Twins see the
// same distances to every other node and make the same routing choices, so
// each class runs one BFS and one route scan, and every member's rows are
// copies of the class rows with the member's own entry fixed.
func NewStackTopology(sg *hypergraph.StackGraph) Topology {
	n := sg.N()
	st := &stackTopology{sg: sg, out: sg.OutArcLists()}
	arcs := sg.Hyperarcs()
	classes := twinClasses(st.out)

	// Distances: one BFS per class, seeded with every head of the class's
	// couplers at distance 1, gives D(v) = 1 + min over those heads w of
	// dist(w, v), which is dist(u, v) for each member u and every v != u.
	// self[u] keeps D(u), the member's return distance, for the route scan.
	st.dist = make([][]int, n)
	self := make([]int, n)
	queue := make([]int, 0, n)
	expanded := make([]int, sg.M()) // expanded[c] == k+1: class k's BFS used c
	for k, members := range classes {
		d := make([]int, n)
		for v := range d {
			d[v] = digraph.Unreachable
		}
		queue = queue[:0]
		for _, c := range st.out[members[0]] {
			expanded[c] = k + 1
			for _, h := range arcs[c].Head {
				if d[h] == digraph.Unreachable {
					d[h] = 1
					queue = append(queue, h)
				}
			}
		}
		// A coupler is expanded from its first dequeued tail only: BFS
		// dequeues in distance order, so later tails cannot improve a head.
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			for _, c := range st.out[x] {
				if expanded[c] == k+1 {
					continue
				}
				expanded[c] = k + 1
				for _, h := range arcs[c].Head {
					if d[h] == digraph.Unreachable {
						d[h] = d[x] + 1
						queue = append(queue, h)
					}
				}
			}
		}
		for i, u := range members {
			self[u] = d[u]
			row := d // the first member keeps the BFS row itself
			if i > 0 {
				row = slices.Clone(d)
			}
			st.dist[u] = row
		}
		for _, u := range members {
			st.dist[u][u] = 0
		}
	}

	// Routes: one scan per class over the class's couplers and heads, in
	// topology order with a strict < so the first strictly closest head
	// wins. Heads are the outer loop so each reads its distance row once.
	st.route = make([][]RouteEntry, n)
	st.routeFlat = make([]RouteEntry, n*n)
	best := make([]int, n)
	r := make([]RouteEntry, n)
	for _, members := range classes {
		u0 := members[0]
		copy(best, st.dist[u0])
		best[u0] = self[u0]
		for dst := range r {
			r[dst] = MakeRouteEntry(-1, -1, false)
		}
		for _, c := range st.out[u0] {
			for _, h := range arcs[c].Head {
				for dst, dh := range st.dist[h] {
					if dh != digraph.Unreachable && dh < best[dst] {
						best[dst] = dh
						r[dst] = MakeRouteEntry(c, h, h == dst)
					}
				}
			}
		}
		for _, u := range members {
			row := st.routeFlat[u*n : (u+1)*n : (u+1)*n]
			copy(row, r)
			row[u] = MakeRouteEntry(-1, u, false)
			st.route[u] = row
		}
	}
	return st
}

// twinClasses partitions the nodes into classes whose out-coupler lists
// are identical, in the same order. Members are listed in ascending order.
func twinClasses(out [][]int) [][]int {
	var classes [][]int
	byList := map[string]int{} // printed out-coupler list -> class id
	for u, list := range out {
		key := fmt.Sprint(list)
		k, ok := byList[key]
		if !ok {
			k = len(classes)
			byList[key] = k
			classes = append(classes, nil)
		}
		classes[k] = append(classes[k], u)
	}
	return classes
}

func (st *stackTopology) Nodes() int              { return st.sg.N() }
func (st *stackTopology) Couplers() int           { return st.sg.M() }
func (st *stackTopology) OutCouplers(u int) []int { return st.out[u] }
func (st *stackTopology) Heads(c int) []int       { return st.sg.Hyperarc(c).Head }

func (st *stackTopology) Distance(u, dst int) int { return st.dist[u][dst] }

// RouteTable lends the engine the flat route table (RouteTabled).
func (st *stackTopology) RouteTable() []RouteEntry { return st.routeFlat }

// DistanceRows lends the engine the per-source distance rows
// (DistanceRowed).
func (st *stackTopology) DistanceRows() [][]int { return st.dist }

func (st *stackTopology) NextCoupler(u, dst int) (int, int) {
	r := st.route[u][dst]
	return r.Coupler(), r.NextHop()
}

// pointToPoint adapts a digraph as a single-OPS-per-arc network: every arc
// is its own degree-1 coupler.
type pointToPoint struct {
	g         *digraph.Digraph
	out       [][]int // coupler ids per node
	head      []int   // head node per coupler
	dist      [][]int
	route     [][]RouteEntry
	routeFlat []RouteEntry
}

// NewPointToPointTopology wraps a digraph where each arc is a dedicated
// point-to-point optical link (the single-OPS baseline). Routing decisions
// are precomputed into a full table, as for stack topologies.
func NewPointToPointTopology(g *digraph.Digraph) Topology {
	pt := &pointToPoint{g: g}
	pt.out = make([][]int, g.N())
	for _, a := range g.Arcs() {
		c := len(pt.head)
		pt.head = append(pt.head, a[1])
		pt.out[a[0]] = append(pt.out[a[0]], c)
	}
	pt.dist = make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		pt.dist[u] = g.BFS(u)
	}
	pt.route, pt.routeFlat = buildRouteTable(g.N(), pt.scanNextCoupler)
	return pt
}

func (pt *pointToPoint) Nodes() int              { return pt.g.N() }
func (pt *pointToPoint) Couplers() int           { return len(pt.head) }
func (pt *pointToPoint) OutCouplers(u int) []int { return pt.out[u] }
func (pt *pointToPoint) Heads(c int) []int       { return pt.head[c : c+1] }
func (pt *pointToPoint) Distance(u, dst int) int { return pt.dist[u][dst] }

// RouteTable lends the engine the flat route table (RouteTabled).
func (pt *pointToPoint) RouteTable() []RouteEntry { return pt.routeFlat }

// DistanceRows lends the engine the per-source distance rows
// (DistanceRowed).
func (pt *pointToPoint) DistanceRows() [][]int { return pt.dist }

func (pt *pointToPoint) NextCoupler(u, dst int) (int, int) {
	r := pt.route[u][dst]
	return r.Coupler(), r.NextHop()
}

// scanNextCoupler is the construction-time oracle: first out-arc whose head
// is strictly closer to the destination (same tie-break as before).
func (pt *pointToPoint) scanNextCoupler(u, dst int) (int, int) {
	if u == dst {
		return -1, u
	}
	cur := pt.dist[u][dst]
	for _, c := range pt.out[u] {
		h := pt.head[c]
		if d := pt.dist[h][dst]; d != digraph.Unreachable && d < cur {
			return c, h
		}
	}
	return -1, -1
}

// CheckTopology validates basic sanity: every node has at least one out
// coupler, every coupler has at least one head, and routing reaches every
// destination. Returns nil for usable topologies. A DistanceRowed topology
// has its lent rows scanned directly instead of through N² Distance calls;
// either way the first failing pair, in (u, v) order, is the one reported.
func CheckTopology(t Topology) error {
	n := t.Nodes()
	var rows [][]int
	if dr, ok := t.(DistanceRowed); ok {
		rows = dr.DistanceRows()
	}
	for u := 0; u < n; u++ {
		if len(t.OutCouplers(u)) == 0 {
			return fmt.Errorf("sim: node %d cannot transmit", u)
		}
		if v := firstUnreachable(t, rows, u); v >= 0 {
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
// rows when the topology lends them, and calls Distance otherwise.
func firstUnreachable(t Topology, rows [][]int, u int) int {
	if rows != nil {
		for v, d := range rows[u] {
			if d == digraph.Unreachable && v != u {
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
