package sim

// Compiled-topology snapshot: the engine does not call any Topology method
// inside Step. At construction the topology is compiled into flat arrays —
// CSR out-coupler and head lists, and route/distance blocks (RouteBlocks)
// of packed entries with a delivers-here bit, one cell per (row class,
// column class) pair — and the step loop reads only those. Topologies that
// already keep their tables as blocks (the stack, point-to-point and
// fault-wrapped topologies) lend the snapshot their arrays, so compilation
// is O(n + m + arcs); a dynamic topology may lend other blocks after an
// event, and the snapshot re-reads them after every TopologyChange.
// Arbitrary Topology implementations are compiled into per-node blocks by
// querying the interface once per (u, dst) pair (ExpandTopology).

// deliverFlag marks a RouteEntry whose destination hears the chosen
// coupler, so delivery needs no head-set scan on the hot path.
const deliverFlag = 1 << 30

// RouteEntry is a packed, precompiled routing decision: the coupler to
// request, the preferred next-hop node, and whether the destination itself
// hears that coupler (the delivers-here bit). The zero value is an
// unroutable entry pointing at node 0; build entries with MakeRouteEntry.
type RouteEntry struct {
	c int32 // coupler id, deliverFlag-tagged; -1 when no route exists
	h int32 // preferred next hop; unused when delivers is set (see RouteBlocks)
}

// MakeRouteEntry packs one routing decision. coupler < 0 means no route
// (or "already there" when nextHop equals the source).
func MakeRouteEntry(coupler, nextHop int, delivers bool) RouteEntry {
	if coupler < 0 {
		return RouteEntry{c: -1, h: int32(nextHop)}
	}
	c := int32(coupler)
	if delivers {
		c |= deliverFlag
	}
	return RouteEntry{c: c, h: int32(nextHop)}
}

// Coupler returns the coupler to request, or -1 when no route exists.
func (r RouteEntry) Coupler() int {
	if r.c < 0 {
		return -1
	}
	return int(r.c &^ deliverFlag)
}

// NextHop returns the preferred next-hop node.
func (r RouteEntry) NextHop() int { return int(r.h) }

// Delivers reports whether the destination hears the chosen coupler.
func (r RouteEntry) Delivers() bool { return r.c >= 0 && r.c&deliverFlag != 0 }

// RouteBlocks is the quotient form of a topology's routing state. In the
// paper's ς(s, G) every member of a group transmits on the same couplers
// and hears the same couplers, so a routing decision depends only on the
// source's group and the destination's group. RouteBlocks generalizes
// that: each node has a row class and a column class, and for u != dst
//
//	route(u, dst) = Routes[Row[u]*Cols + Col[dst]]
//	dist(u, dst)  = Dists[Row[u]*Cols + Col[dst]]
//
// with dist(u, u) = 0. Stack topologies use out-twins as rows (identical
// out-coupler lists in the same order) and in-twins as columns (identical
// lists of couplers heard); the (Row[u], Col[u]) cell then holds u's
// route and distance to its twins. A delivering cell names the coupler
// only: its next hop is the destination itself, whichever member of the
// column that is (Entry expands it). BuildRouteBlocks computes these
// blocks from the out-coupler and head lists of any network. Identity
// classes — one row and one column per node — give plain per-node n×n
// tables, which is what ExpandTopology fills.
type RouteBlocks struct {
	Row, Col []int32 // node -> row class, node -> column class
	Cols     int
	Routes   []RouteEntry // rows × Cols routing decisions
	Dists    []int32      // rows × Cols hop distances, digraph.Unreachable = -1
}

// IdentityBlocks allocates per-node blocks for n nodes: row and column
// class of node u are both u, so cell (u, dst) is the entry for (u, dst).
func IdentityBlocks(n int) RouteBlocks {
	id := make([]int32, n)
	for u := range id {
		id[u] = int32(u)
	}
	return RouteBlocks{Row: id, Col: id, Cols: n, Routes: make([]RouteEntry, n*n), Dists: make([]int32, n*n)}
}

// Entry returns the routing decision for (u, dst) in per-node form: the
// "already there" entry when u == dst, and a delivering entry's next hop
// set to dst.
func (b *RouteBlocks) Entry(u, dst int) RouteEntry {
	if u == dst {
		return RouteEntry{c: -1, h: int32(u)}
	}
	r := b.Routes[int(b.Row[u])*b.Cols+int(b.Col[dst])]
	if r.Delivers() {
		r.h = int32(dst)
	}
	return r
}

// Distance returns the hop distance from u to dst.
func (b *RouteBlocks) Distance(u, dst int) int {
	if u == dst {
		return 0
	}
	return int(b.Dists[int(b.Row[u])*b.Cols+int(b.Col[dst])])
}

// BlockTabled is implemented by topologies that keep their routing state
// as RouteBlocks. The snapshot borrows the blocks instead of copying them
// and never writes them. A dynamic topology may lend different blocks
// after each Advance or Reset (faults.FaultedTopology rebuilds them per
// event batch); the snapshot re-reads RouteBlocks after every
// TopologyChange and after a Reset that follows one, so the lent blocks
// must stay unchanged until then.
type BlockTabled interface {
	RouteBlocks() *RouteBlocks
}

// CompiledTopology is the flat, step-ready form of a Topology: CSR
// out-coupler and head lists and the route/distance blocks. Each Engine
// owns one; after a fault event on a dynamic topology it re-reads the
// structure and the blocks (recompileDynamic).
type CompiledTopology struct {
	topo Topology
	n, m int

	outStart  []int32 // node u transmits on outList[outStart[u]:outStart[u]+outCount[u]]
	outCount  []int32
	outList   []int32
	headStart []int32 // coupler c is heard by headList[headStart[c]:headStart[c]+headCount[c]]
	headCount []int32
	headList  []int32
	blocks    RouteBlocks
	// fanIn bounds the senders any one coupler can have in a slot: the
	// largest FanIn of every structure the snapshot has held (fanCount is
	// its scratch). Compile starts from the pristine structure and fault
	// masks only shrink it, so this is the pristine fan-in.
	fanIn    int
	fanCount []int32

	// dirty records that a topology event mutated the snapshot since the
	// last sync, so a Reset recompiles only when something actually changed.
	dirty bool
}

// Compile builds the flat snapshot of a topology. A topology that also
// implements DynamicTopology is reset to its pre-event state first, so the
// snapshot covers the full (pristine) structure and the CSR slot
// capacities fit the largest live structure.
func Compile(topo Topology) *CompiledTopology {
	if dyn, ok := topo.(DynamicTopology); ok {
		dyn.Reset()
	}
	n, m := topo.Nodes(), topo.Couplers()
	ct := &CompiledTopology{topo: topo, n: n, m: m, fanCount: make([]int32, m)}
	ct.outStart = make([]int32, n+1)
	for u := 0; u < n; u++ {
		ct.outStart[u+1] = ct.outStart[u] + int32(len(topo.OutCouplers(u)))
	}
	ct.outCount = make([]int32, n)
	ct.outList = make([]int32, ct.outStart[n])
	ct.headStart = make([]int32, m+1)
	for c := 0; c < m; c++ {
		ct.headStart[c+1] = ct.headStart[c] + int32(len(topo.Heads(c)))
	}
	ct.headCount = make([]int32, m)
	ct.headList = make([]int32, ct.headStart[m])
	ct.refreshStructure()
	ct.syncBlocks()
	return ct
}

// Nodes returns the compiled node count.
func (ct *CompiledTopology) Nodes() int { return ct.n }

// Couplers returns the compiled coupler count.
func (ct *CompiledTopology) Couplers() int { return ct.m }

// Topology returns the topology the snapshot was compiled from.
func (ct *CompiledTopology) Topology() Topology { return ct.topo }

// refreshStructure copies the topology's current out-coupler and head sets
// into the CSR arrays and raises fanIn to cover them. Called at compile
// time and again after every topology change; between changes Step reads
// only the arrays. Live sets normally stay within the capacity reserved
// at compile time (fault masks only shrink them); if an exotic dynamic
// topology outgrows a slot, the CSR is re-laid-out.
func (ct *CompiledTopology) refreshStructure() {
	for u := 0; u < ct.n; u++ {
		oc := ct.topo.OutCouplers(u)
		if int32(len(oc)) > ct.outStart[u+1]-ct.outStart[u] {
			ct.relayoutOut()
			return
		}
		base := ct.outStart[u]
		for i, c := range oc {
			ct.outList[base+int32(i)] = int32(c)
		}
		ct.outCount[u] = int32(len(oc))
	}
	for c := 0; c < ct.m; c++ {
		hs := ct.topo.Heads(c)
		if int32(len(hs)) > ct.headStart[c+1]-ct.headStart[c] {
			ct.relayoutHeads()
			return
		}
		base := ct.headStart[c]
		for i, h := range hs {
			ct.headList[base+int32(i)] = int32(h)
		}
		ct.headCount[c] = int32(len(hs))
	}
	ct.fanIn = max(ct.fanIn, countFanIn(ct.fanCount, ct.n, func(u int) []int32 {
		return ct.outList[ct.outStart[u] : ct.outStart[u]+ct.outCount[u]]
	}))
}

// FanIn returns the topology's coupler fan-in F: the most nodes that list
// any one coupler in OutCouplers. A node makes at most one request per
// slot, on one of its out-couplers, so no coupler ever has more than F
// senders in a slot (Config.Canonical).
func FanIn(t Topology) int {
	return countFanIn(make([]int32, t.Couplers()), t.Nodes(), t.OutCouplers)
}

// countFanIn returns the most entries that name any one coupler in the
// out-lists of nodes 0..n-1, counting in cnt (one cell per coupler).
func countFanIn[C int | int32](cnt []int32, n int, out func(u int) []C) int {
	clear(cnt)
	f := int32(0)
	for u := 0; u < n; u++ {
		for _, c := range out(u) {
			cnt[c]++
			f = max(f, cnt[c])
		}
	}
	return int(f)
}

// relayoutOut rebuilds the out-coupler CSR with fresh slot capacities, then
// retries the full refresh.
func (ct *CompiledTopology) relayoutOut() {
	for u := 0; u < ct.n; u++ {
		ct.outStart[u+1] = ct.outStart[u] + int32(len(ct.topo.OutCouplers(u)))
	}
	ct.outList = make([]int32, ct.outStart[ct.n])
	ct.refreshStructure()
}

// relayoutHeads is the head-list counterpart of relayoutOut.
func (ct *CompiledTopology) relayoutHeads() {
	for c := 0; c < ct.m; c++ {
		ct.headStart[c+1] = ct.headStart[c] + int32(len(ct.topo.Heads(c)))
	}
	ct.headList = make([]int32, ct.headStart[ct.m])
	ct.refreshStructure()
}

// ExpandTopology returns per-node blocks (IdentityBlocks) of t, filled by
// querying t once per (u, dst) pair. The delivers-here bit is the exact
// head-set membership the legacy engine tested per transmission:
// dst ∈ Heads(chosen coupler).
func ExpandTopology(t Topology) RouteBlocks {
	n, m := t.Nodes(), t.Couplers()
	b := IdentityBlocks(n)
	// hears[c] marks, for the current dst, the couplers dst listens on.
	hears := make([]bool, m)
	heard := make([][]int, n)
	for c := 0; c < m; c++ {
		for _, h := range t.Heads(c) {
			heard[h] = append(heard[h], c)
		}
	}
	for dst := 0; dst < n; dst++ {
		for _, c := range heard[dst] {
			hears[c] = true
		}
		for u := 0; u < n; u++ {
			c, hop := t.NextCoupler(u, dst)
			b.Routes[u*n+dst] = MakeRouteEntry(c, hop, c >= 0 && c < m && hears[c])
			b.Dists[u*n+dst] = int32(t.Distance(u, dst))
		}
		for _, c := range heard[dst] {
			hears[c] = false
		}
	}
	return b
}

// syncBlocks points the snapshot at the blocks the topology lends now, or
// expands a topology that lends none into snapshot-owned per-node blocks.
func (ct *CompiledTopology) syncBlocks() {
	if bt, ok := ct.topo.(BlockTabled); ok {
		ct.blocks = *bt.RouteBlocks()
	} else {
		ct.blocks = ExpandTopology(ct.topo)
	}
}

// recompileDynamic re-syncs the snapshot after a TopologyChange: the CSR
// structure is copied again and the blocks are re-read (or re-expanded).
func (ct *CompiledTopology) recompileDynamic() {
	ct.refreshStructure()
	ct.syncBlocks()
}
