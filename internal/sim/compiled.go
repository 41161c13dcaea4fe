package sim

import (
	"math/bits"
	"slices"

	"otisnet/internal/digraph"
)

// Route blocks: every Topology lends the engine its routing state as
// RouteBlocks, with one cell per (row class, column class) pair, and the
// step loop reads only those and the CSR copies of the out-coupler and
// head lists the engine makes at construction. The cells come in two
// planes. A route cell is a bit-packed index into its row class's
// dictionary of distinct route entries, each carrying a delivers-here
// bit; it is all the head-of-line resolution reads. A distance cell holds
// the hop distance itself, which only deflection and the checks read.
// Every build uses one route width, the smallest power of two from 1 to
// 32 bits that indexes its largest row dictionary, and one distance
// width, the smallest power of two whose all-ones value exceeds its
// diameter: 4 and 4 bits for SK(4,2,10), whose rows hold at most 5
// distinct routes, so the route plane the slot loop reads is half the
// size of both. A decode returns exactly what the builder computed for
// the cell. The engine borrows the blocks and never writes them; a
// dynamic topology lends other blocks after an event, and the engine
// re-reads them after every TopologyChange.

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

// RouteCell is one routing decision together with its hop distance: a
// cell of RouteBlocks, read from both planes.
type RouteCell struct {
	Route RouteEntry
	Dist  int32 // hop distance, digraph.Unreachable = -1
}

// RouteBlocks is the quotient form of a topology's routing state. In the
// paper's ς(s, G) every member of a group transmits on the same couplers
// and hears the same couplers, so a routing decision depends only on the
// source's group and the destination's group. RouteBlocks generalizes
// that: each node has a row class and a column class, and for u != dst,
// with r = Row[u] and i = r*Cols + Col[dst],
//
//	route(u, dst) = Dict[Base[r] + cell i of Cells]
//	dist(u, dst)  = cell i of Dists (all ones: unreachable)
//
// with dist(u, u) = 0. Stack topologies use out-twins as rows (identical
// out-coupler lists in the same order) and in-twins as columns (identical
// lists of couplers heard); the (Row[u], Col[u]) cell then holds u's
// route and distance to its twins. A delivering cell names the coupler
// only: its next hop is the destination itself, whichever member of the
// column that is (Entry expands it). BuildRouteBlocks computes these
// blocks from the out-coupler and head lists of any network. Identity
// classes — one row and one column per node — give plain per-node n×n
// tables.
//
// The cells come in two planes, so a reader loads only what it needs. The
// route plane is what the engine reads for every head-of-line message: a
// row holds few distinct route entries (no route, deliver on one of its
// out-couplers, or relay through one of its heads), and row class r's
// distinct entries, in order of first appearance, are its dictionary
// Dict[Base[r]:Base[r+1]]. Each route cell stores only its index there,
// bit-packed Width() = 1<<Shift bits wide, 64/Width() cells to a word,
// low bits first, so no cell straddles two words; the width is the
// smallest power of two (1 to 32 bits) that indexes the largest row
// dictionary of the build. The distance plane, which only deflection and
// the checks (Distance, CheckTopology) read, holds each cell's hop
// distance raw, DistWidth() = 1<<DistShift bits wide and packed the same
// way; its width is the smallest power of two whose all-ones value, which
// marks an unreachable cell, exceeds the build's largest distance. On
// SK(4,2,10) both planes are 4 bits wide (rows hold at most 5 route
// entries, the diameter is 10); on the de Bruijn B(2,12) the route plane
// is 2 bits wide and the distance plane 4. Decoding a route is one shift,
// one mask and one dictionary load, decoding a distance one shift and one
// mask, and each returns exactly what the builder computed for the cell.
type RouteBlocks struct {
	Row, Col []int32 // node -> row class, node -> column class
	Cols     int
	// The route plane.
	Shift uint         // route cells are 1<<Shift bits wide
	Cells []uint64     // rows × Cols dictionary indexes, row-major, packed
	Base  []int32      // rows+1 offsets: row class r's dictionary is Dict[Base[r]:Base[r+1]]
	Dict  []RouteEntry // the row dictionaries, concatenated
	// The distance plane.
	DistShift uint     // distance cells are 1<<DistShift bits wide
	Dists     []uint64 // rows × Cols hop distances, row-major, packed
}

// Rows returns the number of row classes.
func (b *RouteBlocks) Rows() int { return len(b.Base) - 1 }

// Width returns the route cell width in bits.
func (b *RouteBlocks) Width() int { return 1 << b.Shift }

// DistWidth returns the distance cell width in bits.
func (b *RouteBlocks) DistWidth() int { return 1 << b.DistShift }

// cellMask is the mask of one cell 1<<shift bits wide.
func cellMask(shift uint) uint64 { return 1<<(1<<shift) - 1 }

// distShift returns the shift of the narrowest distance cells that hold
// every distance up to maxd below their all-ones unreachable value.
func distShift(maxd int) uint {
	s := uint(0)
	for cellMask(s) <= uint64(maxd) {
		s++
	}
	return s
}

// unpack returns the value held by cell i of cells packed 1<<shift bits
// wide; mask is cellMask(shift).
func unpack(cells []uint64, shift uint, mask uint64, i int) int {
	bit := uint(i) << (shift & 63)
	return int(cells[bit>>6] >> (bit & 63) & mask)
}

// hops returns the distance held by cell i of a distance plane packed
// 1<<shift bits wide, digraph.Unreachable for its all-ones value mask.
func hops(dists []uint64, shift uint, mask uint64, i int) int32 {
	if d := unpack(dists, shift, mask, i); uint64(d) != mask {
		return int32(d)
	}
	return digraph.Unreachable
}

// pack stores x in cell i of cells packed 1<<shift bits wide.
func pack(cells []uint64, shift uint, i, x int) {
	bit := uint(i) << shift
	w := &cells[bit>>6]
	*w = *w&^(cellMask(shift)<<(bit&63)) | uint64(x)<<(bit&63)
}

// route returns the route entry of cell (r, k): row class r, column class
// k.
func (b *RouteBlocks) route(r, k int) RouteEntry {
	return b.Dict[int(b.Base[r])+unpack(b.Cells, b.Shift, cellMask(b.Shift), r*b.Cols+k)]
}

// dist returns the hop distance of cell (r, k).
func (b *RouteBlocks) dist(r, k int) int32 {
	return hops(b.Dists, b.DistShift, cellMask(b.DistShift), r*b.Cols+k)
}

// Cell returns the decoded cell (r, k): row class r, column class k.
func (b *RouteBlocks) Cell(r, k int) RouteCell {
	return RouteCell{Route: b.route(r, k), Dist: b.dist(r, k)}
}

// Entry returns the routing decision for (u, dst) in per-node form: the
// "already there" entry when u == dst, and a delivering entry's next hop
// set to dst. It reads the route plane only.
func (b *RouteBlocks) Entry(u, dst int) RouteEntry {
	if u == dst {
		return RouteEntry{c: -1, h: int32(u)}
	}
	r := b.route(int(b.Row[u]), int(b.Col[dst]))
	if r.Delivers() {
		r.h = int32(dst)
	}
	return r
}

// Distance returns the hop distance from u to dst. It reads the distance
// plane only.
func (b *RouteBlocks) Distance(u, dst int) int {
	if u == dst {
		return 0
	}
	return int(b.dist(int(b.Row[u]), int(b.Col[dst])))
}

// blockWriter encodes RouteBlocks one row class at a time, in row order.
// start sizes the distance plane, which the caller fills; row reads a
// row's route cells as lanes of codes into a table of the route entries
// the row may hold, appends its distinct entries to Dict and packs the
// cells as indexes into them. The route width starts at one bit and is
// doubled as often as a dictionary needs, repacking the rows already
// written in place, so the finished blocks have the smallest width that
// indexes their largest dictionary. Between builds the writer keeps its
// scratch and the blocks keep their arrays, so a rebuild into the same
// blocks allocates nothing once they are large enough.
type blockWriter struct {
	b    *RouteBlocks
	rows int
	done int      // rows written
	dict []uint64 // the current row's dictionary, as codes
}

// start points the writer at b, to be filled with rows × cols cells over
// the row and column maps b already holds, and sizes both planes, zeroed:
// the route plane 1 bit wide, the distance plane for distances up to
// maxd.
func (w *blockWriter) start(b *RouteBlocks, rows, cols, maxd int) {
	w.b, w.rows, w.done = b, rows, 0
	b.Cols, b.Shift = cols, 0
	b.Cells = grown(b.Cells, cellWords(rows*cols, 0))
	clear(b.Cells)
	b.Base = append(b.Base[:0], 0)
	b.Dict = b.Dict[:0]
	b.DistShift = distShift(maxd)
	b.Dists = grown(b.Dists, cellWords(rows*cols, b.DistShift))
	clear(b.Dists)
}

// cellWords is the number of words n cells 1<<shift bits wide fill.
func cellWords(n int, shift uint) int { return (n<<shift + 63) >> 6 }

// row encodes the route plane of the next row class, one cell per column
// class: cell k is routes[c] for the code c in lane k of codes, whose
// lanes are lb bits wide, 64/lb to a word, low lanes first, and must
// number fewer than the all-ones lane. The entries codes name must be
// distinct, and a delivering entry's next hop must be -1: Entry replaces
// it with the destination, so delivering cells share one dictionary entry
// per coupler. The row is coded a word of lanes at a time: each lane
// equal to a dictionary entry's code, found all at once, takes its index,
// and the first lane left over adds its code to the dictionary, so the
// entries come in order of first appearance. The indexes overwrite the
// codes, and are then narrowed into the route plane.
func (w *blockWriter) row(codes []uint64, lb uint, routes []RouteEntry) {
	b := w.b
	cols, first := b.Cols, len(b.Dict)
	far := ^uint64(0) >> (64 - lb) // one lane of all ones
	ones := ^uint64(0) / far       // the low bit of every lane
	high := ones << (lb - 1)
	low := ^high
	per := int(64 / lb)
	dict := w.dict[:0]
	for i := 0; i*per < cols; i++ {
		x, valid := codes[i], high
		if left := cols - i*per; left < per {
			valid &= 1<<(uint(left)*lb) - 1
		}
		idx, known := uint64(0), uint64(0)
		for j := 0; known != valid; j++ {
			if j == len(dict) {
				// The first lane not yet known opens a dictionary entry.
				at := uint(bits.TrailingZeros64(valid&^known)) &^ (lb - 1)
				dict = append(dict, x>>at&far)
				b.Dict = append(b.Dict, routes[dict[j]])
			}
			eq := zeroLanes(x^dict[j]*ones, low) & valid
			idx |= eq >> (lb - 1) * uint64(j)
			known |= eq
		}
		codes[i] = idx
	}
	w.dict = dict
	if size := len(b.Dict) - first; size > 1<<b.Width() {
		w.widen(size)
	}
	narrowLanes(b.Cells, uint(w.done*cols)<<b.Shift, uint(b.Width()), codes, lb, cols, codes)
	b.Base = append(b.Base, int32(len(b.Dict)))
	w.done++
}

// widen makes the route cells wide enough to index a dictionary of size
// entries, sizing Cells for all rows with zero past the rows written, and
// repacks those in place, last cell first: cell i moves up to bit
// i<<Shift, past the cells before it, and the cells after it have already
// moved.
func (w *blockWriter) widen(size int) {
	b := w.b
	old := b.Shift
	for 1<<b.Width() < size {
		b.Shift++
	}
	have, need := len(b.Cells), cellWords(w.rows*b.Cols, b.Shift)
	b.Cells = slices.Grow(b.Cells, need-have)[:need]
	clear(b.Cells[have:])
	for i := w.done*b.Cols - 1; i >= 0; i-- {
		pack(b.Cells, b.Shift, i, unpack(b.Cells, old, cellMask(old), i))
	}
}

// narrowLanes packs the low width bits of the first n lanes of src, whose
// lanes are lb bits wide, into dst from bit on, width bits a cell, where
// width and lb are powers of two and width is at most lb: a value that
// fits keeps it, and a lane of all ones becomes a cell of all ones. The
// cells of dst from bit on must be zero. Each word of src is narrowed
// whole into the same word of scratch, which may be src itself
// (foldLanes), then the narrowed words are placed side by side in dst.
func narrowLanes(dst []uint64, bit, width uint, src []uint64, lb uint, n int, scratch []uint64) {
	per := int(64 / lb)
	words := (n + per - 1) / per
	folded := scratch[:words]
	foldLanes(folded, src[:words], width, lb)
	if tail := n % per; tail != 0 {
		folded[words-1] &= 1<<(uint(tail)*width) - 1
	}
	chunk := uint(per) * width // the bits a word of src narrows to
	acc := dst[bit>>6]
	for i, x := range folded {
		size := chunk
		if i == words-1 && n%per != 0 {
			size = uint(n%per) * width
		}
		acc |= x << (bit & 63)
		if next := bit + size; next>>6 != bit>>6 {
			dst[bit>>6], acc = acc, x>>1>>(63-bit&63)
		}
		bit += size
	}
	if bit&63 != 0 {
		dst[bit>>6] = acc
	}
}

// foldLanes narrows every word of src from lanes lb bits wide to cells
// width bits wide in the low bits of the same word of dst: each lane is
// cut to its low width bits, then neighbouring groups of cells are folded
// together, pairs of lanes, then fours, then eights, until the cells sit
// side by side (foldPlans).
func foldLanes(dst, src []uint64, width, lb uint) {
	p := &foldPlans[bits.TrailingZeros(lb)-3][bits.TrailingZeros(width)]
	s1, s2, s4 := p.shift[0]&63, p.shift[1]&63, p.shift[2]&63
	m1, m2, m4 := p.mask[0], p.mask[1], p.mask[2]
	for i, x := range src {
		x &= p.keep
		x = (x | x>>s1) & m1
		x = (x | x>>s2) & m2
		dst[i] = (x | x>>s4) & m4
	}
}

// foldPlan is how foldLanes narrows one pair of lane and cell widths:
// keep cuts each lane to a cell's width, and fold f joins groups of
// g = 1<<f cells 2g lanes apart, moving the upper group down by shift[f]
// bits and keeping the joined cells with mask[f]. Lanes of 16 or 32 bits
// need fewer folds; the rest shift by 0 under an all-ones mask, so one
// loop without branches serves every width.
type foldPlan struct {
	keep  uint64
	shift [3]uint
	mask  [3]uint64
}

// foldPlans[i][j] narrows lanes 8<<i bits wide to cells 1<<j bits wide,
// for every j that is not wider than the lane. It is an array, so it
// stays off the heap and a build computes no plan.
var foldPlans = func() (t [3][6]foldPlan) {
	for i := range t {
		lb := uint(8) << i
		for j := 0; 1<<j <= lb; j++ {
			width := uint(1) << j
			p := &t[i][j]
			p.keep = ^uint64(0) / (^uint64(0) >> (64 - lb)) * (1<<width - 1)
			p.mask = [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			for f, g := 0, uint(1); g < 64/lb; f, g = f+1, 2*g {
				p.shift[f], p.mask[f] = g*(lb-width), 0
				for off := uint(0); off < 64; off += 2 * g * lb {
					p.mask[f] |= (1<<(2*g*width) - 1) << off
				}
			}
		}
	}
	return t
}()
