package sim

import "slices"

// Route blocks: every Topology lends the engine its routing state as
// RouteBlocks, with one cell per (row class, column class) pair, and the
// step loop reads only those and the CSR copies of the out-coupler and
// head lists the engine makes at construction. A cell is a bit-packed
// index into its row class's dictionary of distinct (route entry,
// distance) pairs, the route entry carrying a delivers-here bit. Every
// build uses the one cell width that indexes its largest row dictionary,
// the smallest power of two from 1 to 32 bits (8 bits for SK(4,2,10),
// whose rows hold at most 21 distinct pairs), and a decode — one shift,
// one mask, one dictionary load — returns exactly the pair the builder
// computed for the cell. The engine borrows the blocks and never writes
// them; a dynamic topology lends other blocks after an event, and the
// engine re-reads them after every TopologyChange.

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
// dictionary entry of RouteBlocks.
type RouteCell struct {
	Route RouteEntry
	Dist  int32 // hop distance, digraph.Unreachable = -1
}

// RouteBlocks is the quotient form of a topology's routing state. In the
// paper's ς(s, G) every member of a group transmits on the same couplers
// and hears the same couplers, so a routing decision depends only on the
// source's group and the destination's group. RouteBlocks generalizes
// that: each node has a row class and a column class, and for u != dst,
// with r = Row[u],
//
//	(route, dist)(u, dst) = Dict[Base[r] + cell(r*Cols + Col[dst])]
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
// A row holds few distinct (route, distance) pairs: a group of SK(s,d,k)
// has d+1 out-couplers and every distance is at most k. Row class r's
// distinct cells, in order of first appearance, are its dictionary
// Dict[Base[r]:Base[r+1]], and each cell stores only its index there,
// bit-packed Width() = 1<<Shift bits wide, 64/Width() cells to a word,
// low bits first, so no cell straddles two words. The width is the
// smallest power of two (1 to 32 bits) that indexes the largest row
// dictionary of the build. Decoding is one shift, one mask and one
// dictionary load, and it returns exactly the (route, distance) pair the
// builder computed for the cell.
type RouteBlocks struct {
	Row, Col []int32 // node -> row class, node -> column class
	Cols     int
	Shift    uint        // cells are 1<<Shift bits wide
	Cells    []uint64    // rows × Cols dictionary indexes, row-major, packed
	Base     []int32     // rows+1 offsets: row class r's dictionary is Dict[Base[r]:Base[r+1]]
	Dict     []RouteCell // the row dictionaries, concatenated
}

// Rows returns the number of row classes.
func (b *RouteBlocks) Rows() int { return len(b.Base) - 1 }

// Width returns the cell width in bits.
func (b *RouteBlocks) Width() int { return 1 << b.Shift }

// cellMask is the mask of one cell 1<<shift bits wide.
func cellMask(shift uint) uint64 { return 1<<(1<<shift) - 1 }

// unpack returns the dictionary index held by cell i of cells packed
// 1<<shift bits wide; mask is cellMask(shift).
func unpack(cells []uint64, shift uint, mask uint64, i int) int {
	bit := uint(i) << (shift & 63)
	return int(cells[bit>>6] >> (bit & 63) & mask)
}

// pack stores dictionary index x in cell i of cells packed 1<<shift bits
// wide.
func pack(cells []uint64, shift uint, i, x int) {
	bit := uint(i) << shift
	w := &cells[bit>>6]
	*w = *w&^(cellMask(shift)<<(bit&63)) | uint64(x)<<(bit&63)
}

// Cell returns the decoded cell (r, k): row class r, column class k.
func (b *RouteBlocks) Cell(r, k int) RouteCell {
	return b.Dict[int(b.Base[r])+unpack(b.Cells, b.Shift, cellMask(b.Shift), r*b.Cols+k)]
}

// Entry returns the routing decision for (u, dst) in per-node form: the
// "already there" entry when u == dst, and a delivering entry's next hop
// set to dst.
func (b *RouteBlocks) Entry(u, dst int) RouteEntry {
	if u == dst {
		return RouteEntry{c: -1, h: int32(u)}
	}
	r := b.Cell(int(b.Row[u]), int(b.Col[dst])).Route
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
	return int(b.Cell(int(b.Row[u]), int(b.Col[dst])).Dist)
}

// blockWriter encodes RouteBlocks one row class at a time, in row order:
// row reads a row's decoded cells, appends its distinct cells to Dict and
// packs the cells as indexes into them. The width starts at one bit and
// is doubled as often as a dictionary needs, repacking the cells already
// written in place, so the finished blocks have the smallest width that
// indexes their largest dictionary. Between builds the writer keeps its
// hash table and the blocks keep their arrays, so a rebuild into the same
// blocks allocates nothing once they are large enough.
type blockWriter struct {
	b    *RouteBlocks
	rows int
	done int // rows written
	// slots is an open-addressing table of the current row's dictionary:
	// 0 is empty, i+1 names entry i. It stays at most half full.
	slots []int32
	idx   []int32 // the current row's dictionary indexes
}

// start points the writer at b, to be filled with rows × cols cells over
// the row and column maps b already holds.
func (w *blockWriter) start(b *RouteBlocks, rows, cols int) {
	w.b, w.rows, w.done = b, rows, 0
	b.Cols, b.Shift, b.Cells = cols, 0, b.Cells[:0]
	b.Base = append(b.Base[:0], 0)
	b.Dict = b.Dict[:0]
	if len(w.slots) == 0 {
		w.slots = make([]int32, 16)
	}
}

// cellWords is the number of words n cells 1<<shift bits wide fill.
func cellWords(n int, shift uint) int { return (n<<shift + 63) >> 6 }

// row encodes the next row class from its decoded cells, one per column
// class. A delivering cell's next hop must be -1: Entry replaces it with
// the destination, so delivering cells share one dictionary entry per
// coupler.
func (w *blockWriter) row(vals []RouteCell) {
	b := w.b
	first := len(b.Dict)
	clear(w.slots)
	w.idx = grown(w.idx, len(vals))
	idx := w.idx
	prev, x := RouteCell{}, -1
	for k, v := range vals {
		if x < 0 || v != prev {
			prev, x = v, w.index(v, first)
		}
		idx[k] = int32(x)
	}
	if size := len(b.Dict) - first; w.done == 0 || size > 1<<b.Width() {
		w.widen(size)
	}
	// The cells past those written are zero (start, widen), so the row is
	// ORed into the word it starts in and whole words are stored after it.
	cells, width, bit := b.Cells, uint(b.Width()), uint(w.done*b.Cols)<<b.Shift
	acc := cells[bit>>6]
	for _, x := range idx {
		acc |= uint64(x) << (bit & 63)
		if bit += width; bit&63 == 0 {
			cells[bit>>6-1], acc = acc, 0
		}
	}
	if bit&63 != 0 {
		cells[bit>>6] = acc
	}
	b.Base = append(b.Base, int32(len(b.Dict)))
	w.done++
}

// index returns v's index in the dictionary that starts at Dict[first],
// appending v when it is new.
func (w *blockWriter) index(v RouteCell, first int) int {
	for {
		mask := uint64(len(w.slots) - 1)
		for i := cellHash(v) & mask; ; i = (i + 1) & mask {
			s := w.slots[i]
			if s == 0 {
				x := len(w.b.Dict) - first
				if 2*(x+1) > len(w.slots) {
					break // grow the table first
				}
				w.slots[i] = int32(x + 1)
				w.b.Dict = append(w.b.Dict, v)
				return x
			}
			if w.b.Dict[first+int(s)-1] == v {
				return int(s) - 1
			}
		}
		w.slots = make([]int32, 2*len(w.slots))
		mask = uint64(len(w.slots) - 1)
		for x, d := range w.b.Dict[first:] {
			i := cellHash(d) & mask
			for w.slots[i] != 0 {
				i = (i + 1) & mask
			}
			w.slots[i] = int32(x + 1)
		}
	}
}

// cellHash mixes a cell's three fields into a table position.
func cellHash(v RouteCell) uint64 {
	x := uint64(uint32(v.Route.c)) | uint64(uint32(v.Route.h))<<32
	x ^= uint64(uint32(v.Dist)) * 0x9e3779b97f4a7c15
	x *= 0xff51afd7ed558ccd
	return x ^ x>>29
}

// widen makes the cells wide enough to index a dictionary of size
// entries, sizing Cells for all rows with zero past the cells written,
// and repacks the rows already written in place, last cell first: cell i
// moves up to bit i<<Shift, past the cells before it, and the cells after
// it have already moved.
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
