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
// row reads a row's cells as codes into a table of the cells the row may
// hold, appends its distinct cells to Dict and packs the cells as indexes
// into them. The width starts at one bit and is doubled as often as a
// dictionary needs, repacking the cells already written in place, so the
// finished blocks have the smallest width that indexes their largest
// dictionary. Between builds the writer keeps its scratch and the blocks
// keep their arrays, so a rebuild into the same blocks allocates nothing
// once they are large enough.
type blockWriter struct {
	b    *RouteBlocks
	rows int
	done int // rows written
	// slots maps a code of the current row to its dictionary entry: 0 is
	// none yet, i+1 names entry i. Only the codes in used are nonzero, and
	// row clears them before it returns.
	slots []int32
	used  []int32
}

// start points the writer at b, to be filled with rows × cols cells over
// the row and column maps b already holds.
func (w *blockWriter) start(b *RouteBlocks, rows, cols int) {
	w.b, w.rows, w.done = b, rows, 0
	b.Cols, b.Shift, b.Cells = cols, 0, b.Cells[:0]
	b.Base = append(b.Base[:0], 0)
	b.Dict = b.Dict[:0]
}

// cellWords is the number of words n cells 1<<shift bits wide fill.
func cellWords(n int, shift uint) int { return (n<<shift + 63) >> 6 }

// row encodes the next row class, one cell per column class: cell k is
// cells[codes[k]]. The cells codes name must be distinct, and a
// delivering cell's next hop must be -1: Entry replaces it with the
// destination, so delivering cells share one dictionary entry per
// coupler. Each cell is packed as soon as its index is known.
func (w *blockWriter) row(codes []int32, cells []RouteCell) {
	b := w.b
	first, at := len(b.Dict), w.done*b.Cols
	w.slots = grown(w.slots, len(cells)) // zero: row clears what it sets
	slots := w.slots
	if w.done == 0 {
		// Size the cells once, at the first row's width, rather than
		// through every width below it.
		for _, c := range codes {
			if slots[c] == 0 {
				slots[c] = -1
				w.used = append(w.used, c)
			}
		}
		for _, c := range w.used {
			slots[c] = 0
		}
		w.widen(len(w.used), 0)
		w.used = w.used[:0]
	}
	for k := 0; k < len(codes); {
		n := packRow(b.Cells, uint(at+k)<<b.Shift, uint(b.Width()), codes[k:], slots)
		if k += n; k < len(codes) {
			c := codes[k]
			w.add(c, cells[c], first, at+k)
		}
	}
	for _, c := range w.used {
		slots[c] = 0
	}
	w.used = w.used[:0]
	b.Base = append(b.Base, int32(len(b.Dict)))
	w.done++
}

// packRow packs the dictionary indexes of codes, slots[c]-1 for code c,
// into words from bit on, width bits a cell, until it meets a code not in
// the dictionary, and returns the number of cells it packed. The cells
// past those written are zero (start, widen), so each is ORed into acc,
// the word it goes to, and whole words are stored.
func packRow(words []uint64, bit, width uint, codes, slots []int32) int {
	acc := words[bit>>6]
	for k, c := range codes {
		s := slots[c]
		if s == 0 {
			words[bit>>6] = acc
			return k
		}
		acc |= uint64(s-1) << (bit & 63)
		if bit += width; bit&63 == 0 {
			words[bit>>6-1], acc = acc, 0
		}
	}
	if bit&63 != 0 {
		words[bit>>6] = acc
	}
	return len(codes)
}

// add appends cell, code c of the current row, to the row's dictionary,
// which starts at Dict[first]. When its index does not fit the width, the
// cells are widened, repacking the written ones.
func (w *blockWriter) add(c int32, cell RouteCell, first, written int) {
	b := w.b
	b.Dict = append(b.Dict, cell)
	s := len(b.Dict) - first
	w.slots[c] = int32(s)
	w.used = append(w.used, c)
	if s > 1<<b.Width() {
		w.widen(s, written)
	}
}

// widen makes the cells wide enough to index a dictionary of size
// entries, sizing Cells for all rows with zero past the first written
// cells, and repacks those in place, last cell first: cell i moves up to
// bit i<<Shift, past the cells before it, and the cells after it have
// already moved.
func (w *blockWriter) widen(size, written int) {
	b := w.b
	old := b.Shift
	for 1<<b.Width() < size {
		b.Shift++
	}
	have, need := len(b.Cells), cellWords(w.rows*b.Cols, b.Shift)
	b.Cells = slices.Grow(b.Cells, need-have)[:need]
	clear(b.Cells[have:])
	for i := written - 1; i >= 0; i-- {
		pack(b.Cells, b.Shift, i, unpack(b.Cells, old, cellMask(old), i))
	}
}
