package kautz

// The de Bruijn digraph B(d,k) is the classical single-OPS lightwave
// baseline (Sivarajan and Ramaswami 1994, reference [22] of the paper):
// d^k vertices labeled by words of length k over {0..d-1} (repeats allowed),
// arcs by left shift. Compared with KG(d,k) it has slightly fewer vertices
// per degree/diameter (d^k versus d^{k-1}(d+1)) and carries loops at the d
// constant words. We use it as the point-to-point comparator in the
// simulator experiments (T7).

import (
	"fmt"
	"math"

	"otisnet/internal/digraph"
)

// DeBruijn is the de Bruijn digraph B(d,k) with its word labeling.
type DeBruijn struct {
	d, k int
	g    *digraph.Digraph
}

// DeBruijnN returns d^k, the number of vertices of B(d,k). It panics when
// the count does not fit an int.
func DeBruijnN(d, k int) int {
	if d < 1 || k < 1 {
		panic(fmt.Sprintf("kautz: invalid de Bruijn parameters d=%d k=%d", d, k))
	}
	n, ok := scaled(1, d, k)
	if !ok {
		panic(fmt.Sprintf("kautz: B(%d,%d) has more than %d vertices", d, k, math.MaxInt))
	}
	return n
}

// NewDeBruijn constructs B(d,k).
func NewDeBruijn(d, k int) *DeBruijn {
	n := DeBruijnN(d, k)
	b := &DeBruijn{d: d, k: k, g: digraph.New(n)}
	for u := 0; u < n; u++ {
		// Word of u in base d; shifting left and appending z in [0,d).
		for z := 0; z < d; z++ {
			v := (u*d)%n + z
			b.g.AddArc(u, v)
		}
	}
	return b
}

// Degree returns d.
func (b *DeBruijn) Degree() int { return b.d }

// N returns the number of vertices.
func (b *DeBruijn) N() int { return b.g.N() }

// Digraph returns the underlying digraph (treat as read-only).
func (b *DeBruijn) Digraph() *digraph.Digraph { return b.g }

// LabelOf returns the base-d word of vertex u, most significant symbol
// first.
func (b *DeBruijn) LabelOf(u int) Label {
	w := make(Label, b.k)
	for i := b.k - 1; i >= 0; i-- {
		w[i] = byte(u % b.d)
		u /= b.d
	}
	return w
}

// Index returns the vertex of a de Bruijn word.
func (b *DeBruijn) Index(w Label) int {
	if len(w) != b.k {
		panic("kautz: wrong de Bruijn word length")
	}
	u := 0
	for _, x := range w {
		if int(x) >= b.d {
			panic("kautz: de Bruijn symbol out of range")
		}
		u = u*b.d + int(x)
	}
	return u
}
