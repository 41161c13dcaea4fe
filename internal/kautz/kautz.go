// Package kautz implements the Kautz digraph KG(d,k) (Kautz 1968), its
// loop-augmented variant KG⁺(d,k) used by the stack-Kautz network, the
// label-induced shortest-path routing the paper highlights (§2.5), the
// multipath fault-tolerant routing of Imase, Soneoka and Okada (paths of
// length at most k+2 surviving up to d-1 faults), and the de Bruijn digraph
// B(d,k) used as the single-OPS baseline of Sivarajan and Ramaswami.
package kautz

import (
	"fmt"
	"math"

	"otisnet/internal/digraph"
)

// Label is a Kautz word: a sequence (x1, ..., xk) over the alphabet
// {0, ..., d} with consecutive symbols distinct. Labels are also used for de
// Bruijn words, where the alphabet is {0, ..., d-1} and repeats are allowed.
type Label []byte

// String renders the label as the digit string the paper uses in Fig. 6 and
// Fig. 10 (e.g. "120" for the word (1,2,0)).
func (l Label) String() string {
	s := make([]byte, len(l))
	for i, x := range l {
		if x < 10 {
			s[i] = '0' + x
		} else {
			s[i] = 'a' + x - 10
		}
	}
	return string(s)
}

// Equal reports whether two labels are identical words.
func (l Label) Equal(m Label) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the label.
func (l Label) Clone() Label { return append(Label(nil), l...) }

// Valid reports whether l is a valid Kautz word of degree d: length >= 1,
// symbols in [0, d], and no two consecutive symbols equal.
func (l Label) Valid(d int) bool {
	if len(l) == 0 {
		return false
	}
	for i, x := range l {
		if int(x) > d {
			return false
		}
		if i > 0 && l[i-1] == x {
			return false
		}
	}
	return true
}

// N returns the number of vertices of KG(d,k): d^{k-1} * (d+1). It panics
// when the count does not fit an int.
func N(d, k int) int {
	if d < 1 || k < 1 {
		panic(fmt.Sprintf("kautz: invalid parameters d=%d k=%d", d, k))
	}
	n, ok := scaled(d+1, d, k-1)
	if !ok || d == math.MaxInt {
		panic(fmt.Sprintf("kautz: KG(%d,%d) has more than %d vertices", d, k, math.MaxInt))
	}
	return n
}

// scaled returns n·d^e, and false when it does not fit an int; n and d
// are at least 1.
func scaled(n, d, e int) (int, bool) {
	for ; e > 0 && d > 1; e-- {
		if n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Graph is the Kautz digraph KG(d,k) together with its word labeling.
// Vertices are indexed 0..N-1 in the lexicographic rank order of their
// words (see Index/LabelOf).
type Graph struct {
	d, k int
	g    *digraph.Digraph
}

// New constructs KG(d,k): degree d, diameter k, N = d^{k-1}(d+1) vertices.
func New(d, k int) *Graph {
	n := N(d, k)
	kg := &Graph{d: d, k: k, g: digraph.New(n)}
	for u := 0; u < n; u++ {
		w := kg.LabelOf(u)
		for _, v := range kg.neighbors(w) {
			kg.g.AddArc(u, kg.Index(v))
		}
	}
	return kg
}

// Degree returns d.
func (kg *Graph) Degree() int { return kg.d }

// DiameterBound returns k, which the paper states (and the tests verify) is
// the exact diameter of KG(d,k).
func (kg *Graph) DiameterBound() int { return kg.k }

// N returns the number of vertices.
func (kg *Graph) N() int { return kg.g.N() }

// Digraph returns the underlying digraph (owned by the Graph; treat as
// read-only).
func (kg *Graph) Digraph() *digraph.Digraph { return kg.g }

// WithLoops returns KG⁺(d,k): a copy of the digraph with one loop per
// vertex, so every vertex has degree d+1. This is the base digraph of the
// stack-Kautz network (Definition 4).
func (kg *Graph) WithLoops() *digraph.Digraph { return digraph.AddLoops(kg.g) }

// neighbors lists the out-neighbors of word w: (x2, ..., xk, z), z != xk.
func (kg *Graph) neighbors(w Label) []Label {
	var out []Label
	last := w[len(w)-1]
	for z := 0; z <= kg.d; z++ {
		if byte(z) == last {
			continue
		}
		nb := make(Label, len(w))
		copy(nb, w[1:])
		nb[len(w)-1] = byte(z)
		out = append(out, nb)
	}
	return out
}

// Index returns the rank of a Kautz word. The first symbol contributes its
// value in [0, d]; each subsequent symbol contributes its rank among the d
// symbols different from its predecessor. Panics on invalid words.
func (kg *Graph) Index(w Label) int {
	if len(w) != kg.k || !w.Valid(kg.d) {
		panic(fmt.Sprintf("kautz: invalid word %v for KG(%d,%d)", w, kg.d, kg.k))
	}
	idx := int(w[0])
	for i := 1; i < kg.k; i++ {
		r := int(w[i])
		if w[i] > w[i-1] {
			r--
		}
		idx = idx*kg.d + r
	}
	return idx
}

// LabelOf returns the Kautz word of vertex u (inverse of Index).
func (kg *Graph) LabelOf(u int) Label {
	if u < 0 || u >= kg.N() {
		panic(fmt.Sprintf("kautz: vertex %d out of range", u))
	}
	w := make(Label, kg.k)
	// Peel ranks from least significant position.
	rem := u
	ranks := make([]int, kg.k)
	for i := kg.k - 1; i >= 1; i-- {
		ranks[i] = rem % kg.d
		rem /= kg.d
	}
	w[0] = byte(rem)
	for i := 1; i < kg.k; i++ {
		r := byte(ranks[i])
		if r >= w[i-1] {
			r++
		}
		w[i] = r
	}
	return w
}

// IsKautzDigraph verifies structurally that g is d-regular with
// d^{k-1}(d+1) vertices and diameter k — the defining parameters the paper
// quotes for KG(d,k).
func IsKautzDigraph(g *digraph.Digraph, d, k int) bool {
	return g.N() == N(d, k) && g.IsRegular(d) && g.Diameter() == k
}

// MooreBound returns the directed Moore bound — the maximum possible
// vertex count of a degree-d diameter-k digraph: 1 + d + d² + ... + d^k.
// The paper's §2.5 notes Kautz graphs are "optimal with respect to the
// number of nodes if d > 2": N(d,k) = d^k + d^{k-1} is the largest known
// order below this (unattainable, for d,k >= 2) bound.
func MooreBound(d, k int) int {
	if d < 1 || k < 0 {
		panic(fmt.Sprintf("kautz: invalid Moore bound parameters d=%d k=%d", d, k))
	}
	n, p := 1, 1
	for i := 0; i < k; i++ {
		p *= d
		n += p
	}
	return n
}
