// Package hypergraph implements directed hypergraphs and the stack-graph
// construction ς(s, G) of Bourdin, Ferreira and Marcus, which is the model
// the paper uses for multi-OPS networks (Definition 1): pile up s copies of
// a digraph and view each stack of arcs as a single hyperarc. A hyperarc
// models one optical passive star coupler — its tail set are the processors
// wired to the coupler's inputs, its head set those wired to its outputs.
package hypergraph

import (
	"fmt"
	"sort"

	"otisnet/internal/digraph"
)

// Hyperarc is a directed hyperarc: every node in Tail can transmit through
// it, every node in Head receives from it. For an OPS coupler of degree s,
// |Tail| = |Head| = s.
type Hyperarc struct {
	Tail []int
	Head []int
}

// Degree returns the degree of the hyperarc when it is balanced
// (|Tail| == |Head|), and -1 otherwise.
func (a Hyperarc) Degree() int {
	if len(a.Tail) != len(a.Head) {
		return -1
	}
	return len(a.Tail)
}

// Hypergraph is a directed hypergraph on nodes 0..n-1.
type Hypergraph struct {
	n    int
	arcs []Hyperarc
}

// New returns an empty hypergraph with n nodes.
func New(n int) *Hypergraph {
	if n < 0 {
		panic(fmt.Sprintf("hypergraph: negative node count %d", n))
	}
	return &Hypergraph{n: n}
}

// N returns the number of nodes.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperarcs.
func (h *Hypergraph) M() int { return len(h.arcs) }

// AddHyperarc appends a hyperarc. Tail and head node ids must be in range;
// the slices are copied.
func (h *Hypergraph) AddHyperarc(tail, head []int) int {
	for _, v := range tail {
		h.check(v)
	}
	for _, v := range head {
		h.check(v)
	}
	h.arcs = append(h.arcs, Hyperarc{
		Tail: append([]int(nil), tail...),
		Head: append([]int(nil), head...),
	})
	return len(h.arcs) - 1
}

func (h *Hypergraph) check(v int) {
	if v < 0 || v >= h.n {
		panic(fmt.Sprintf("hypergraph: node %d out of range [0,%d)", v, h.n))
	}
}

// Hyperarc returns the i-th hyperarc. The returned slices are owned by the
// hypergraph and must not be modified.
func (h *Hypergraph) Hyperarc(i int) Hyperarc { return h.arcs[i] }

// Hyperarcs returns all hyperarcs in insertion order.
func (h *Hypergraph) Hyperarcs() []Hyperarc { return h.arcs }

// OutArcs returns the indices of hyperarcs whose tail contains node v —
// the couplers node v can transmit on.
func (h *Hypergraph) OutArcs(v int) []int {
	h.check(v)
	var out []int
	for i, a := range h.arcs {
		for _, u := range a.Tail {
			if u == v {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// OutArcLists returns OutArcs(v) for every node v: out[v] lists, in
// ascending index, the hyperarcs whose tail contains v, each once even
// when v repeats inside a tail. The lists share one backing array, sized
// by a counting pass over the hyperarcs and filled by a second.
func (h *Hypergraph) OutArcLists() [][]int {
	last := make([]int, h.n) // last[v] == i+1: arc i is listed for v
	end := make([]int, h.n+1)
	each := func(f func(v, i int)) {
		clear(last)
		for i, a := range h.arcs {
			for _, v := range a.Tail {
				if last[v] != i+1 {
					last[v] = i + 1
					f(v, i)
				}
			}
		}
	}
	each(func(v, _ int) { end[v+1]++ })
	for v := 0; v < h.n; v++ {
		end[v+1] += end[v]
	}
	flat := make([]int, end[h.n])
	each(func(v, i int) {
		flat[end[v]] = i
		end[v]++
	})
	out := make([][]int, h.n)
	for v, lo := 0, 0; v < h.n; v++ {
		out[v], lo = flat[lo:end[v]:end[v]], end[v]
	}
	return out
}

// InArcs returns the indices of hyperarcs whose head contains node v —
// the couplers node v listens on.
func (h *Hypergraph) InArcs(v int) []int {
	h.check(v)
	var in []int
	for i, a := range h.arcs {
		for _, u := range a.Head {
			if u == v {
				in = append(in, i)
				break
			}
		}
	}
	return in
}

// OutDegree returns the number of hyperarcs node v can transmit on.
func (h *Hypergraph) OutDegree(v int) int { return len(h.OutArcs(v)) }

// InDegree returns the number of hyperarcs node v listens on.
func (h *Hypergraph) InDegree(v int) int { return len(h.InArcs(v)) }

// Reachable reports whether node u can send a message directly (one hop,
// through a single hyperarc) to node v.
func (h *Hypergraph) Reachable(u, v int) bool {
	for _, i := range h.OutArcs(u) {
		for _, w := range h.arcs[i].Head {
			if w == v {
				return true
			}
		}
	}
	return false
}

// UnderlyingDigraph returns the point-to-point digraph induced by the
// hypergraph: an arc u -> v whenever u can reach v through some hyperarc.
// Hop-distances in the hypergraph equal distances in this digraph.
func (h *Hypergraph) UnderlyingDigraph() *digraph.Digraph {
	g := digraph.New(h.n)
	seen := make([]int, h.n) // seen[v] == u+1: arc u -> v already added
	for u, out := range h.OutArcLists() {
		for _, i := range out {
			for _, v := range h.arcs[i].Head {
				if seen[v] != u+1 {
					seen[v] = u + 1
					g.AddArc(u, v)
				}
			}
		}
	}
	return g
}

// Diameter returns the hop diameter of the hypergraph (messages relayed
// through hyperarcs), or digraph.Unreachable when not strongly connected.
func (h *Hypergraph) Diameter() int {
	return h.UnderlyingDigraph().Diameter()
}

// Equal reports whether two hypergraphs have the same node count and the
// same multiset of hyperarcs, where each hyperarc is compared as a pair of
// node sets (order inside tail/head is irrelevant).
func (h *Hypergraph) Equal(o *Hypergraph) bool {
	if h.n != o.n || len(h.arcs) != len(o.arcs) {
		return false
	}
	canon := func(arcs []Hyperarc) []string {
		keys := make([]string, len(arcs))
		for i, a := range arcs {
			t := append([]int(nil), a.Tail...)
			hd := append([]int(nil), a.Head...)
			sort.Ints(t)
			sort.Ints(hd)
			keys[i] = fmt.Sprintf("%v=>%v", t, hd)
		}
		sort.Strings(keys)
		return keys
	}
	a, b := canon(h.arcs), canon(o.arcs)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
