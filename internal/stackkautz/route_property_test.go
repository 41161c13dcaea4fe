package stackkautz

// Route-invariant property tests (PR 5 test hardening) for the stack
// networks' *simulation* route tables — the route blocks the engine reads
// and FaultedTopology rebuilds — complementing the address-level Route tests:
// every (node, destination) entry names a coupler whose chosen head is
// strictly closer on the underlying digraph, and RouteAvoiding paths under
// random masked-group sets of every size up to d-1 never enter a masked
// group.

import (
	"math/rand"
	"testing"

	"otisnet/internal/kautz"
	"otisnet/internal/sim"
)

// checkStackRouteAdvance asserts strict distance progress of every route
// table entry of a stack topology.
func checkStackRouteAdvance(t *testing.T, name string, topo sim.Topology) {
	t.Helper()
	n, b := topo.Nodes(), topo.RouteBlocks()
	for u := 0; u < n; u++ {
		for dst := 0; dst < n; dst++ {
			if u == dst {
				continue
			}
			r := b.Entry(u, dst)
			c, hop := r.Coupler(), r.NextHop()
			if c < 0 || hop < 0 {
				t.Fatalf("%s: no route %d->%d", name, u, dst)
			}
			if got, want := b.Distance(hop, dst), b.Distance(u, dst)-1; got != want {
				t.Fatalf("%s: hop %d->%d toward %d does not advance (dist %d, want %d)",
					name, u, hop, dst, got, want)
			}
			// The named coupler must actually be drivable by u and heard by
			// the chosen hop.
			if !contains(topo.OutCouplers(u), c) {
				t.Fatalf("%s: route %d->%d names coupler %d that %d cannot drive", name, u, dst, c, u)
			}
			if !contains(topo.Heads(c), hop) {
				t.Fatalf("%s: route %d->%d names hop %d that coupler %d does not reach", name, u, dst, hop, c)
			}
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestStackSimRouteTablesAdvanceTowardDestination(t *testing.T) {
	cases := map[string]sim.Topology{
		"SK(3,2,2)":        sim.NewStackTopology(New(3, 2, 2).StackGraph()),
		"SK(2,3,2)":        sim.NewStackTopology(New(2, 3, 2).StackGraph()),
		"stack-II(2,2,10)": sim.NewStackTopology(NewII(2, 2, 10).StackGraph()),
		"stack-II(3,3,12)": sim.NewStackTopology(NewII(3, 3, 12).StackGraph()),
	}
	for name, topo := range cases {
		checkStackRouteAdvance(t, name, topo)
	}
}

// TestRouteAvoidingRandomMaskSizes extends TestRouteAvoidingFaultyGroups
// across every fault-set size 1..d-1 and several network shapes: the route
// must exist, be model-valid, stay within k+2 hops and keep its interior
// clear of every masked group.
func TestRouteAvoidingRandomMaskSizes(t *testing.T) {
	for _, nw := range []*Network{New(3, 3, 2), New(2, 4, 2), New(4, 3, 3)} {
		kg := nw.Kautz()
		rng := rand.New(rand.NewSource(int64(nw.D()*1000 + nw.K())))
		for trial := 0; trial < 150; trial++ {
			u, v := rng.Intn(kg.N()), rng.Intn(kg.N())
			if u == v {
				continue
			}
			nf := 1 + rng.Intn(nw.D()-1)
			faulty := map[int]bool{}
			for len(faulty) < nf {
				f := rng.Intn(kg.N())
				if f != u && f != v {
					faulty[f] = true
				}
			}
			src := Address{Group: kg.LabelOf(u), Member: rng.Intn(nw.S())}
			dst := Address{Group: kg.LabelOf(v), Member: rng.Intn(nw.S())}
			r, _ := nw.RouteAvoiding(src, dst, func(w kautz.Label) bool { return faulty[kg.Index(w)] })
			if r == nil {
				t.Fatalf("SK(%d,%d,%d): no route %v->%v around %d masked groups", nw.S(), nw.D(), nw.K(), src, dst, nf)
			}
			if !nw.ValidRoute(r) {
				t.Fatalf("SK(%d,%d,%d): invalid route %v", nw.S(), nw.D(), nw.K(), r)
			}
			if len(r)-1 > nw.K()+2 {
				t.Fatalf("SK(%d,%d,%d): route %v has %d hops > k+2 under %d <= d-1 masked groups",
					nw.S(), nw.D(), nw.K(), r, len(r)-1, nf)
			}
			for _, a := range r[1 : len(r)-1] {
				if faulty[kg.Index(a.Group)] {
					t.Fatalf("SK(%d,%d,%d): route %v enters masked group %s", nw.S(), nw.D(), nw.K(), r, a.Group)
				}
			}
		}
	}
}
