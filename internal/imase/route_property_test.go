package imase

// Route-invariant property test (PR 5 test hardening): Imase-Itoh graphs
// have no label-induced routing (that is the point of §3 — only Kautz
// orders do), so their simulation routing is the precomputed table of
// sim.NewPointToPointTopology. This test pins that table's loop-freedom:
// every entry's next hop strictly decreases the BFS distance to the
// destination, for a spread of (d,n) including non-Kautz orders.

import (
	"testing"

	"otisnet/internal/sim"
)

func TestSimRouteTableAdvancesTowardDestination(t *testing.T) {
	for _, p := range [][2]int{{2, 6}, {2, 10}, {3, 10}, {3, 12}, {4, 9}} {
		d, n := p[0], p[1]
		ii := New(d, n)
		g := ii.Digraph()
		b := sim.NewPointToPointTopology(g).RouteBlocks()
		rows := make([][]int, n)
		for u := 0; u < n; u++ {
			rows[u] = g.BFS(u)
		}
		for u := 0; u < n; u++ {
			for dst := 0; dst < n; dst++ {
				if u == dst {
					continue
				}
				r := b.Entry(u, dst)
				c, hop := r.Coupler(), r.NextHop()
				if c < 0 || hop < 0 {
					t.Fatalf("II(%d,%d): no route %d->%d", d, n, u, dst)
				}
				if rows[hop][dst] != rows[u][dst]-1 {
					t.Fatalf("II(%d,%d): hop %d->%d toward %d does not advance (dist %d -> %d)",
						d, n, u, hop, dst, rows[u][dst], rows[hop][dst])
				}
			}
		}
	}
}
