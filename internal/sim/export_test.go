package sim

import (
	"fmt"
	"runtime"
	"slices"
)

// HeadsError reports the first active node of e whose head-of-line
// request, once the pending list is applied the way the next step will
// apply it, differs from the route entry of its queue front. The engine is
// not modified.
func HeadsError(e *Engine) error {
	heads := map[int32]txRequest{}
	for _, u := range e.active {
		heads[u] = e.headReq[u]
	}
	for _, p := range e.pend {
		if _, active := heads[p.node]; active {
			r := e.cellOf(int(p.node), int(p.dst)).Route
			heads[p.node] = headRequest(p.node, r)
		}
	}
	for _, u := range e.active {
		want := headRequest(u, e.cellOf(int(u), int(e.queues[u].front().dst)).Route)
		if got := heads[u]; got != want {
			return fmt.Errorf("slot %d: node %d head request %+v, route entry of its queue front gives %+v", e.slot, u, got, want)
		}
	}
	return nil
}

// OnPipeCollected arranges for f to run once for e's traffic pipeline and
// once for each of its injection blocks, when each is garbage collected.
// Call it between runs, when every block sits on the free queue.
func OnPipeCollected(e *Engine, f func()) {
	g := e.gen
	run := func(f func()) { f() }
	runtime.AddCleanup(g, run, f)
	for range genBlocks {
		b := <-g.free
		runtime.AddCleanup(b, run, f)
		g.free <- b
	}
}

// PipeBlocks is the number of injection blocks each pipeline holds, and
// PipeBlockSlots the number of slot ends a block holds.
const PipeBlocks, PipeBlockSlots = genBlocks, genBlockSlots

// ExpandTopology returns per-node blocks of t, one row and one column
// class per node, filled by querying t once per (u, dst) pair: the
// RouteBlocks of a test fake that routes by hand. The delivers-here bit is
// the exact head-set membership the legacy engine tests per transmission:
// dst ∈ Heads(chosen coupler).
func ExpandTopology(t Topology) RouteBlocks {
	n, m := t.Nodes(), t.Couplers()
	id := make([]int32, n)
	for u := range id {
		id[u] = int32(u)
	}
	b := RouteBlocks{Row: id, Col: slices.Clone(id)}
	heard := make([][]int, n)
	for c := 0; c < m; c++ {
		for _, h := range t.Heads(c) {
			heard[h] = append(heard[h], c)
		}
	}
	var w blockWriter
	w.start(&b, n, n)
	vals := make([]RouteCell, n)
	for u := 0; u < n; u++ {
		for dst := range vals {
			c, hop := t.NextCoupler(u, dst)
			delivers := c >= 0 && c < m && slices.Contains(heard[dst], c)
			if delivers {
				hop = -1 // Entry reads dst
			}
			vals[dst] = RouteCell{MakeRouteEntry(c, hop, delivers), int32(t.Distance(u, dst))}
		}
		w.row(vals)
	}
	return b
}
