package sim

import (
	"fmt"
	"runtime"
)

// HeadsError reports the first active node of e whose head-of-line
// request, once the pending list is applied the way the next step will
// apply it, differs from the route entry of its queue front. The engine is
// not modified.
func HeadsError(e *Engine) error {
	heads := map[int32]txRequest{}
	for _, u := range e.active {
		heads[u] = e.nodes[u].req
	}
	for _, p := range e.pend {
		if _, active := heads[p.node]; active {
			r := e.routeOf(int(p.node), int(p.dst))
			heads[p.node] = headRequest(p.node, r)
		}
	}
	for _, u := range e.active {
		want := headRequest(u, e.routeOf(int(u), int(e.front(int(u)).dst)))
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

// NewListTopology returns the static topology of the network in which
// node u transmits on out[u] and coupler c is heard by heads[c], with the
// blocks BuildRouteBlocks makes from those lists: the type
// NewStackTopology and NewPointToPointTopology return.
func NewListTopology(out, heads [][]int) Topology { return newLists(out, heads) }
