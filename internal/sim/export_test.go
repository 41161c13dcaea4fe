package sim

import "fmt"

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
			r := e.routeOf(int(p.node), int(p.dst))
			heads[p.node] = headRequest(p.node, r)
		}
	}
	for _, u := range e.active {
		want := headRequest(u, e.routeOf(int(u), int(e.queues[u].front().dst)))
		if got := heads[u]; got != want {
			return fmt.Errorf("slot %d: node %d head request %+v, route entry of its queue front gives %+v", e.slot, u, got, want)
		}
	}
	return nil
}
