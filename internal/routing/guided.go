package routing

import "spacecdn/internal/parallel"

// GuidedSearch runs a shortest-path search from src that a caller-supplied
// potential steers toward a goal, on the pooled scratch arena and with no
// allocation. It pops nodes in order of the key dist(v) + h(v), where dist
// is summed left to right from src exactly as Dijkstra sums it, and stops
// once the least key exceeds bound.
//
// h(v, budget) returns the potential of v, or false to refuse v when its
// potential exceeds budget (the bound less v's distance, so a refused node
// could not be popped anyway). For the search to be exact, h must be a
// lower bound on what lies beyond v and consistent along each edge,
// h(a) <= w(a,b) + h(b) — the distance to a goal set computed by Dijkstra
// over the same graph is both, up to float rounding in the sums. Such
// rounding may reorder keys by a few ulps, so the search is label-correcting:
// a node whose distance improves after it was popped is pushed and popped
// again. With a consistent h, every node v whose shortest distance d
// satisfies d + h(v) <= bound, less that rounding, is popped with dist = d:
// the float minimum, over all paths from src, of the left-fold sum, which is
// what Dijkstra returns, because float addition is monotone. A caller that
// needs the guarantee at a bound leaves a margin above it for the rounding.
//
// visit is called on every pop with the node, its distance and the edge
// count of the path that distance prices, and returns the bound for the
// rest of the search; a return above the current bound is ignored. A node
// popped again is visited again, each time with a smaller distance. The
// settled (popped) nodes count in Counters like any other search's.
func (g *Graph) GuidedSearch(src NodeID, bound float64, h func(v NodeID, budget float64) (float64, bool), visit func(v NodeID, dist float64, hops int) float64) {
	n := len(g.adj)
	if src < 0 || int(src) >= n {
		return
	}
	hs, ok := h(src, bound)
	if !ok {
		return
	}
	sc := getScratch(n)
	var settled int64
	sc.mark(int32(src), 0, -1)
	sc.hops[src] = 0
	sc.heap.push(int32(src), hs)
	for len(sc.heap) > 0 && sc.heap[0].dist <= bound {
		v := sc.heap.pop().node
		if sc.closed[v] == sc.epoch {
			continue // an entry pushed before the node's last improvement
		}
		sc.closed[v] = sc.epoch
		settled++
		d, hops := sc.dist[v], sc.hops[v]
		if b := visit(NodeID(v), d, int(hops)); b < bound {
			bound = b
		}
		for _, e := range g.adj[v] {
			to := int32(e.To)
			nd := d + e.Weight
			if sc.seen(to) && !(nd < sc.dist[to]) {
				continue
			}
			ht, ok := h(e.To, bound-nd)
			if !ok || nd+ht > bound {
				continue
			}
			sc.mark(to, nd, v)
			sc.hops[to] = hops + 1
			sc.closed[to] = 0
			sc.heap.push(to, nd+ht)
		}
	}
	putScratch(sc)
	stripe := parallel.StripeHint()
	ops.dijkstras.Add(stripe, 1)
	ops.dijkstraSettled.Add(stripe, settled)
}
