package routing

import (
	"math"
	"sync"
	"sync/atomic"

	"spacecdn/internal/parallel"
)

// SPTree is a shortest-path tree that settles on demand: it owns Dijkstra's
// state (tentative distances, predecessors, the priority queue) and a query
// resumes the search only until the asked node is popped. Pricing a handful
// of nearby nodes therefore costs a handful of pops, not a pass over the
// graph, while a query for a far node pays for everything nearer on the way.
// Because a resumed search pops in exactly the order of an uninterrupted one,
// every distance, predecessor and tie is the one a full Dijkstra from the
// root settles, whatever the order of the queries.
//
// The root is a virtual source joined to each of the tree's sources at that
// source's initial distance (SPTreeFromSources), so a node's distance is the
// least, over the sources, of the initial distance plus the path from that
// source; a one-source tree at distance 0 (SPTreeFrom) is plain
// single-source Dijkstra. Predecessor chains end at a source.
//
// A tree is the unit of sharing for per-snapshot memoization and is safe for
// concurrent use. A node's settled bit is published atomically once its
// distance and predecessor are final, so queries on settled nodes — the warm
// case — take no lock. Nor do queries the search has already outrun: after
// every locked resume the tree publishes its frontier, the least tentative
// distance left in the heap. Dijkstra pops in non-decreasing order and pushes
// nothing below what it popped, so the frontier only grows and a published
// value stays a lower bound on every unsettled node for the tree's life; a
// budget below it is refused without the mutex. Only a query that has to
// move the search takes it.
//
// The tree reads edge weights from its graph as it goes, so it is valid only
// while those weights stand: a tree rooted in a CSR graph must not be
// queried after SetCSRWeightsUndirected refreshes that graph.
type SPTree struct {
	g    *Graph
	src  NodeID    // the first source
	dist []float64 // final where settled; tentative or +Inf elsewhere
	prev []int32   // -1 at a source and where no predecessor
	done []atomic.Uint32

	// frontier is math.Float64bits of the heap's least distance as of the
	// last locked resume (+Inf once exhausted); set at construction to the
	// least initial distance.
	frontier atomic.Uint64

	mu   sync.Mutex // guards heap and the unsettled part of dist/prev
	heap spHeap     // nil once the search is exhausted
}

// SPTreeFrom roots a shortest-path tree at src: the one-source case of
// SPTreeFromSources, at distance 0. Nothing is settled until the tree is
// asked. Returns nil when src is out of range.
func (g *Graph) SPTreeFrom(src NodeID) *SPTree {
	return g.SPTreeFromSources([]NodeID{src}, []float64{0})
}

// SPTreeFromSources roots a shortest-path tree at a virtual source joined to
// each srcs[i] at distance d0[i]: every node's distance is the least
// d0[i] + (path from srcs[i]), summed left to right from d0[i]. A source
// listed twice keeps its smaller initial distance (the first on a tie).
// Nothing is settled until the tree is asked. Returns nil when there are no
// sources, the slices differ in length, a source is out of range or an
// initial distance is negative or NaN. Neither slice is retained.
func (g *Graph) SPTreeFromSources(srcs []NodeID, d0 []float64) *SPTree {
	n := len(g.adj)
	if len(srcs) == 0 || len(srcs) != len(d0) {
		return nil
	}
	for i, s := range srcs {
		if s < 0 || int(s) >= n || !(d0[i] >= 0) {
			return nil
		}
	}
	ops.dijkstras.Add(parallel.StripeHint(), 1)
	t := &SPTree{
		g:    g,
		src:  srcs[0],
		dist: make([]float64, n),
		prev: make([]int32, n),
		done: make([]atomic.Uint32, (n+31)/32),
	}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.prev[i] = -1
	}
	for i, s := range srcs {
		if d0[i] < t.dist[s] {
			t.dist[s] = d0[i]
			t.heap.push(int32(s), d0[i])
		}
	}
	t.frontier.Store(math.Float64bits(t.heap[0].dist))
	return t
}

// Src returns the tree's (first) source node.
func (t *SPTree) Src() NodeID { return t.src }

// Len returns the number of nodes the tree covers.
func (t *SPTree) Len() int { return len(t.dist) }

func (t *SPTree) settled(n int32) bool { return t.done[n>>5].Load()&(1<<uint(n&31)) != 0 }

// Dist returns the shortest distance from the root to n, or +Inf when n is
// unreachable or out of range.
func (t *SPTree) Dist(n NodeID) float64 {
	d, _ := t.DistWithin(n, math.Inf(1))
	return d
}

// DistWithin returns the shortest distance to n when it is at most budget.
// The search stops as soon as its frontier exceeds the budget, so a node
// beyond it — or unreachable, or out of range — reads (+Inf, false) without
// being settled; a later call with a larger budget resumes from there.
func (t *SPTree) DistWithin(n NodeID, budget float64) (float64, bool) {
	if n < 0 || int(n) >= len(t.dist) {
		return math.Inf(1), false
	}
	// The frontier is read before the settled bit: a node still unsettled
	// after the read lies at or beyond that frontier, whereas a frontier read
	// afterwards could have moved past a node settled in between.
	frontier := math.Float64frombits(t.frontier.Load())
	if t.settled(int32(n)) || (frontier <= budget && t.settle(int32(n), budget)) {
		if d := t.dist[n]; d <= budget && d < math.Inf(1) {
			return d, true
		}
	}
	return math.Inf(1), false
}

// settle resumes Dijkstra until n is popped, the frontier exceeds budget, or
// the heap drains, and reports whether n is settled. Pops are non-decreasing,
// so a frontier beyond the budget proves every unsettled node is beyond it.
func (t *SPTree) settle(n int32, budget float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.settled(n) {
		return true
	}
	if t.heap[0].dist > budget {
		return false // the frontier moved past budget since the caller read it
	}
	var popped int64
	for !t.settled(n) && t.heap[0].dist <= budget {
		it := t.heap.pop()
		if it.dist <= t.dist[it.node] { // else a stale entry
			popped++
			// dist/prev of a popped node never change again: publish it.
			w := &t.done[it.node>>5]
			w.Store(w.Load() | 1<<uint(it.node&31))
			for _, e := range t.g.adj[it.node] {
				if nd := it.dist + e.Weight; nd < t.dist[e.To] {
					t.dist[e.To] = nd
					t.prev[e.To] = it.node
					t.heap.push(int32(e.To), nd)
				}
			}
		}
		if len(t.heap) == 0 {
			// Exhausted: what is still unsettled is unreachable at +Inf, and
			// final. Mark everything settled so no query locks again, and
			// release the heap and the graph.
			for i := range t.done {
				t.done[i].Store(^uint32(0))
			}
			t.heap, t.g = nil, nil
		}
	}
	frontier := math.Inf(1)
	if len(t.heap) > 0 {
		frontier = t.heap[0].dist
	}
	t.frontier.Store(math.Float64bits(frontier))
	ops.dijkstraSettled.Add(parallel.StripeHint(), popped)
	return t.settled(n)
}

// Reachable reports whether n can be reached from the source.
func (t *SPTree) Reachable(n NodeID) bool { return !math.IsInf(t.Dist(n), 1) }

// HopsTo returns the edge count of the shortest path to n from the source it
// leaves, by walking the predecessor chain — no allocation. ok is false when
// n is unreachable or out of range.
func (t *SPTree) HopsTo(n NodeID) (int, bool) {
	if !t.Reachable(n) {
		return 0, false
	}
	hops := 0
	for at := int32(n); t.prev[at] != -1; at = t.prev[at] {
		hops++
	}
	return hops, true
}

// PathTo materializes the shortest path to n from the source it leaves. ok
// is false when n is unreachable or out of range.
func (t *SPTree) PathTo(n NodeID) (Path, bool) {
	hops, ok := t.HopsTo(n)
	if !ok {
		return Path{}, false
	}
	nodes := make([]NodeID, hops+1)
	at := int32(n)
	for i := hops; ; i-- {
		nodes[i] = NodeID(at)
		if t.prev[at] == -1 {
			break
		}
		at = t.prev[at]
	}
	return Path{Nodes: nodes, Cost: t.dist[n]}, true
}
