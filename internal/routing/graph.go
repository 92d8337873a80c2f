// Package routing provides the graph algorithms the simulator uses on
// inter-satellite-link topologies: shortest weighted paths (Dijkstra),
// bounded-hop breadth-first search for replica discovery, and path objects
// carrying both hop counts and accumulated cost.
package routing

import (
	"fmt"
	"math"

	"spacecdn/internal/parallel"
)

// Process-wide operation counters. Graphs are rebuilt per snapshot and
// shared across systems, so per-graph instrumentation would either miss
// rebuilds or double count; instead the package keeps exact tallies that
// telemetry collectors export as gauges. Every request on every core adds to
// them, so they are striped: an operation adds to the slot its P's hint
// selects (parallel.StripeHint — a search owns no per-goroutine state to
// take an index from) and Counters sums the slots. They count work, not
// time: the per-op overhead is the hint and two uncontended adds, and a
// resumed SPTree pays them only when it actually settles nodes.
var ops struct {
	dijkstras       parallel.Striped
	dijkstraSettled parallel.Striped
	bfsSearches     parallel.Striped
	bfsVisited      parallel.Striped
}

// bfsDone accounts one bounded-hop search that reached visited nodes.
func bfsDone(visited int) {
	stripe := parallel.StripeHint()
	ops.bfsSearches.Add(stripe, 1)
	ops.bfsVisited.Add(stripe, int64(visited))
}

// OpStats is a snapshot of the package-wide path-computation counters.
type OpStats struct {
	// Dijkstras counts weighted shortest-path runs (single-target and
	// all-targets alike, one per SPTree rooted); DijkstraSettled counts the
	// nodes they settled (popped off the heap with a final distance).
	Dijkstras       int64
	DijkstraSettled int64
	// BFSSearches counts bounded-hop searches (WithinHops, NearestMatch,
	// NearestInSet, HopDistance); BFSVisited counts the nodes they reached,
	// the source included.
	BFSSearches int64
	BFSVisited  int64
}

// Counters returns the current process-wide op counters.
func Counters() OpStats {
	return OpStats{
		Dijkstras:       ops.dijkstras.Load(),
		DijkstraSettled: ops.dijkstraSettled.Load(),
		BFSSearches:     ops.bfsSearches.Load(),
		BFSVisited:      ops.bfsVisited.Load(),
	}
}

// ResetCounters zeroes the op counters (test isolation).
func ResetCounters() {
	ops.dijkstras.Reset()
	ops.dijkstraSettled.Reset()
	ops.bfsSearches.Reset()
	ops.bfsVisited.Reset()
}

// NodeID identifies a vertex. Satellite graphs use dense indices, so the
// graph is backed by slices.
type NodeID int

// Edge is a weighted, directed edge. Undirected graphs add both directions.
type Edge struct {
	To     NodeID
	Weight float64
}

// Graph is an adjacency-list weighted graph over nodes 0..N-1.
type Graph struct {
	adj  [][]Edge
	maxW float64 // largest edge weight added; bounds any h-hop path at h*maxW

	// CSR-built graphs (NewGraphCSR) keep the contiguous edge backing so
	// SetCSRWeightsUndirected can refresh all weights in place between
	// sweep steps. Nil for AddEdge-built graphs.
	csrEdges []Edge
}

// NewGraph creates a graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]Edge, n)}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.adj) }

// AddEdge adds a directed edge. It panics on out-of-range nodes or negative
// weights — both indicate construction bugs, not runtime conditions.
func (g *Graph) AddEdge(from, to NodeID, w float64) {
	if g.csrEdges != nil {
		// Appending through a CSR adjacency view would detach that node's
		// list from the shared edge backing and silently decouple it from
		// SetCSRWeightsUndirected refreshes.
		panic("routing: AddEdge on a CSR-built graph")
	}
	if from < 0 || int(from) >= len(g.adj) || to < 0 || int(to) >= len(g.adj) {
		panic(fmt.Sprintf("routing: edge %d->%d out of range [0,%d)", from, to, len(g.adj)))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("routing: invalid edge weight %v", w))
	}
	if w > g.maxW {
		g.maxW = w
	}
	g.adj[from] = append(g.adj[from], Edge{To: to, Weight: w})
}

// MaxEdgeWeight returns the largest edge weight in the graph (0 for an
// edgeless graph). Any path of h hops costs at most h*MaxEdgeWeight, which
// makes it the natural cost bound for hop-limited bounded searches.
func (g *Graph) MaxEdgeWeight() float64 { return g.maxW }

// AddUndirected adds the edge in both directions with the same weight.
func (g *Graph) AddUndirected(a, b NodeID, w float64) {
	g.AddEdge(a, b, w)
	g.AddEdge(b, a, w)
}

// Neighbors returns the outgoing edges of n. The returned slice is shared
// with the graph; callers must not modify it.
func (g *Graph) Neighbors(n NodeID) []Edge {
	if n < 0 || int(n) >= len(g.adj) {
		return nil
	}
	return g.adj[n]
}

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total
}

// Path is a route through the graph with its accumulated weight.
type Path struct {
	Nodes []NodeID
	Cost  float64
}

// Hops returns the number of edges on the path.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// ShortestPath runs Dijkstra from src to dst and returns the minimum-weight
// path. ok is false when dst is unreachable or either node is out of range.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	n := len(g.adj)
	if src < 0 || int(src) >= n {
		return Path{}, false
	}
	sc := getScratch(n)
	defer putScratch(sc)
	g.runDijkstra(sc, src, dst)
	if math.IsInf(sc.distAt(int32(dst)), 1) {
		return Path{}, false
	}
	return sc.pathTo(src, dst), true
}

// ShortestPathsFrom runs Dijkstra from src to every node and returns the
// distance slice (math.Inf(1) for unreachable nodes). Returns nil when src is
// out of range.
func (g *Graph) ShortestPathsFrom(src NodeID) []float64 {
	n := len(g.adj)
	if src < 0 || int(src) >= n {
		return nil
	}
	sc := getScratch(n)
	defer putScratch(sc)
	g.runDijkstra(sc, src, -1)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sc.distAt(int32(i))
	}
	return dist
}

// runDijkstra executes Dijkstra from src into the scratch arena. It stops
// early when stopAt is settled (pass -1 to settle everything). The caller
// must own sc and read results through the same epoch.
func (g *Graph) runDijkstra(sc *scratch, src, stopAt NodeID) {
	var settled int64
	defer func() {
		stripe := parallel.StripeHint()
		ops.dijkstras.Add(stripe, 1)
		ops.dijkstraSettled.Add(stripe, settled)
	}()
	sc.mark(int32(src), 0, -1)
	sc.heap.push(int32(src), 0)
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if it.dist > sc.dist[it.node] {
			continue // stale entry
		}
		settled++
		if NodeID(it.node) == stopAt {
			return
		}
		for _, e := range g.adj[it.node] {
			to := int32(e.To)
			if nd := it.dist + e.Weight; !sc.seen(to) || nd < sc.dist[to] {
				sc.mark(to, nd, it.node)
				sc.heap.push(to, nd)
			}
		}
	}
}

// pathTo materializes the predecessor chain ending at dst as a Path. It
// walks the chain twice — once to count, once to fill — so the result is a
// single exact-size allocation.
func (sc *scratch) pathTo(src, dst NodeID) Path {
	steps := 1
	for at := int32(dst); NodeID(at) != src && sc.prev[at] != -1; at = sc.prev[at] {
		steps++
	}
	nodes := make([]NodeID, steps)
	at := int32(dst)
	for i := steps - 1; ; i-- {
		nodes[i] = NodeID(at)
		if NodeID(at) == src || sc.prev[at] == -1 {
			break
		}
		at = sc.prev[at]
	}
	return Path{Nodes: nodes, Cost: sc.dist[dst]}
}

// HopResult describes a node found by bounded-hop search.
type HopResult struct {
	Node NodeID
	Hops int
}

// WithinHops returns all nodes reachable from src in at most maxHops edges
// (including src itself at 0 hops), in breadth-first order.
func (g *Graph) WithinHops(src NodeID, maxHops int) []HopResult {
	if src < 0 || int(src) >= len(g.adj) || maxHops < 0 {
		return nil
	}
	sc := getScratch(len(g.adj))
	defer putScratch(sc)
	sc.mark(int32(src), 0, -1)
	sc.queue = append(sc.queue, int32(src))
	head := 0
	for h := 1; h <= maxHops && head < len(sc.queue); h++ {
		levelEnd := len(sc.queue)
		for ; head < levelEnd; head++ {
			for _, e := range g.adj[sc.queue[head]] {
				to := int32(e.To)
				if !sc.seen(to) {
					sc.mark(to, float64(h), -1)
					sc.queue = append(sc.queue, to)
				}
			}
		}
	}
	bfsDone(len(sc.queue))
	// The queue holds every reached node in BFS order and dist its hop
	// count, so the result is allocated once at its final size.
	out := make([]HopResult, len(sc.queue))
	for i, id := range sc.queue {
		out[i] = HopResult{Node: NodeID(id), Hops: int(sc.dist[id])}
	}
	return out
}

// NearestMatch performs a breadth-first search from src and returns the first
// node (by hop count) satisfying match, up to maxHops. The weighted cost of
// the BFS path is not minimized; use ShortestPath for that. ok is false when
// no node matches within the bound.
func (g *Graph) NearestMatch(src NodeID, maxHops int, match func(NodeID) bool) (HopResult, bool) {
	if src < 0 || int(src) >= len(g.adj) || maxHops < 0 || match == nil {
		return HopResult{}, false
	}
	if match(src) {
		bfsDone(1)
		return HopResult{Node: src, Hops: 0}, true
	}
	sc := getScratch(len(g.adj))
	defer putScratch(sc)
	sc.mark(int32(src), 0, -1)
	sc.queue = append(sc.queue, int32(src))
	head := 0
	for h := 1; h <= maxHops && head < len(sc.queue); h++ {
		levelEnd := len(sc.queue)
		for ; head < levelEnd; head++ {
			for _, e := range g.adj[sc.queue[head]] {
				to := int32(e.To)
				if sc.seen(to) {
					continue
				}
				sc.mark(to, float64(h), -1)
				if match(e.To) {
					bfsDone(len(sc.queue) + 1)
					return HopResult{Node: e.To, Hops: h}, true
				}
				sc.queue = append(sc.queue, to)
			}
		}
	}
	bfsDone(len(sc.queue))
	return HopResult{}, false
}

// HopDistance returns the minimum hop count between src and dst, ignoring
// weights. ok is false when unreachable.
func (g *Graph) HopDistance(src, dst NodeID) (int, bool) {
	res, ok := g.NearestMatch(src, len(g.adj), func(n NodeID) bool { return n == dst })
	if !ok {
		return 0, false
	}
	return res.Hops, true
}
