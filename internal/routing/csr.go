package routing

import (
	"fmt"
	"math"
)

// This file provides the compressed-sparse-row construction path used by
// time-sweep consumers. A constellation's +grid ISL adjacency is immutable
// over time — only the edge weights (propagation delays) change as the
// satellites move — so the adjacency structure is computed once per
// constellation and every snapshot materializes its graph by filling one
// contiguous edge array with that step's weights. A sweep cursor then
// refreshes an existing graph's weights in place between steps
// (SetCSRWeightsUndirected), with zero allocation.

// NewGraphCSR builds a graph over len(offsets)-1 nodes whose adjacency lists
// are views into one contiguous edge array (compressed sparse row layout).
// Directed edge k runs from the node whose offset range contains k to
// targets[k], with weight weights[weightIdx[k]]; sharing a weight slot
// between the two directions of an undirected edge keeps the weight array at
// one entry per physical link. The adjacency order within each node is
// exactly the order of the targets slice, so a CSR build can reproduce the
// insertion order of an AddEdge-based construction bit for bit.
//
// The offsets and targets slices are retained by the graph and must not be
// mutated afterwards; weightIdx and weights are read during construction but
// not retained.
func NewGraphCSR(offsets, targets, weightIdx []int32, weights []float64) *Graph {
	if len(offsets) == 0 || offsets[0] != 0 || int(offsets[len(offsets)-1]) != len(targets) {
		panic(fmt.Sprintf("routing: malformed CSR offsets (len %d, targets %d)", len(offsets), len(targets)))
	}
	if len(weightIdx) != len(targets) {
		panic(fmt.Sprintf("routing: CSR weightIdx length %d != targets length %d", len(weightIdx), len(targets)))
	}
	n := len(offsets) - 1
	edges := make([]Edge, len(targets))
	g := &Graph{
		adj:      make([][]Edge, n),
		csrEdges: edges,
	}
	for k, to := range targets {
		if to < 0 || int(to) >= n {
			panic(fmt.Sprintf("routing: CSR target %d out of range [0,%d)", to, n))
		}
		w := weights[weightIdx[k]]
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("routing: invalid edge weight %v", w))
		}
		edges[k] = Edge{To: NodeID(to), Weight: w}
		if w > g.maxW {
			g.maxW = w
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := offsets[i], offsets[i+1]
		if lo > hi {
			panic("routing: CSR offsets not non-decreasing")
		}
		// Full-slice expression: an accidental append through adj[i] may
		// never spill into the neighbouring node's edges.
		g.adj[i] = edges[lo:hi:hi]
	}
	return g
}

// SetCSRWeightsUndirected refreshes every edge weight of a CSR-built graph
// in place, given the two directed slots of each undirected edge (slotA[k],
// slotB[k]) and its weight: one pass over the physical links writes both
// directions and recomputes the max-weight bound. It is the sweep engine's
// per-step "rebuild": the adjacency structure is untouched and nothing
// allocates. The caller must guarantee no concurrent readers. Panics when
// the graph was not built by NewGraphCSR.
func (g *Graph) SetCSRWeightsUndirected(slotA, slotB []int32, weights []float64) {
	if g.csrEdges == nil {
		panic("routing: SetCSRWeightsUndirected on a non-CSR graph")
	}
	maxW := 0.0
	for k, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("routing: invalid edge weight %v", w))
		}
		g.csrEdges[slotA[k]].Weight = w
		g.csrEdges[slotB[k]].Weight = w
		if w > maxW {
			maxW = w
		}
	}
	g.maxW = maxW
}
