package routing

import (
	"math"
	"sync"
)

// Scratch arenas for the graph algorithms. Every Dijkstra and BFS needs
// per-node state (tentative distance, predecessor, visited mark) plus a
// work list (priority queue or frontier). Allocating those per query is what
// made the request hot path allocation-bound, so the package keeps them in
// pooled, reusable scratch buffers:
//
//   - The per-node arrays are *epoch-stamped*: an entry is valid only when
//     its stamp equals the scratch's current epoch, and acquiring a scratch
//     bumps the epoch. Invalidating the whole arena is therefore one integer
//     increment instead of an O(n) clear. When the 32-bit epoch wraps, the
//     stamps are cleared once — every four billion queries, not every query.
//   - The priority queue is spHeap, an index-based binary heap over a
//     concrete item type, so pushes and pops never box through the
//     container/heap interface. Its sift rules replicate container/heap
//     exactly (strict less-than, left child preferred on ties), which keeps
//     the pop order — and therefore the tie-breaking among equal-cost paths —
//     bit-identical to the previous implementation. SPTree keeps one of its
//     own, so a tree and a scratch query pop ties in the same order.
//
// Scratches are pooled per goroutine via sync.Pool, so a graph shared by a
// worker pool can run concurrent queries race-free with zero steady-state
// allocations.

// spItem is a priority-queue entry: a node and its tentative distance.
type spItem struct {
	dist float64
	node int32
}

// scratch is one reusable query workspace. The per-node slices grow to the
// largest graph seen and are then reused across queries and graph sizes.
type scratch struct {
	epoch  uint32
	stamp  []uint32 // dist/prev/hops valid iff stamp[i] == epoch
	dist   []float64
	prev   []int32
	hops   []int32  // edge count of the path dist prices (GuidedSearch)
	closed []uint32 // expanded at its current dist iff closed[i] == epoch (GuidedSearch)
	heap   spHeap   // Dijkstra priority queue
	queue  []int32  // BFS frontier, consumed via a head cursor
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// getScratch returns a scratch sized for n nodes with a fresh epoch.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.prev = make([]int32, n)
		sc.hops = make([]int32, n)
		sc.closed = make([]uint32, n)
	}
	sc.epoch++
	if sc.epoch == 0 {
		// Wrapped: stale stamps from four billion queries ago could collide
		// with the new epoch, so clear once and restart at 1.
		clear(sc.stamp)
		clear(sc.closed)
		sc.epoch = 1
	}
	sc.heap = sc.heap[:0]
	sc.queue = sc.queue[:0]
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// seen reports whether node i carries state from the current query.
func (sc *scratch) seen(i int32) bool { return sc.stamp[i] == sc.epoch }

// mark stamps node i with distance d and predecessor p for this query.
func (sc *scratch) mark(i int32, d float64, p int32) {
	sc.stamp[i] = sc.epoch
	sc.dist[i] = d
	sc.prev[i] = p
}

// distAt returns node i's distance this query, or +Inf when untouched.
func (sc *scratch) distAt(i int32) float64 {
	if sc.stamp[i] == sc.epoch {
		return sc.dist[i]
	}
	return math.Inf(1)
}

// spHeap is the Dijkstra priority queue: a binary min-heap on dist.
type spHeap []spItem

// push appends an item and sifts it up. It makes the comparisons of
// container/heap's up() and ends in the same arrangement; it moves each
// displaced parent down once instead of swapping.
func (hp *spHeap) push(node int32, d float64) {
	*hp = append(*hp, spItem{})
	h := *hp
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(d < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = spItem{dist: d, node: node}
}

// pop removes and returns the minimum item. It mirrors container/heap's
// Pop: the last element takes the root's place and sifts down over the
// shortened heap (left child preferred unless the right is strictly
// smaller), so ties pop in the same order as the boxed implementation did;
// the sifted element is held aside and written once where it stops.
func (hp *spHeap) pop() spItem {
	h := *hp
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	*hp = h[:n]
	return top
}
