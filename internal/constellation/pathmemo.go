package constellation

import (
	"sync/atomic"

	"spacecdn/internal/parallel"
	"spacecdn/internal/routing"
)

// pathTrees is the table of shortest-path trees rooted in one topology — a
// snapshot's healthy graph, or one masked view's — with one slot per source
// satellite. The working set is every uplink satellite visible from a client
// city or a ground station (~450 sources at the default scale), each source
// has exactly one tree per topology, and so the table needs no capacity, no
// eviction and no key: a hit is a bounds check and an atomic load. Slots are
// allocated on the topology's first tree (12 KB at 1,584 satellites; a
// snapshot never routed over pays nothing) and published by compare-and-swap.
//
// The table lives and dies with its topology. A fresh snapshot's trees go
// with the snapshot; a masked view's go with the view, so a sweep step's
// degraded graphs are collectable as soon as clearMasked drops the views;
// and the sweep cursor, whose healthy graph is one object re-weighted in
// place, empties its snapshot's table on every advance (retire).
type pathTrees struct {
	slots atomic.Pointer[[]atomic.Pointer[routing.SPTree]]
}

// tree returns the table's tree rooted at src, rooting it in topo's graph on
// a miss. Racing first callers each root a tree and the first to publish
// wins: the losers adopt the winner's, so all share one tree's settling.
// Every lookup counts exactly once, as a hit or a miss, on the
// constellation's striped counters. Returns nil when src is out of range.
func (p *pathTrees) tree(c *Constellation, topo interface{ ISLGraph() *routing.Graph }, src SatID) *routing.SPTree {
	if src < 0 || int(src) >= len(c.elements) {
		c.memoMisses.Add(parallel.StripeHint(), 1)
		return nil
	}
	tab := p.slots.Load()
	if tab == nil {
		fresh := make([]atomic.Pointer[routing.SPTree], len(c.elements))
		p.slots.CompareAndSwap(nil, &fresh)
		tab = p.slots.Load()
	}
	slot := &(*tab)[src]
	if t := slot.Load(); t != nil {
		c.memoHits.Add(parallel.StripeHint(), 1)
		return t
	}
	c.memoMisses.Add(parallel.StripeHint(), 1)
	t := topo.ISLGraph().SPTreeFrom(routing.NodeID(src))
	if slot.CompareAndSwap(nil, t) {
		return t
	}
	return slot.Load()
}

// retire empties the table in place, keeping its storage. Only the sweep
// cursor calls it, at the point where it rewrites positions and weights —
// the caller already guarantees no reader is active, so a plain clear
// suffices (and an advance stays allocation-free).
func (p *pathTrees) retire() {
	if tab := p.slots.Load(); tab != nil {
		clear(*tab)
	}
}

// PathMemoCounters returns this constellation's path-tree table hit and miss
// counts. Counters are per constellation — multi-shell experiments running
// several constellations in one process read their own effectiveness — and
// aggregate across the constellation's snapshots and views, because those
// are created per instant and per system and would vanish with their
// counters. Both are exact: hits + misses is the number of lookups.
func (c *Constellation) PathMemoCounters() (hits, misses int64) {
	return c.memoHits.Load(), c.memoMisses.Load()
}

// ResetPathMemoCounters zeroes the counters (test isolation).
func (c *Constellation) ResetPathMemoCounters() {
	c.memoHits.Reset()
	c.memoMisses.Reset()
}

// PathTree returns the single-source shortest-path tree over the snapshot's
// healthy ISL graph rooted at src: every client resolving through the same
// uplink satellite shares one tree, which settles only as far as its queries
// reach (routing.SPTree). A miss therefore costs the tree's allocation, not
// a Dijkstra. Returns nil when src is out of range.
//
// On a sweep cursor's snapshot the tree is valid only until the cursor next
// advances: the advance refreshes the graph's weights in place and empties
// the table, so no later lookup can be served a tree of an earlier step.
func (s *Snapshot) PathTree(src SatID) *routing.SPTree {
	return s.trees.tree(s.c, s, src)
}
