package constellation

import (
	"sync"

	"spacecdn/internal/routing"
)

// pathMemoCap is the floor of the per-snapshot tree memo capacity. The
// working set is every uplink satellite visible from the client cities — the
// CDN resolve path roots trees at each city's serving satellite (~100
// sources) and the ground fallback prices every visible uplink (~450 sources
// fleet-wide at the default scale) — so 1024 covers the paper's shell with
// headroom while bounding the worst-case footprint to ~20 MB per snapshot
// (1024 trees x ~20 KB). Bigger constellations have proportionally more
// visible uplinks, so the effective capacity scales with the satellite
// count: max(1024, N), set per constellation (Constellation.memoCap).
const pathMemoCap = 1024

// PathMemoCounters returns this constellation's path-tree memo hit and miss
// counts. Counters are per constellation — multi-shell experiments running
// several constellations in one process read their own effectiveness — and
// aggregate across the constellation's snapshots, because snapshots are
// created per instant and per system and would vanish with their counters.
func (c *Constellation) PathMemoCounters() (hits, misses int64) {
	return c.memoHits.Load(), c.memoMisses.Load()
}

// ResetPathMemoCounters zeroes the memo counters (test isolation).
func (c *Constellation) ResetPathMemoCounters() {
	c.memoHits.Store(0)
	c.memoMisses.Store(0)
}

// memoKey identifies one memoized tree: the source satellite and the
// composite epoch (Snapshot.memoEpoch) of the topology it was settled over —
// sweep generation in the high bits, fault epoch in the low. Epoch 0 is the
// healthy graph of a fresh snapshot; fault-masked views (Snapshot.Masked)
// memoize under their own fault epochs and sweep steps under their own
// generations, so a degraded or stale tree can never be served for a healthy
// current-step query or vice versa. Entries from past sweep steps simply age
// out of the LRU.
type memoKey struct {
	src   SatID
	epoch uint64
}

// memoNode is one LRU entry: a keyed settled tree, linked into a recency
// list (head = most recent).
type memoNode struct {
	key        memoKey
	tree       *routing.SPTree
	prev, next *memoNode
}

// pathMemo is a bounded, mutex-guarded LRU from (source, fault epoch) to
// shortest-path tree. Trees are rooted outside the lock; when two goroutines
// race on a miss the first insert wins and the other tree is dropped.
//
// Retention: a tree that is not yet exhausted keeps a pointer to its graph,
// so an entry holds its graph alive until the LRU evicts it. On a sweep
// cursor the healthy graph is one object refreshed in place, so that costs
// nothing; a masked view's graph, though, outlives clearMasked for as long
// as trees of that step remain in the LRU — a few past steps' worth (the cap
// over the ~400 trees a step roots), each graph O(edges).
type pathMemo struct {
	mu         sync.Mutex
	cap        int // max entries; 0 falls back to pathMemoCap
	nodes      map[memoKey]*memoNode
	head, tail *memoNode
}

// lookup returns the memoized tree for (src, epoch), refreshing its recency.
func (m *pathMemo) lookup(src SatID, epoch uint64) (*routing.SPTree, bool) {
	m.mu.Lock()
	nd := m.nodes[memoKey{src: src, epoch: epoch}]
	if nd == nil {
		m.mu.Unlock()
		return nil, false
	}
	m.moveToFront(nd)
	t := nd.tree
	m.mu.Unlock()
	return t, true
}

// insert memoizes a freshly rooted tree, evicting the least recently used
// entry beyond capacity, and returns the memoized tree. If a racing goroutine
// inserted the key first, its tree is kept and returned, so all callers share
// the settling work of one tree.
func (m *pathMemo) insert(src SatID, epoch uint64, t *routing.SPTree) *routing.SPTree {
	m.mu.Lock()
	defer m.mu.Unlock()
	capacity := m.cap
	if capacity <= 0 {
		capacity = pathMemoCap
	}
	if m.nodes == nil {
		m.nodes = make(map[memoKey]*memoNode, capacity)
	}
	key := memoKey{src: src, epoch: epoch}
	if nd := m.nodes[key]; nd != nil {
		m.moveToFront(nd)
		return nd.tree
	}
	nd := &memoNode{key: key, tree: t}
	m.nodes[key] = nd
	m.pushFront(nd)
	if len(m.nodes) > capacity {
		lru := m.tail
		m.unlink(lru)
		delete(m.nodes, lru.key)
	}
	return t
}

func (m *pathMemo) pushFront(nd *memoNode) {
	nd.prev = nil
	nd.next = m.head
	if m.head != nil {
		m.head.prev = nd
	}
	m.head = nd
	if m.tail == nil {
		m.tail = nd
	}
}

func (m *pathMemo) unlink(nd *memoNode) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		m.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		m.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
}

func (m *pathMemo) moveToFront(nd *memoNode) {
	if m.head == nd {
		return
	}
	m.unlink(nd)
	m.pushFront(nd)
}

// PathTree returns the single-source shortest-path tree over the snapshot's
// ISL graph rooted at src, memoized per snapshot under fault epoch 0 (the
// healthy topology): every client resolving through the same uplink
// satellite shares one tree, which settles only as far as its queries reach
// (routing.SPTree). A miss therefore costs the tree's allocation, not a
// Dijkstra. Returns nil when src is out of range.
//
// On a sweep cursor's snapshot the tree is valid only until the cursor next
// advances: the advance refreshes the graph's weights in place, and the memo
// never serves a tree across it (the generation is part of the key).
func (s *Snapshot) PathTree(src SatID) *routing.SPTree {
	return s.memoTree(s, src, 0)
}

// memoTree serves the tree rooted at src for one fault epoch of this
// snapshot, rooting it in the topology's graph (the snapshot's own, or a
// masked view's) on a miss.
func (s *Snapshot) memoTree(topo interface{ ISLGraph() *routing.Graph }, src SatID, faultEpoch uint64) *routing.SPTree {
	epoch := s.memoEpoch(faultEpoch)
	if t, ok := s.memo.lookup(src, epoch); ok {
		s.c.memoHits.Add(1)
		return t
	}
	s.c.memoMisses.Add(1)
	t := topo.ISLGraph().SPTreeFrom(routing.NodeID(src))
	if t == nil {
		return nil
	}
	return s.memo.insert(src, epoch, t)
}
