package routing

import "math/bits"

// Bitset is a dense node-membership set over graph nodes 0..N-1, one bit per
// node. The resolve hot path keeps replica locations and duty-cycle active
// sets as bitsets so a BFS membership probe is a single word test instead of
// a virtual method call per visited node.
type Bitset []uint64

// NewBitset returns a bitset sized for n nodes.
func NewBitset(n int) Bitset {
	if n < 0 {
		n = 0
	}
	return make(Bitset, (n+63)/64)
}

// Set marks node i as a member. Out-of-range indices are ignored.
func (b Bitset) Set(i int) {
	if w := i >> 6; i >= 0 && w < len(b) {
		b[w] |= 1 << (uint(i) & 63)
	}
}

// Clear removes node i. Out-of-range indices are ignored.
func (b Bitset) Clear(i int) {
	if w := i >> 6; i >= 0 && w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// Test reports whether node i is a member. Out-of-range reads are false, so
// a nil Bitset is the empty set.
func (b Bitset) Test(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(b) && b[w]>>(uint(i)&63)&1 == 1
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether the set is non-empty.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// IntersectsAny reports whether the two sets share at least one member.
// Either side may be nil (the empty set); lengths need not match.
func (b Bitset) IntersectsAny(other Bitset) bool {
	n := len(b)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if b[i]&other[i] != 0 {
			return true
		}
	}
	return false
}

// NearestInSet is NearestMatch with the predicate "member of members, and of
// active when active is non-nil" evaluated as bitset word tests — the
// allocation-free form of the replica search, where members holds the
// satellites caching the object and active the duty-cycled-on fleet. The
// traversal order, and therefore the returned node on any input, is
// identical to NearestMatch with the equivalent closure; a nil or empty
// members set short-circuits to a miss without touching the graph.
func (g *Graph) NearestInSet(src NodeID, maxHops int, members, active Bitset) (HopResult, bool) {
	if src < 0 || int(src) >= len(g.adj) || maxHops < 0 || !members.Any() {
		return HopResult{}, false
	}
	inSet := func(n int32) bool {
		return members.Test(int(n)) && (active == nil || active.Test(int(n)))
	}
	if inSet(int32(src)) {
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
				if inSet(to) {
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
