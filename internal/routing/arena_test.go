package routing

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a connected-ish random undirected graph for equivalence
// testing: a ring backbone plus extra chords.
func randomGraph(rng *rand.Rand, n, extra int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddUndirected(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*9)
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddUndirected(NodeID(a), NodeID(b), 1+rng.Float64()*9)
		}
	}
	return g
}

func TestScratchEpochWrap(t *testing.T) {
	g := NewGraph(4)
	g.AddUndirected(0, 1, 1)
	g.AddUndirected(1, 2, 1)
	g.AddUndirected(2, 3, 1)

	// Force the pooled scratch to the brink of wraparound, then run queries
	// across the wrap. Stale stamps from "four billion queries ago" must not
	// leak into the new epoch.
	sc := getScratch(4)
	sc.epoch = ^uint32(0) - 1
	// Plant state that would be "valid" if the wrap failed to clear stamps.
	sc.stamp[3] = 1 // will equal the post-wrap epoch unless cleared
	sc.dist[3] = 0.25
	putScratch(sc)

	for i := 0; i < 3; i++ {
		p, ok := g.ShortestPath(0, 3)
		if !ok || p.Cost != 3 || len(p.Nodes) != 4 {
			t.Fatalf("query %d across epoch wrap: got %+v ok=%v, want cost 3 over 4 nodes", i, p, ok)
		}
	}
}

func TestScratchGrowsAcrossGraphSizes(t *testing.T) {
	small := NewGraph(3)
	small.AddUndirected(0, 2, 5)
	big := NewGraph(64)
	for i := 0; i < 63; i++ {
		big.AddUndirected(NodeID(i), NodeID(i+1), 1)
	}
	// Interleave so the same pooled scratch serves both sizes.
	for i := 0; i < 4; i++ {
		if p, ok := small.ShortestPath(0, 2); !ok || p.Cost != 5 {
			t.Fatalf("small graph: got %+v ok=%v", p, ok)
		}
		if p, ok := big.ShortestPath(0, 63); !ok || p.Cost != 63 {
			t.Fatalf("big graph: got %+v ok=%v", p, ok)
		}
	}
}

func TestSPTreeMatchesShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 120)
	tree := g.SPTreeFrom(4)
	if tree == nil || tree.Src() != 4 || tree.Len() != 60 {
		t.Fatalf("bad tree: %+v", tree)
	}
	dist := g.ShortestPathsFrom(4)
	for n := 0; n < 60; n++ {
		if tree.Dist(NodeID(n)) != dist[n] {
			t.Fatalf("node %d: tree dist %v != ShortestPathsFrom %v", n, tree.Dist(NodeID(n)), dist[n])
		}
		p, ok := g.ShortestPath(4, NodeID(n))
		if !ok {
			continue
		}
		if hops, hok := tree.HopsTo(NodeID(n)); !hok || hops != p.Hops() {
			t.Fatalf("node %d: tree hops %d ok=%v != path hops %d", n, hops, hok, p.Hops())
		}
		tp, tok := tree.PathTo(NodeID(n))
		if !tok || tp.Cost != p.Cost || len(tp.Nodes) != len(p.Nodes) {
			t.Fatalf("node %d: tree path %+v != dijkstra path %+v", n, tp, p)
		}
		for i := range tp.Nodes {
			if tp.Nodes[i] != p.Nodes[i] {
				t.Fatalf("node %d: tree path nodes %v != %v", n, tp.Nodes, p.Nodes)
			}
		}
	}
}

func TestSPTreeOutOfRange(t *testing.T) {
	g := NewGraph(3)
	if g.SPTreeFrom(-1) != nil || g.SPTreeFrom(3) != nil {
		t.Fatal("SPTreeFrom out of range should return nil")
	}
	tree := g.SPTreeFrom(0)
	if tree.Reachable(5) || tree.Reachable(-1) {
		t.Fatal("out-of-range nodes must read unreachable")
	}
	if _, ok := tree.HopsTo(9); ok {
		t.Fatal("HopsTo out of range should report !ok")
	}
	if _, ok := tree.PathTo(9); ok {
		t.Fatal("PathTo out of range should report !ok")
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitset should be empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if b.Count() != 4 || !b.Any() {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 3 {
		t.Fatal("clear failed")
	}
	// Out-of-range ops are no-ops / false.
	b.Set(-1)
	b.Set(1000)
	b.Clear(1000)
	if b.Test(-1) || b.Test(1000) || b.Count() != 3 {
		t.Fatal("out-of-range ops must not disturb the set")
	}
	var nilSet Bitset
	if nilSet.Test(0) || nilSet.Any() || nilSet.Count() != 0 {
		t.Fatal("nil bitset must behave as the empty set")
	}
}

func TestBitsetIntersectsAny(t *testing.T) {
	a := NewBitset(130)
	b := NewBitset(130)
	if a.IntersectsAny(b) {
		t.Fatal("two empty sets must not intersect")
	}
	a.Set(5)
	a.Set(129)
	b.Set(64)
	if a.IntersectsAny(b) || b.IntersectsAny(a) {
		t.Fatal("disjoint sets must not intersect")
	}
	b.Set(129)
	if !a.IntersectsAny(b) || !b.IntersectsAny(a) {
		t.Fatal("sets sharing bit 129 must intersect")
	}
	// Mismatched lengths compare over the shared prefix; nil is empty.
	short := NewBitset(64)
	short.Set(5)
	if !a.IntersectsAny(short) || !short.IntersectsAny(a) {
		t.Fatal("shared prefix intersection missed")
	}
	var nilSet Bitset
	if a.IntersectsAny(nilSet) || nilSet.IntersectsAny(a) || nilSet.IntersectsAny(nilSet) {
		t.Fatal("nil operand must behave as the empty set")
	}
}

func TestNearestInSetMatchesNearestMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 80, 60)
	for trial := 0; trial < 50; trial++ {
		members := NewBitset(80)
		for i := 0; i < 80; i++ {
			if rng.Float64() < 0.1 {
				members.Set(i)
			}
		}
		var active Bitset
		if trial%2 == 1 {
			active = NewBitset(80)
			for i := 0; i < 80; i++ {
				if rng.Float64() < 0.7 {
					active.Set(i)
				}
			}
		}
		src := NodeID(rng.Intn(80))
		maxHops := rng.Intn(6)
		match := func(n NodeID) bool {
			return members.Test(int(n)) && (active == nil || active.Test(int(n)))
		}
		want, wok := g.NearestMatch(src, maxHops, match)
		got, gok := g.NearestInSet(src, maxHops, members, active)
		if wok != gok || want != got {
			t.Fatalf("trial %d src=%d maxHops=%d: NearestInSet=(%+v,%v) NearestMatch=(%+v,%v)",
				trial, src, maxHops, got, gok, want, wok)
		}
	}
}

func TestNearestInSetEmptyMembers(t *testing.T) {
	g := NewGraph(4)
	g.AddUndirected(0, 1, 1)
	if _, ok := g.NearestInSet(0, 4, nil, nil); ok {
		t.Fatal("nil members must miss")
	}
	if _, ok := g.NearestInSet(0, 4, NewBitset(4), nil); ok {
		t.Fatal("empty members must miss")
	}
}

func TestShortestPathZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 128, 100)
	// Warm the pool.
	g.ShortestPathsFrom(0)
	members := NewBitset(128)
	members.Set(90)
	allocs := testing.AllocsPerRun(200, func() {
		g.NearestInSet(5, 8, members, nil)
	})
	if allocs != 0 {
		t.Fatalf("NearestInSet allocs/op = %v, want 0", allocs)
	}
}

// TestGuidedSearchZeroAlloc: a guided search, its potential a lazy tree
// and its visitor lowering the bound, allocates nothing once the scratch
// pool is warm.
func TestGuidedSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 128, 100)
	field := g.SPTreeFromSources([]NodeID{90, 17}, []float64{0.5, 2})
	field.Dist(NodeID(5)) // settle what the searches read
	bound, pops := math.Inf(1), 0
	h := func(v NodeID, budget float64) (float64, bool) { return field.DistWithin(v, budget) }
	visit := func(v NodeID, d float64, hops int) float64 {
		pops++
		if v == 90 {
			bound = d + 0.5
		}
		return bound
	}
	g.GuidedSearch(5, math.Inf(1), h, visit)
	allocs := testing.AllocsPerRun(200, func() {
		bound = math.Inf(1)
		g.GuidedSearch(5, bound, h, visit)
	})
	if allocs != 0 || pops == 0 {
		t.Fatalf("GuidedSearch allocs/op = %v over %d pops, want 0", allocs, pops)
	}
}

func BenchmarkShortestPathsFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 1584, 3168)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPathsFrom(NodeID(i % 1584))
	}
}

func BenchmarkSPTreeFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 1584, 3168)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rooting a tree settles nothing; asking for every node settles it all.
		t := g.SPTreeFrom(NodeID(i % 1584))
		for n := 0; n < 1584; n++ {
			t.Dist(NodeID(n))
		}
	}
}
