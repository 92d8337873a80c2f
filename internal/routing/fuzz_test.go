package routing_test

import (
	"math"
	"testing"

	"spacecdn/internal/routing"
)

// fuzzWeights are the edge weights a fuzz graph draws from: dyadic, so
// every sum of a few of them is exact in float and a sum computed in any
// order is the same number, and duplicated, so equal-cost paths — ties —
// are common.
var fuzzWeights = [8]float64{0, 0.5, 1, 1, 1.5, 2, 2, 3.25}

// fuzzBudget decodes a query budget: 255 is unbounded, anything else is a
// multiple of 1/8 up to about 32.
func fuzzBudget(b byte) float64 {
	if b == 255 {
		return math.Inf(1)
	}
	return float64(b) / 8
}

// sptreeInput is one decoded fuzz input: an undirected graph of at most 64
// nodes and a sequence of (node, budget) queries.
type sptreeInput struct {
	g       *routing.Graph
	src     routing.NodeID
	srcs    []routing.NodeID // a goal set, at most four nodes
	d0      []float64        // their initial distances
	queries [][2]byte
}

// decodeSPTree reads data as: node count, source, edge count, then three
// bytes (a, b, weight) per edge, one (node, offset) pair per goal-set
// member (count in the low two bits of the fourth header byte), and the
// rest as (node, budget) query pairs.
func decodeSPTree(data []byte) (sptreeInput, bool) {
	if len(data) < 4 {
		return sptreeInput{}, false
	}
	n := 1 + int(data[0])%64
	in := sptreeInput{g: routing.NewGraph(n), src: routing.NodeID(int(data[1]) % n)}
	edges, goals := int(data[2])%128, 1+int(data[3])%4
	data = data[4:]
	for ; edges > 0 && len(data) >= 3; edges-- {
		in.g.AddUndirected(routing.NodeID(int(data[0])%n), routing.NodeID(int(data[1])%n), fuzzWeights[data[2]%8])
		data = data[3:]
	}
	for ; goals > 0 && len(data) >= 2; goals-- {
		in.srcs = append(in.srcs, routing.NodeID(int(data[0])%n))
		in.d0 = append(in.d0, float64(data[1]%16)/4)
		data = data[2:]
	}
	if len(in.srcs) == 0 {
		in.srcs, in.d0 = []routing.NodeID{0}, []float64{0}
	}
	for ; len(data) >= 2; data = data[2:] {
		in.queries = append(in.queries, [2]byte{data[0], data[1]})
	}
	return in, true
}

// FuzzSPTree holds the lazy shortest-path tree and the guided search to a
// full Dijkstra on random graphs with tied weights:
//   - a one-source tree, asked DistWithin and HopsTo in the input's order
//     and at its budgets, answers as ShortestPathsFrom and ShortestPath do;
//   - a multi-source tree equals the per-node minimum over one Dijkstra per
//     source plus its initial distance, at every budget;
//   - a search guided by that tree as its potential, whose visitor lowers
//     the bound whenever it reaches a goal, pops every node whose key —
//     true distance plus potential — is within the final bound, at exactly
//     its Dijkstra distance.
func FuzzSPTree(f *testing.F) {
	f.Add([]byte{8, 0, 12, 1, 0, 1, 2, 1, 2, 3, 2, 3, 2, 3, 4, 5, 4, 5, 2, 5, 6, 3, 6, 7, 1, 7, 0, 4, 0, 4, 2, 2, 6, 3, 1, 5, 6, 2, 3, 7, 0, 7, 4, 5, 3, 0, 255, 4, 16, 5, 8, 6, 24, 7, 3})
	f.Add([]byte{20, 3, 40, 3, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7, 8, 7, 8, 9, 0, 9, 10, 1, 10, 11, 2, 11, 12, 3, 12, 13, 4, 13, 14, 5, 14, 15, 6, 15, 16, 7, 16, 17, 0, 17, 18, 1, 18, 19, 2, 19, 0, 3, 0, 10, 6, 5, 15, 7, 2, 17, 1, 12, 4, 5, 8, 3, 15, 4, 19, 6, 9, 10, 1, 12, 255, 19, 40, 0, 0, 7, 9})
	f.Add([]byte{63, 10, 0, 2, 5, 3, 9, 1, 10, 0, 11, 255}) // no edges: everything but the sources unreachable
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeSPTree(data)
		if !ok {
			return
		}
		checkOneSource(t, in)
		checkMultiSource(t, in)
		checkGuided(t, in)
	})
}

func checkOneSource(t *testing.T, in sptreeInput) {
	g, src := in.g, in.src
	want := g.ShortestPathsFrom(src)
	hops := func(n routing.NodeID) (int, bool) {
		p, ok := g.ShortestPath(src, n)
		return p.Hops(), ok
	}
	tree := g.SPTreeFrom(src)
	for _, q := range in.queries {
		n, budget := routing.NodeID(int(q[0])%g.Len()), fuzzBudget(q[1])
		d, ok := tree.DistWithin(n, budget)
		if wantOK := want[n] <= budget && !math.IsInf(want[n], 1); ok != wantOK || ok && d != want[n] {
			t.Fatalf("src %d: DistWithin(%d, %v) = %v %v, Dijkstra %v", src, n, budget, d, ok, want[n])
		}
		if q[1]&1 == 1 {
			h, ok := tree.HopsTo(n)
			if wantH, wantOK := hops(n); ok != wantOK || h != wantH {
				t.Fatalf("src %d: HopsTo(%d) = %d %v, Dijkstra %d %v", src, n, h, ok, wantH, wantOK)
			}
		}
	}
	for n := routing.NodeID(0); int(n) < g.Len(); n++ {
		h, ok := tree.HopsTo(n)
		if wantH, wantOK := hops(n); tree.Dist(n) != want[n] || ok != wantOK || h != wantH {
			t.Fatalf("src %d node %d: Dist %v hops %d %v, Dijkstra %v hops %d %v", src, n, tree.Dist(n), h, ok, want[n], wantH, wantOK)
		}
	}
}

// multiSourceWant is the per-node minimum over the sources of the initial
// distance plus a one-source Dijkstra's.
func multiSourceWant(in sptreeInput) []float64 {
	want := make([]float64, in.g.Len())
	for i := range want {
		want[i] = math.Inf(1)
	}
	for i, s := range in.srcs {
		for n, d := range in.g.ShortestPathsFrom(s) {
			want[n] = min(want[n], in.d0[i]+d)
		}
	}
	return want
}

func checkMultiSource(t *testing.T, in sptreeInput) {
	want := multiSourceWant(in)
	tree := in.g.SPTreeFromSources(in.srcs, in.d0)
	isSrc := make(map[routing.NodeID]bool)
	for _, s := range in.srcs {
		isSrc[s] = true
	}
	check := func(n routing.NodeID, budget float64) {
		d, ok := tree.DistWithin(n, budget)
		if wantOK := want[n] <= budget && !math.IsInf(want[n], 1); ok != wantOK || ok && d != want[n] {
			t.Fatalf("sources %v at %v: DistWithin(%d, %v) = %v %v, want %v", in.srcs, in.d0, n, budget, d, ok, want[n])
		}
		if p, ok := tree.PathTo(n); ok && (!isSrc[p.Nodes[0]] || p.Nodes[len(p.Nodes)-1] != n || p.Cost != want[n]) {
			t.Fatalf("sources %v: PathTo(%d) = %+v, want a path from a source costing %v", in.srcs, n, p, want[n])
		}
	}
	for _, q := range in.queries {
		check(routing.NodeID(int(q[0])%in.g.Len()), fuzzBudget(q[1]))
	}
	for n := routing.NodeID(0); int(n) < in.g.Len(); n++ {
		check(n, math.Inf(1))
	}
}

func checkGuided(t *testing.T, in sptreeInput) {
	g, src := in.g, in.src
	want := g.ShortestPathsFrom(src)
	potential := multiSourceWant(in)
	field := g.SPTreeFromSources(in.srcs, in.d0)
	goal := make(map[routing.NodeID]float64)
	for i, s := range in.srcs {
		if d, ok := goal[s]; !ok || in.d0[i] < d {
			goal[s] = in.d0[i]
		}
	}
	bound := math.Inf(1)
	if len(in.queries) > 0 {
		bound = fuzzBudget(in.queries[0][1])
	}
	popped := make(map[routing.NodeID]float64)
	g.GuidedSearch(src, bound,
		func(v routing.NodeID, budget float64) (float64, bool) { return field.DistWithin(v, budget) },
		func(v routing.NodeID, d float64, hops int) float64 {
			if prev, ok := popped[v]; ok && !(d < prev) {
				t.Fatalf("src %d: node %d popped again at %v, first at %v", src, v, d, prev)
			}
			if minHops, _ := g.HopDistance(src, v); d < want[v] || hops < minHops {
				t.Fatalf("src %d: node %d popped at %v with %d hops; its distance is %v, %d hops at least", src, v, d, hops, want[v], minHops)
			}
			popped[v] = d
			if d0, ok := goal[v]; ok {
				bound = min(bound, d+d0)
			}
			return bound
		})
	for n := routing.NodeID(0); int(n) < g.Len(); n++ {
		key := want[n] + potential[n]
		if math.IsInf(key, 1) || key > bound {
			continue
		}
		if d, ok := popped[n]; !ok || d != want[n] {
			t.Fatalf("src %d bound %v: node %d (key %v) popped %v at %v, Dijkstra %v", src, bound, n, key, ok, d, want[n])
		}
	}
}
