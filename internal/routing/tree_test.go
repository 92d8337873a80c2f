package routing_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"spacecdn/internal/constellation"
	"spacecdn/internal/routing"
)

// randomWeighted builds a random graph that exercises what a lazy tree could
// get wrong: small integer weights (many equal-cost paths, so ties decide
// predecessors), zero-weight edges, one-way edges, and — when sparse —
// several components, so some nodes are unreachable.
func randomWeighted(rng *rand.Rand, n, edges int) *routing.Graph {
	g := routing.NewGraph(n)
	for i := 0; i < edges; i++ {
		a, b := routing.NodeID(rng.Intn(n)), routing.NodeID(rng.Intn(n))
		w := float64(rng.Intn(4))
		if rng.Intn(3) == 0 {
			w += rng.Float64()
		}
		if rng.Intn(4) == 0 {
			g.AddEdge(a, b, w)
		} else {
			g.AddUndirected(a, b, w)
		}
	}
	return g
}

func shell1Graph(t testing.TB) *routing.Graph {
	t.Helper()
	return constellation.MustNew(constellation.DefaultConfig()).Snapshot(0).ISLGraph()
}

// checkNode asserts the tree's answers for node n equal an independent
// Dijkstra's: the distance, the hop count and every node of the path.
func checkNode(t *testing.T, g *routing.Graph, tree *routing.SPTree, want []float64, n routing.NodeID) {
	t.Helper()
	src := tree.Src()
	if got := tree.Dist(n); got != want[n] {
		t.Fatalf("src %d node %d: Dist %v, want %v", src, n, got, want[n])
	}
	ref, reachable := g.ShortestPath(src, n)
	hops, hok := tree.HopsTo(n)
	path, pok := tree.PathTo(n)
	if hok != reachable || pok != reachable || tree.Reachable(n) != reachable {
		t.Fatalf("src %d node %d: reachable %v, tree says hops %v path %v", src, n, reachable, hok, pok)
	}
	if !reachable {
		return
	}
	if hops != ref.Hops() || path.Cost != ref.Cost || len(path.Nodes) != len(ref.Nodes) {
		t.Fatalf("src %d node %d: hops %d path %+v, want %+v", src, n, hops, path, ref)
	}
	for i := range ref.Nodes {
		if path.Nodes[i] != ref.Nodes[i] {
			t.Fatalf("src %d node %d: path %v, want %v", src, n, path.Nodes, ref.Nodes)
		}
	}
}

// checkRandomOrder queries a fresh tree for every node in random order,
// with budgeted probes thrown in so the search is interrupted and resumed at
// arbitrary points, and compares each answer with the eager algorithms.
func checkRandomOrder(t *testing.T, rng *rand.Rand, g *routing.Graph, src routing.NodeID) {
	t.Helper()
	want := g.ShortestPathsFrom(src)
	tree := g.SPTreeFrom(src)
	for _, i := range rng.Perm(g.Len()) {
		if rng.Intn(3) == 0 {
			probe := routing.NodeID(rng.Intn(g.Len()))
			budget := rng.Float64() * 12
			d, ok := tree.DistWithin(probe, budget)
			if wantOK := want[probe] <= budget; ok != wantOK || (ok && d != want[probe]) {
				t.Fatalf("src %d: DistWithin(%d, %v) = %v %v, true distance %v", src, probe, budget, d, ok, want[probe])
			}
		}
		checkNode(t, g, tree, want, routing.NodeID(i))
	}
}

func TestLazyTreeMatchesDijkstraInAnyQueryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20240914))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(70)
		g := randomWeighted(rng, n, rng.Intn(3*n+1)) // sparse ones are disconnected
		checkRandomOrder(t, rng, g, routing.NodeID(rng.Intn(n)))
	}
	shell := shell1Graph(t)
	for _, src := range []routing.NodeID{21, 1583} {
		checkRandomOrder(t, rng, shell, src)
	}
}

func TestDistWithinBoundaries(t *testing.T) {
	// 0 -1.5- 1 -2.25- 2    3 (isolated)
	g := routing.NewGraph(4)
	g.AddUndirected(0, 1, 1.5)
	g.AddUndirected(1, 2, 2.25)
	const d2 = 3.75

	tree := g.SPTreeFrom(0)
	if d, ok := tree.DistWithin(2, math.Nextafter(d2, 0)); ok || !math.IsInf(d, 1) {
		t.Fatalf("one ulp under the distance: got %v %v, want +Inf false", d, ok)
	}
	if tree.Exhausted() {
		t.Fatal("a budgeted miss must leave the search resumable")
	}
	if d, ok := tree.DistWithin(2, d2); !ok || d != d2 {
		t.Fatalf("budget equal to the distance: got %v %v, want %v true", d, ok, d2)
	}
	// A settled node still answers by the budget it is asked with.
	if _, ok := tree.DistWithin(2, 1); ok {
		t.Fatal("settled node beyond the budget must read not ok")
	}
	if d, ok := tree.DistWithin(1, 1.5); !ok || d != 1.5 {
		t.Fatalf("settled node within the budget: got %v %v", d, ok)
	}
	if d, ok := tree.DistWithin(3, math.Inf(1)); ok || !math.IsInf(d, 1) {
		t.Fatalf("unreachable node: got %v %v, want +Inf false", d, ok)
	}
	if !tree.Exhausted() {
		t.Fatal("asking for an unreachable node must exhaust the search")
	}
	// Exhausted trees keep answering, for reachable and unreachable alike.
	if tree.Dist(2) != d2 || tree.Reachable(3) || tree.Dist(0) != 0 {
		t.Fatal("exhausted tree lost its answers")
	}
	for _, n := range []routing.NodeID{-1, 4} {
		if _, ok := tree.DistWithin(n, math.Inf(1)); ok {
			t.Fatalf("out-of-range node %d must read not ok", n)
		}
	}

	// A larger budget resumes a search a smaller one stopped, on a real graph.
	shell := shell1Graph(t)
	want := shell.ShortestPathsFrom(5)
	far := routing.NodeID(0)
	for n, d := range want {
		if d > want[far] {
			far = routing.NodeID(n)
		}
	}
	lazy := shell.SPTreeFrom(5)
	for _, frac := range []float64{0.1, 0.5, 0.999} {
		if _, ok := lazy.DistWithin(far, want[far]*frac); ok {
			t.Fatalf("budget %.3f of the distance reached the farthest node", frac)
		}
	}
	if d, ok := lazy.DistWithin(far, want[far]); !ok || d != want[far] {
		t.Fatalf("resumed search: got %v %v, want %v true", d, ok, want[far])
	}
}

func TestLazyTreeConcurrentQueries(t *testing.T) {
	g := shell1Graph(t)
	const src = 321
	want := g.ShortestPathsFrom(src)
	wantHops := make([]int, g.Len())
	for n := range wantHops {
		p, _ := g.ShortestPath(src, routing.NodeID(n))
		wantHops[n] = p.Hops()
	}
	tree := g.SPTreeFrom(src)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				n := routing.NodeID(rng.Intn(g.Len()))
				switch rng.Intn(3) {
				case 0:
					if d := tree.Dist(n); d != want[n] {
						t.Errorf("Dist(%d) = %v, want %v", n, d, want[n])
						return
					}
				case 1:
					budget := rng.Float64() * 60
					if d, ok := tree.DistWithin(n, budget); ok != (want[n] <= budget) || (ok && d != want[n]) {
						t.Errorf("DistWithin(%d, %v) = %v %v, true distance %v", n, budget, d, ok, want[n])
						return
					}
				default:
					if h, ok := tree.HopsTo(n); !ok || h != wantHops[n] {
						t.Errorf("HopsTo(%d) = %d %v, want %d", n, h, ok, wantHops[n])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// The bench reads routing.dijkstra_per_req off the package counters: one
// Dijkstra per tree rooted, however many queries resume it. DijkstraSettled
// counts the nodes popped, each exactly once: rooting pops nothing; Dist(800)
// pops node 800 and everything nearer, but not the nodes beyond it; a query
// on a settled node pops nothing; and settling the whole connected Shell 1
// graph pops every node once, so the total is g.Len().
func TestLazyTreeCounters(t *testing.T) {
	g := shell1Graph(t)
	routing.ResetCounters()
	tree := g.SPTreeFrom(0)
	if c := routing.Counters(); c.Dijkstras != 1 || c.DijkstraSettled != 0 {
		t.Fatalf("after rooting: %+v, want one Dijkstra and nothing settled", c)
	}
	tree.Dist(800)
	first := routing.Counters()
	if first.Dijkstras != 1 || first.DijkstraSettled <= 0 || first.DijkstraSettled >= int64(g.Len()) {
		t.Fatalf("after Dist(800): %+v, want one Dijkstra settling between 1 and %d nodes", first, g.Len()-1)
	}
	tree.Dist(800)
	tree.HopsTo(800)
	if c := routing.Counters(); c != first {
		t.Fatalf("queries on settled nodes moved the counters: %+v -> %+v", first, c)
	}
	for n := 0; n < g.Len(); n++ {
		if !tree.Reachable(routing.NodeID(n)) {
			t.Fatalf("node %d unreachable: the Shell 1 graph must be connected", n)
		}
	}
	if c := routing.Counters(); c.Dijkstras != 1 || c.DijkstraSettled != int64(g.Len()) {
		t.Fatalf("after settling everything: %+v, want one Dijkstra that settled all %d nodes", c, g.Len())
	}
	if g.SPTreeFrom(-1) != nil {
		t.Fatal("out-of-range source must root nothing")
	}
	if c := routing.Counters(); c.Dijkstras != 1 {
		t.Fatalf("an out-of-range source counted a Dijkstra: %+v", c)
	}
}
