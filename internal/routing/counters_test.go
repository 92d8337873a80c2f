package routing

import "testing"

func TestOpCounters(t *testing.T) {
	ResetCounters()
	g := NewGraph(4)
	g.AddUndirected(0, 1, 1)
	g.AddUndirected(1, 2, 1)
	g.AddUndirected(2, 3, 1)

	if _, ok := g.ShortestPath(0, 3); !ok {
		t.Fatal("path expected")
	}
	_ = g.ShortestPathsFrom(0)
	_ = g.WithinHops(0, 2)
	if _, ok := g.NearestMatch(0, 3, func(n NodeID) bool { return n == 3 }); !ok {
		t.Fatal("match expected")
	}
	if _, ok := g.HopDistance(0, 2); !ok {
		t.Fatal("hop distance expected")
	}

	c := Counters()
	if c.Dijkstras != 2 {
		t.Errorf("Dijkstras = %d, want 2", c.Dijkstras)
	}
	// WithinHops + NearestMatch + HopDistance (via NearestMatch) = 3.
	if c.BFSSearches != 3 {
		t.Errorf("BFSSearches = %d, want 3", c.BFSSearches)
	}
	// The path 0-1-2-3: ShortestPath(0, 3) settles all four nodes before it
	// stops at 3, and ShortestPathsFrom(0) settles all four again.
	if c.DijkstraSettled != 8 {
		t.Errorf("DijkstraSettled = %d, want 4 + 4", c.DijkstraSettled)
	}
	// WithinHops(0, 2) reaches 0, 1, 2; NearestMatch for 3 reaches 0..3;
	// HopDistance(0, 2) reaches 0, 1, 2, stopping at its match.
	if c.BFSVisited != 3+4+3 {
		t.Errorf("BFSVisited = %d, want 3 + 4 + 3", c.BFSVisited)
	}

	// Out-of-range calls short-circuit before counting.
	_ = g.ShortestPathsFrom(99)
	_ = g.WithinHops(99, 1)
	if c2 := Counters(); c2 != c {
		t.Errorf("invalid inputs must not count: %+v vs %+v", c2, c)
	}

	ResetCounters()
	if c := Counters(); c != (OpStats{}) {
		t.Errorf("reset left %+v", c)
	}
}
