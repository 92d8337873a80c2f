package routing

import (
	"math"
	"testing"
	"time"
)

// TestSPTreeFrontierRuleOutTakesNoLock: once the search has passed a budget,
// a query within it for an unsettled node is refused off the published
// frontier — with the tree's mutex held by someone else, and without
// settling anything (DijkstraSettled does not move). Settled nodes answer
// under the same conditions.
func TestSPTreeFrontierRuleOutTakesNoLock(t *testing.T) {
	g := grid(20, 20)
	tree := g.SPTreeFrom(0)
	if d, ok := tree.DistWithin(NodeID(3), 5); !ok || d != 3 {
		t.Fatalf("DistWithin(3, 5) = (%v, %v), want (3, true)", d, ok)
	}
	// The search stopped when node 3 was popped at distance 3: everything
	// nearer is settled, the far corner of the torus (distance 20) is not.
	far := NodeID(10*20 + 10)
	before := Counters()
	tree.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if d, ok := tree.DistWithin(far, 2.5); ok || !math.IsInf(d, 1) {
			t.Errorf("DistWithin(far, 2.5) = (%v, %v), want (+Inf, false)", d, ok)
		}
		if d, ok := tree.DistWithin(NodeID(2), 2.5); !ok || d != 2 {
			t.Errorf("DistWithin(2, 2.5) on a settled node = (%v, %v), want (2, true)", d, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a frontier-ruled-out or settled query waited for the tree mutex")
	}
	tree.mu.Unlock()
	if after := Counters(); after != before {
		t.Fatalf("a ruled-out query moved the op counters: %+v -> %+v", before, after)
	}
	if tree.settled(int32(far)) {
		t.Fatal("a ruled-out query settled its node")
	}
	// A budget the frontier has not passed still resumes the search.
	if d, ok := tree.DistWithin(far, 25); !ok || d != 20 {
		t.Fatalf("DistWithin(far, 25) = (%v, %v), want (20, true)", d, ok)
	}
	if f := math.Float64frombits(tree.frontier.Load()); f < 20 {
		t.Fatalf("published frontier %v after settling a node at distance 20", f)
	}
	// Exhausting the tree publishes an infinite frontier and releases the heap.
	tree.Dist(NodeID(399))
	for n := 0; n < g.Len(); n++ {
		tree.Dist(NodeID(n))
	}
	if f := math.Float64frombits(tree.frontier.Load()); !math.IsInf(f, 1) || tree.heap != nil {
		t.Fatalf("exhausted tree: frontier %v, heap %v", f, tree.heap)
	}
}
