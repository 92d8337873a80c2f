package constellation

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacecdn/internal/routing"
)

// treesHeld counts the trees a table currently holds.
func treesHeld(p *pathTrees) int {
	tab := p.slots.Load()
	if tab == nil {
		return 0
	}
	n := 0
	for i := range *tab {
		if (*tab)[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestPathTreeTableRacingFirstCallers: goroutines racing on the first
// PathTree of the same sources all get one tree per source, the table holds
// one tree per source asked and never more than N, and every lookup counts
// exactly once — hits + misses is the number of calls, and hits is what is
// left after each goroutine's possible miss per source.
func TestPathTreeTableRacingFirstCallers(t *testing.T) {
	const goroutines, rounds = 4, 3
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	snap.ISLGraph()
	n := c.Total()
	c.ResetPathMemoCounters()
	got := make([][]*routing.SPTree, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*routing.SPTree, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for src := 0; src < n; src++ {
					tr := snap.PathTree(SatID(src))
					if r > 0 && tr != got[g][src] {
						t.Errorf("source %d: tree changed between rounds", src)
						return
					}
					got[g][src] = tr
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for src := 0; src < n; src++ {
		for g := 1; g < goroutines; g++ {
			if got[g][src] != got[0][src] || got[g][src] == nil {
				t.Fatalf("source %d: goroutine %d holds %p, goroutine 0 holds %p", src, g, got[g][src], got[0][src])
			}
		}
	}
	if held := treesHeld(&snap.trees); held != n {
		t.Fatalf("table holds %d trees after every source was asked, want N = %d", held, n)
	}
	hits, misses := c.PathMemoCounters()
	if lookups := int64(goroutines * rounds * n); hits+misses != lookups {
		t.Fatalf("hits %d + misses %d = %d, want %d lookups", hits, misses, hits+misses, lookups)
	}
	if misses < int64(n) || misses > int64(goroutines*n) {
		t.Fatalf("misses = %d, want between N = %d (no race lost) and %d (every first call raced)", misses, n, goroutines*n)
	}
}

// TestPathTreeTableCursorRetires: a sweep cursor's advance empties its table
// in place — no tree of the step it left stays reachable, let alone served
// (TestSweepNeverServesATreeAcrossAdvance checks what the next lookup gets).
func TestPathTreeTableCursorRetires(t *testing.T) {
	c := MustNew(DefaultConfig())
	sw := c.Sweep(0, 15*time.Second)
	defer sw.Close()
	srcs := []SatID{0, 7, 700, SatID(c.Total() - 1)}
	for step := 0; step < 3; step++ {
		snap := sw.At()
		for _, src := range srcs {
			snap.PathTree(src).Dist(routing.NodeID((int(src) + 40) % c.Total()))
		}
		if held := treesHeld(&snap.trees); held != len(srcs) {
			t.Fatalf("step %d: table holds %d trees, want %d", step, held, len(srcs))
		}
		if held := treesHeld(&sw.Advance().trees); held != 0 {
			t.Fatalf("step %d: %d trees survived the advance", step, held)
		}
	}
}

// TestPathTreeTableMaskedViewLifetime: a masked view's trees live in the
// view, apart from the snapshot's healthy ones, and are unreachable once
// clearMasked dropped the view — the next view of the same epoch starts
// with an empty table.
func TestPathTreeTableMaskedViewLifetime(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	dead := routing.NewBitset(c.Total())
	dead.Set(4)
	view := snap.Masked(9, dead, nil)
	degraded := view.PathTree(7)
	if degraded == nil || degraded != view.PathTree(7) {
		t.Fatal("a view must memoize its own trees")
	}
	if healthy := snap.PathTree(7); healthy == degraded {
		t.Fatal("a degraded tree must not shadow the healthy one")
	}
	if view.PathTree(4) != nil {
		t.Fatal("a dead satellite roots no tree")
	}
	if held := treesHeld(&view.trees); held != 1 {
		t.Fatalf("view table holds %d trees, want 1", held)
	}
	if held := treesHeld(&snap.trees); held != 1 {
		t.Fatalf("snapshot table holds %d trees, want the 1 healthy tree", held)
	}
	snap.clearMasked()
	again := snap.Masked(9, dead, nil)
	if again == view {
		t.Fatal("clearMasked must drop the cached view")
	}
	if held := treesHeld(&again.trees); held != 0 {
		t.Fatalf("a new view starts with %d trees, want 0", held)
	}
	if again.PathTree(7) == degraded {
		t.Fatal("a dropped view's tree was served again")
	}
}

// TestPathTreeCountersExactUnderConcurrency: hits + misses equals lookups
// when hits dominate and goroutines share stripes, out-of-range sources
// included (they count as misses, as they always have).
func TestPathTreeCountersExactUnderConcurrency(t *testing.T) {
	const goroutines, lookups = 4, 20000
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	snap.ISLGraph()
	c.ResetPathMemoCounters()
	var nilTrees atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				src := SatID((i*7+g)%40 - 1) // -1 .. 38: one out-of-range source
				if snap.PathTree(src) == nil {
					nilTrees.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.PathMemoCounters()
	if hits+misses != goroutines*lookups {
		t.Fatalf("hits %d + misses %d != %d lookups", hits, misses, goroutines*lookups)
	}
	if want := int64(goroutines * lookups / 40); nilTrees.Load() != want {
		t.Fatalf("%d nil trees, want %d (source -1)", nilTrees.Load(), want)
	}
	if held := treesHeld(&snap.trees); held != 39 {
		t.Fatalf("table holds %d trees, want 39", held)
	}
}
