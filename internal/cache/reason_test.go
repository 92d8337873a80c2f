package cache

import (
	"strings"
	"testing"
)

// TestEvictionReasonTableExhaustive round-trips every reason through the
// name table, catching silently-added constants without names.
func TestEvictionReasonTableExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range EvictionReasons() {
		name := r.String()
		if name == "" || strings.HasPrefix(name, "evictionreason(") {
			t.Fatalf("EvictionReason %d has no name table entry", int(r))
		}
		if seen[name] {
			t.Fatalf("duplicate reason name %q", name)
		}
		seen[name] = true
		back, ok := EvictionReasonFromString(name)
		if !ok || back != r {
			t.Fatalf("round trip %q -> %v, want %v", name, back, r)
		}
	}
	if len(seen) != int(numEvictionReasons) {
		t.Fatalf("EvictionReasons() covered %d of %d reasons", len(seen), numEvictionReasons)
	}
	if _, ok := EvictionReasonFromString("no-such-reason"); ok {
		t.Error("unknown name must not parse")
	}
	if got := EvictionReason(42).String(); got != "evictionreason(42)" {
		t.Errorf("out-of-range stringer = %q", got)
	}
}

// TestEvictionReasonsByPolicy checks each policy attributes evictions to the
// right cause and that the breakdown sums to the total.
func TestEvictionReasonsByPolicy(t *testing.T) {
	// LRU only evicts for capacity.
	lru := NewLRU(100)
	lru.Put(Item{Key: "a", Size: 60})
	lru.Put(Item{Key: "b", Size: 60}) // evicts a
	if st := lru.Stats(); st.EvictionsFor(EvictCapacity) != 1 || st.EvictionsFor(EvictRegionChange) != 0 {
		t.Fatalf("lru reasons = %+v", st.ByReason)
	}

	// GeoAware prefers out-of-region victims and labels them as such.
	g := NewGeoAware(100, "EU")
	g.Put(Item{Key: "af", Size: 40, Tag: "AF"})
	g.Put(Item{Key: "eu1", Size: 40, Tag: "EU"})
	g.Put(Item{Key: "eu2", Size: 40, Tag: "EU"}) // must evict af first
	st := g.Stats()
	if st.EvictionsFor(EvictRegionChange) != 1 {
		t.Fatalf("geo-aware must attribute the out-of-region eviction: %+v", st.ByReason)
	}
	if g.Peek("af") {
		t.Error("out-of-region item survived")
	}
	// Fill again with in-region content: now the victim is in-region, so the
	// reason is plain capacity.
	g.Put(Item{Key: "eu3", Size: 40, Tag: "EU"})
	st = g.Stats()
	if st.EvictionsFor(EvictCapacity) != 1 {
		t.Fatalf("in-region eviction must count as capacity: %+v", st.ByReason)
	}
	var sum int64
	for _, r := range EvictionReasons() {
		sum += st.EvictionsFor(r)
	}
	if sum != st.Evictions {
		t.Fatalf("reason breakdown %d != total evictions %d", sum, st.Evictions)
	}
	if st.EvictionsFor(EvictionReason(99)) != 0 {
		t.Error("out-of-range reason lookup must read zero")
	}
}
