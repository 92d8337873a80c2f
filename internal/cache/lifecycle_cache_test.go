package cache

import (
	"reflect"
	"testing"
)

// TestGeoAwareDropAndEntryEvents extends the GeoAware listener coverage to
// the lifecycle mutation paths (Drop, Entry) that bypass Put/Remove.
func TestGeoAwareDropAndEntryEvents(t *testing.T) {
	g := NewGeoAware(40, "EU")
	var got []event
	g.SetOnChange(func(k Key, present bool) { got = append(got, event{k, present}) })

	g.Put(Item{Key: "a", Size: 10, Tag: "EU", Version: 3, ExpiresAt: 120})
	g.Put(Item{Key: "b", Size: 10, Tag: "EU"})
	if it, ok := g.Entry("a"); !ok || it.Version != 3 || it.ExpiresAt != 120 {
		t.Fatalf("Entry(a) = %+v, %v; want version 3 expiresAt 120", it, ok)
	}
	if !g.Drop("a", EvictTTLExpired) {
		t.Fatal("Drop(a) reported not present")
	}
	if g.Drop("a", EvictTTLExpired) {
		t.Fatal("second Drop(a) reported present")
	}

	want := []event{
		{"a", true},
		{"b", true},
		{"a", false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event stream mismatch:\n got  %v\n want %v", got, want)
	}
	if n := g.Stats().EvictionsFor(EvictTTLExpired); n != 1 {
		t.Fatalf("Drop(EvictTTLExpired) counted %d, want 1", n)
	}
}

// TestTieredBasics exercises fills, tier placement, demotion under hot
// pressure, explicit promotion, and capacity eviction from bulk.
func TestTieredBasics(t *testing.T) {
	c := NewTiered(20, 40)
	var got []event
	c.SetOnChange(func(k Key, present bool) { got = append(got, event{k, present}) })

	c.Put(Item{Key: "a", Size: 10})
	c.Put(Item{Key: "b", Size: 10})
	if tier, ok := c.PeekTier("a"); !ok || tier != TierHot {
		t.Fatalf("PeekTier(a) = %v, %v; want hot", tier, ok)
	}
	// Hot is full: the next fill demotes the LRU hot entry ("a") to bulk.
	c.Put(Item{Key: "c", Size: 10})
	if tier, ok := c.PeekTier("a"); !ok || tier != TierBulk {
		t.Fatalf("after demotion PeekTier(a) = %v, %v; want bulk", tier, ok)
	}
	// Demotion is not a membership change: only the three inserts so far.
	want := []event{{"a", true}, {"b", true}, {"c", true}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event stream mismatch:\n got  %v\n want %v", got, want)
	}

	// Promotion on re-reference: Touch moves "a" back to hot, demoting "b".
	if !c.Touch("a") {
		t.Fatal("Touch(a) reported not present")
	}
	if tier, _ := c.PeekTier("a"); tier != TierHot {
		t.Fatal("Touch did not promote a to hot")
	}
	if tier, _ := c.PeekTier("b"); tier != TierBulk {
		t.Fatal("promotion pressure did not demote b")
	}
	ts := c.TierStats()
	if ts.Promotions != 1 || ts.Demotions != 2 {
		t.Fatalf("TierStats = %+v, want 1 promotion / 2 demotions", ts)
	}

	// An item too large for hot goes straight to bulk. Bulk now holds
	// [big(30), b(10), a? — a was promoted away] and overflows 40 only if it
	// must: it evicts the bulk-LRU ("b") once big lands on a full tier.
	c.Put(Item{Key: "big", Size: 30})
	if tier, ok := c.PeekTier("big"); !ok || tier != TierBulk {
		t.Fatalf("PeekTier(big) = %v, %v; want bulk", tier, ok)
	}
	// Get in bulk must not promote.
	if !c.Get("big") {
		t.Fatal("Get(big) missed")
	}
	if tier, _ := c.PeekTier("big"); tier != TierBulk {
		t.Fatal("Get promoted a bulk entry; promotion must be explicit")
	}

	// Another bulk-bound fill (25 > hot cap) overflows bulk: LRU victims
	// ("b" then, still over, "big") are true capacity evictions.
	c.Put(Item{Key: "big2", Size: 25})
	if c.Peek("b") || c.Peek("big") {
		t.Fatal("bulk capacity pressure did not evict the LRU entries")
	}
	if n := c.Stats().EvictionsFor(EvictCapacity); n == 0 {
		t.Fatal("bulk eviction not counted as capacity eviction")
	}
	if err := CheckConsistency(c); err != nil {
		t.Fatalf("inconsistent after mutations: %v", err)
	}

	// Drop from either tier fires the listener and counts the reason.
	c.Drop("big2", EvictPurged)
	if c.Peek("big2") {
		t.Fatal("Drop left big2 present")
	}
	if n := c.Stats().EvictionsFor(EvictPurged); n != 1 {
		t.Fatalf("Drop(EvictPurged) counted %d, want 1", n)
	}
	last := got[len(got)-1]
	if last != (event{"big2", false}) {
		t.Fatalf("last event = %v, want {big2 false}", last)
	}
}

// TestTieredRejectsOversize checks the admission guard against both tiers.
func TestTieredRejectsOversize(t *testing.T) {
	c := NewTiered(10, 20)
	if c.Put(Item{Key: "huge", Size: 25}) {
		t.Fatal("admitted an item larger than both tiers")
	}
	if c.Put(Item{Key: "neg", Size: -1}) {
		t.Fatal("admitted a negative-size item")
	}
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Fatalf("rejected puts mutated state: len=%d used=%d", c.Len(), c.UsedBytes())
	}
}

// TestCheckConsistency runs the exported audit over every policy after a
// mixed mutation sequence, and proves it detects a planted inconsistency.
func TestCheckConsistency(t *testing.T) {
	caches := map[string]Cache{
		"lru":    NewLRU(50),
		"geo":    NewGeoAware(50, "EU"),
		"tiered": NewTiered(25, 25),
	}
	for name, c := range caches {
		for i := 0; i < 12; i++ {
			c.Put(Item{Key: Key(rune('a' + i)), Size: int64(5 + i%3), Tag: "EU"})
		}
		c.Get("c")
		c.Remove("d")
		c.Drop("e", EvictTTLExpired)
		if err := CheckConsistency(c); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// A cache that lies about UsedBytes must be caught.
	bad := NewLRU(50)
	bad.Put(Item{Key: "a", Size: 10})
	bad.used = 99
	if err := CheckConsistency(bad); err == nil {
		t.Fatal("CheckConsistency missed a corrupted byte count")
	}
}

// TestEvictionReasonRoundTripLifecycle keeps the name table exhaustive for
// the lifecycle reasons.
func TestEvictionReasonRoundTripLifecycle(t *testing.T) {
	for _, r := range []EvictionReason{EvictTTLExpired, EvictPurged} {
		s := r.String()
		back, ok := EvictionReasonFromString(s)
		if !ok || back != r {
			t.Errorf("round trip failed for %v (%q -> %v, %v)", r, s, back, ok)
		}
	}
}
