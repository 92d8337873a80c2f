package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(100)
	if !c.Put(Item{Key: "a", Size: 40}) || !c.Put(Item{Key: "b", Size: 40}) {
		t.Fatal("admission failed")
	}
	if !c.Get("a") {
		t.Error("a should hit")
	}
	if c.Get("zzz") {
		t.Error("missing key should miss")
	}
	// Inserting c (40 bytes) overflows: b is LRU (a was just used).
	c.Put(Item{Key: "c", Size: 40})
	if c.Peek("b") {
		t.Error("b should have been evicted")
	}
	if !c.Peek("a") || !c.Peek("c") {
		t.Error("a and c should remain")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Inserts != 3 {
		t.Errorf("stats = %+v", st)
	}
	if c.UsedBytes() != 80 || c.Len() != 2 {
		t.Errorf("used=%d len=%d", c.UsedBytes(), c.Len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(100)
	c.Put(Item{Key: "a", Size: 30})
	c.Put(Item{Key: "a", Size: 50})
	if c.Len() != 1 || c.UsedBytes() != 50 {
		t.Errorf("update broken: len=%d used=%d", c.Len(), c.UsedBytes())
	}
	// Growing an item can trigger eviction of others.
	c.Put(Item{Key: "b", Size: 40})
	c.Put(Item{Key: "a", Size: 90})
	if c.Peek("b") {
		t.Error("b should be evicted after a grew")
	}
}

func TestLRURejectsOversize(t *testing.T) {
	c := NewLRU(100)
	if c.Put(Item{Key: "big", Size: 101}) {
		t.Error("oversize item admitted")
	}
	if c.Put(Item{Key: "neg", Size: -1}) {
		t.Error("negative size admitted")
	}
	if c.Len() != 0 {
		t.Error("rejected items must not be stored")
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU(100)
	c.Put(Item{Key: "a", Size: 10})
	if !c.Remove("a") {
		t.Error("remove existing failed")
	}
	if c.Remove("a") {
		t.Error("double remove succeeded")
	}
	if c.UsedBytes() != 0 {
		t.Error("bytes leaked after remove")
	}
	// Removals are not evictions.
	if c.Stats().Evictions != 0 {
		t.Error("remove counted as eviction")
	}
}

func TestLRURemoveAndStats(t *testing.T) {
	c := NewLRU(100)
	c.Put(Item{Key: "a", Size: 10})
	c.Get("a")
	c.Get("nope")
	if !c.Remove("a") || c.Remove("a") {
		t.Error("remove semantics broken")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestLRUKeysOrder(t *testing.T) {
	c := NewLRU(1000)
	for i := 0; i < 5; i++ {
		c.Put(Item{Key: Key(fmt.Sprintf("k%d", i)), Size: 1})
	}
	c.Get("k0") // promote
	keys := c.Keys()
	if keys[0] != "k0" {
		t.Errorf("most recently used should be first: %v", keys)
	}
	if keys[len(keys)-1] != "k1" {
		t.Errorf("least recently used should be last: %v", keys)
	}
}

func TestNewLRUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero capacity")
		}
	}()
	NewLRU(0)
}

// capacityInvariant checks UsedBytes <= Capacity and UsedBytes equals the
// sum of live item sizes after an arbitrary operation sequence.
func capacityInvariant(t *testing.T, mk func() Cache) {
	t.Helper()
	prop := func(ops []uint16) bool {
		c := mk()
		live := map[Key]int64{}
		for _, op := range ops {
			k := Key(fmt.Sprintf("k%d", op%50))
			size := int64(op%200) + 1
			switch op % 3 {
			case 0:
				if c.Put(Item{Key: k, Size: size}) {
					live[k] = size
				}
			case 1:
				c.Get(k)
			case 2:
				c.Remove(k)
				delete(live, k)
			}
			// Reconcile live set with what survived eviction.
			sum := int64(0)
			for lk := range live {
				if !c.Peek(lk) {
					delete(live, lk)
				}
			}
			for _, s := range live {
				sum += s
			}
			if c.UsedBytes() != sum {
				t.Logf("used=%d sum=%d", c.UsedBytes(), sum)
				return false
			}
			if c.UsedBytes() > c.Capacity() {
				return false
			}
			if c.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("capacity invariant violated: %v", err)
	}
}

func TestLRUCapacityInvariant(t *testing.T) {
	capacityInvariant(t, func() Cache { return NewLRU(500) })
}

func TestGeoAwareCapacityInvariant(t *testing.T) {
	capacityInvariant(t, func() Cache { return NewGeoAware(500, "africa") })
}

func TestGeoAwareEvictsOutOfRegionFirst(t *testing.T) {
	c := NewGeoAware(100, "africa")
	c.Put(Item{Key: "af1", Size: 30, Tag: "africa"})
	c.Put(Item{Key: "eu1", Size: 30, Tag: "europe"})
	c.Put(Item{Key: "af2", Size: 30, Tag: "africa"})
	// eu1 is NOT the LRU victim (af1 is older), but it is out of region.
	c.Put(Item{Key: "af3", Size: 30, Tag: "africa"})
	if c.Peek("eu1") {
		t.Error("out-of-region item should be evicted first")
	}
	if !c.Peek("af1") || !c.Peek("af2") || !c.Peek("af3") {
		t.Error("in-region items should survive")
	}
}

func TestGeoAwareRegionChange(t *testing.T) {
	c := NewGeoAware(100, "africa")
	c.Put(Item{Key: "af1", Size: 50, Tag: "africa"})
	c.Put(Item{Key: "eu1", Size: 40, Tag: "europe"})
	// The satellite crosses to Europe: now African content is the ballast.
	c.SetRegion("europe")
	if c.Region() != "europe" {
		t.Fatal("region not updated")
	}
	c.Put(Item{Key: "eu2", Size: 50, Tag: "europe"})
	if c.Peek("af1") {
		t.Error("african content should be evicted after crossing to europe")
	}
	if !c.Peek("eu1") || !c.Peek("eu2") {
		t.Error("european content should survive")
	}
}

func TestGeoAwareFallsBackToLRU(t *testing.T) {
	c := NewGeoAware(100, "africa")
	c.Put(Item{Key: "af1", Size: 50, Tag: "africa"})
	c.Put(Item{Key: "af2", Size: 50, Tag: "africa"})
	c.Get("af1") // af2 becomes LRU among in-region items
	c.Put(Item{Key: "af3", Size: 50, Tag: "africa"})
	if c.Peek("af2") {
		t.Error("LRU in-region item should be evicted when no out-of-region items exist")
	}
	if !c.Peek("af1") || !c.Peek("af3") {
		t.Error("wrong eviction victim")
	}
}

func TestGeoAwareOversize(t *testing.T) {
	c := NewGeoAware(100, "africa")
	if c.Put(Item{Key: "big", Size: 200}) {
		t.Error("oversize admitted")
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestCachesConcurrentAccess(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Cache
	}{
		{"lru", NewLRU(1000)},
		{"geo", NewGeoAware(1000, "africa")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 500; i++ {
						k := Key(fmt.Sprintf("k%d", rng.Intn(100)))
						switch rng.Intn(3) {
						case 0:
							tc.c.Put(Item{Key: k, Size: int64(rng.Intn(50) + 1), Tag: "africa"})
						case 1:
							tc.c.Get(k)
						case 2:
							tc.c.Remove(k)
						}
					}
				}(int64(w))
			}
			wg.Wait()
			if tc.c.UsedBytes() > tc.c.Capacity() {
				t.Error("capacity violated under concurrency")
			}
		})
	}
}
