// Package cache implements the byte-capacity caches used by both the
// terrestrial CDN edges and the SpaceCDN satellite caches: LRU, a two-tier
// hot/bulk store, plus a geography-aware eviction policy for the
// paper's "content bubbles" (§5) — evict objects whose popularity region the
// satellite is leaving.
//
// All caches are instrumented (hits, misses, evictions, bytes) and safe for
// concurrent use.
package cache

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// Key identifies a cached object.
type Key string

// Item is a cached object's metadata. Value payloads are not stored — the
// simulator tracks placement and sizes, not contents.
type Item struct {
	Key  Key
	Size int64
	// Tag is opaque metadata the eviction policy may use (the content
	// bubble policy stores the object's popularity region here).
	Tag string

	// Lifecycle metadata (internal/lifecycle). Caches carry these fields
	// opaquely — they never interpret them; classification of an entry as
	// fresh / stale-revalidate / expired happens in the serving path. The
	// zero values mean "unversioned, immutable": exactly the semantics every
	// pre-lifecycle caller gets without changing a line.
	Version    int64         // content version this replica holds
	ExpiresAt  time.Duration // sim time the entry stops being fresh (0 = never)
	StaleUntil time.Duration // sim time the stale-revalidate grace ends (0 = none)
}

// EvictionReason classifies why an item left a cache.
type EvictionReason int

// Eviction reasons. numEvictionReasons must stay last — the name table is
// sized by it, so an added reason without a name fails the round-trip test.
const (
	// EvictCapacity is byte-capacity pressure: the policy's usual victim.
	EvictCapacity EvictionReason = iota
	// EvictRegionChange is the geo-aware policy shedding content tagged for
	// a region the satellite is leaving (the paper's content bubbles, §5).
	EvictRegionChange
	// EvictTTLExpired is the lifecycle layer dropping an entry whose TTL and
	// stale-revalidate grace both ran out before a fresh fill replaced it.
	EvictTTLExpired
	// EvictPurged is a control-plane purge invalidating the entry: the
	// satellite received the purge flood and dropped the stale version.
	EvictPurged

	numEvictionReasons // keep last
)

// evictionReasonNames is the exhaustive name table; indexed by reason.
var evictionReasonNames = [numEvictionReasons]string{
	EvictCapacity:     "capacity",
	EvictRegionChange: "region-change",
	EvictTTLExpired:   "ttl-expired",
	EvictPurged:       "purged",
}

func (r EvictionReason) String() string {
	if r < 0 || r >= numEvictionReasons || evictionReasonNames[r] == "" {
		return fmt.Sprintf("evictionreason(%d)", int(r))
	}
	return evictionReasonNames[r]
}

// EvictionReasonFromString inverts String for the named reasons.
func EvictionReasonFromString(s string) (EvictionReason, bool) {
	for r, name := range evictionReasonNames {
		if name == s {
			return EvictionReason(r), true
		}
	}
	return 0, false
}

// EvictionReasons lists every defined reason, for exhaustive iteration in
// telemetry wiring and tests.
func EvictionReasons() []EvictionReason {
	out := make([]EvictionReason, numEvictionReasons)
	for i := range out {
		out[i] = EvictionReason(i)
	}
	return out
}

// Stats counts cache activity. Retrieved via the Stats method; the zero
// value is a valid empty count.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Inserts   int64
	// ByReason breaks Evictions down by cause; entries sum to Evictions.
	ByReason [numEvictionReasons]int64
}

// EvictionsFor returns the eviction count attributed to one reason.
func (s Stats) EvictionsFor(r EvictionReason) int64 {
	if r < 0 || r >= numEvictionReasons {
		return 0
	}
	return s.ByReason[r]
}

// HitRate returns hits/(hits+misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the common interface of all eviction policies.
type Cache interface {
	// Get reports whether the key is cached and marks it used.
	Get(k Key) bool
	// Peek reports whether the key is cached without side effects.
	Peek(k Key) bool
	// Put inserts an item, evicting as needed. It reports whether the item
	// was admitted (an item larger than the capacity is rejected).
	Put(it Item) bool
	// Entry returns the cached item's metadata without side effects (no
	// recency update) — the lifecycle layer reads entry
	// versions and expiry stamps through it on the resolve path.
	Entry(k Key) (Item, bool)
	// Remove deletes a key if present.
	Remove(k Key) bool
	// Drop deletes a key if present and counts it as an eviction attributed
	// to the given reason (Remove counts nothing). The lifecycle layer uses
	// it for TTL-expiry and purge invalidations so the eviction-reason
	// telemetry sees them.
	Drop(k Key, reason EvictionReason) bool
	// Len returns the number of cached items.
	Len() int
	// UsedBytes returns the sum of cached item sizes.
	UsedBytes() int64
	// Capacity returns the configured byte capacity.
	Capacity() int64
	// Stats returns a snapshot of the counters.
	Stats() Stats
	// Keys returns the cached keys in policy order (eviction candidates
	// last for LRU; unspecified for others).
	Keys() []Key
}

// LRU is a least-recently-used byte-capacity cache.
type LRU struct {
	mu       sync.Mutex
	cap      int64
	used     int64
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	stats    Stats
	onChange func(Key, bool) // membership listener; nil when unset
}

// SetOnChange registers a membership listener, invoked with (key, true) when
// a key enters the cache and (key, false) when it leaves for any reason
// (capacity eviction, region eviction, removal). Overwrites (Put on an
// existing key) are not transitions and do not fire. The listener runs with
// the cache mutex held, so events are delivered in mutation order; it must be
// fast and must not call back into the cache. Pass nil to detach.
func (c *LRU) SetOnChange(fn func(Key, bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onChange = fn
}

// notify fires the membership listener; callers hold c.mu.
func (c *LRU) notify(k Key, present bool) {
	if c.onChange != nil {
		c.onChange(k, present)
	}
}

type lruEntry struct{ it Item }

// NewLRU creates an LRU cache with the given byte capacity. It panics on a
// non-positive capacity (a construction bug).
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	return &LRU{cap: capacity, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get implements Cache.
func (c *LRU) Get(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return true
}

// Peek implements Cache.
func (c *LRU) Peek(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// Put implements Cache.
func (c *LRU) Put(it Item) bool {
	if it.Size < 0 || it.Size > c.cap {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[it.Key]; ok {
		old := el.Value.(*lruEntry)
		c.used += it.Size - old.it.Size
		old.it = it
		c.ll.MoveToFront(el)
		c.evictLocked()
		return true
	}
	c.items[it.Key] = c.ll.PushFront(&lruEntry{it: it})
	c.used += it.Size
	c.stats.Inserts++
	c.notify(it.Key, true)
	c.evictLocked()
	return true
}

func (c *LRU) evictLocked() {
	for c.used > c.cap {
		back := c.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*lruEntry)
		c.ll.Remove(back)
		delete(c.items, e.it.Key)
		c.used -= e.it.Size
		c.stats.Evictions++
		c.stats.ByReason[EvictCapacity]++
		c.notify(e.it.Key, false)
	}
}

// Entry implements Cache: metadata lookup without promotion.
func (c *LRU) Entry(k Key) (Item, bool) { return c.item(k) }

// Drop implements Cache: remove and count as an eviction for reason.
func (c *LRU) Drop(k Key, reason EvictionReason) bool { return c.evict(k, reason) }

// Remove implements Cache.
func (c *LRU) Remove(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return false
	}
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, k)
	c.used -= e.it.Size
	c.notify(k, false)
	return true
}

// Len implements Cache.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// UsedBytes implements Cache.
func (c *LRU) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Capacity implements Cache.
func (c *LRU) Capacity() int64 { return c.cap }

// Stats implements Cache.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Keys implements Cache: most recently used first.
func (c *LRU) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, len(c.items))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry).it.Key)
	}
	return out
}

var _ Cache = (*LRU)(nil)
