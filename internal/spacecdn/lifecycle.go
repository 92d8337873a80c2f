package spacecdn

import (
	"fmt"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/orbit"
)

// Content-lifecycle serving: when a lifecycle.Manager is attached AND
// active (non-zero TTL policy or at least one purge issued), the resolve
// path classifies every cache hit as fresh / stale-revalidate / expired,
// drops invalidated entries with attributed eviction reasons, pulls misses
// through from origin into the overhead satellite's cache, and — in batch
// mode — coalesces concurrent origin fetches for the same object version
// and ground cell into a single flight.
//
// Determinism: the batch form resolves in two phases. Phase 1 is the usual
// fixed-shard parallel fan-out and is read-only over cache state — lookups
// go through Entry/PeekTier, never mutating membership, tiers, or recency —
// while each request records what it WOULD do in a per-slot intent. Phase 2
// applies the intents sequentially in batch order: coalescing winners are
// "first in batch order" by construction, fills/drops/promotions happen in
// one deterministic sequence, and no outcome depends on goroutine schedule.

// Tier read latencies for the two-tier store: a hot-RAM hit is effectively
// free at millisecond scale, a bulk-SSD hit pays a read-and-stage cost.
// Applied only in the lifecycle path and only when the store is Tiered.
const (
	tierHotRead  = 50 * time.Microsecond
	tierBulkRead = 2 * time.Millisecond
)

// ServeClass is how a lifecycle-managed request was ultimately served.
type ServeClass int

// Serve classes. The first three mirror lifecycle.Freshness (the hit's
// classification where the serve happened); ServeMiss is a request for an
// object no consulted cache held at all. numServeClasses sizes the
// counter arrays.
const (
	ServeFresh ServeClass = iota
	ServeStale
	ServeExpired
	ServeMiss

	numServeClasses // keep last
)

var serveClassNames = [numServeClasses]string{
	ServeFresh:   "fresh",
	ServeStale:   "stale-revalidate",
	ServeExpired: "expired",
	ServeMiss:    "miss",
}

func (c ServeClass) String() string {
	if c < 0 || c >= numServeClasses {
		return fmt.Sprintf("serveclass(%d)", int(c))
	}
	return serveClassNames[c]
}

// ServeClasses lists every serve class, in declaration order.
func ServeClasses() []ServeClass {
	out := make([]ServeClass, numServeClasses)
	for i := range out {
		out[i] = ServeClass(i)
	}
	return out
}

// TierSizing configures the two-tier per-satellite store.
type TierSizing struct {
	HotBytes  int64
	BulkBytes int64
}

// SetLifecycle attaches (or, with nil, detaches) a lifecycle manager. An
// attached-but-inert manager (zero policy, no purges) leaves the resolve
// pipeline byte-identical to a system without one — the gate is a single
// atomic load before any other lifecycle work, mirroring the fault-plan
// contract. Attach before concurrent resolves begin.
func (s *System) SetLifecycle(m *lifecycle.Manager) { s.lc = m }

// Lifecycle returns the attached manager, or nil.
func (s *System) Lifecycle() *lifecycle.Manager { return s.lc }

// UseTieredStore swaps every satellite's cache for a two-tier hot/bulk
// store, preserving the replica-index listeners. Existing cache contents
// are discarded; call before placement, and never during concurrent
// resolves.
func (s *System) UseTieredStore(t TierSizing) error {
	if t.HotBytes <= 0 || t.BulkBytes <= 0 {
		return fmt.Errorf("spacecdn: tier capacities must be positive, got hot=%d bulk=%d", t.HotBytes, t.BulkBytes)
	}
	s.tierCfg = &t
	for i := range s.caches {
		tc := cache.NewTiered(t.HotBytes, t.BulkBytes)
		tc.SetOnChange(s.replicas.listener(i))
		s.caches[i] = tc
	}
	s.replicas.reset()
	return nil
}

// StoreVersioned places an object with lifecycle stamps (current version,
// class TTL expiry at time now). Without an attached manager it behaves
// exactly like Store.
func (s *System) StoreVersioned(id constellation.SatID, o content.Object, now time.Duration) bool {
	it := cache.Item{
		Key:  cache.Key(o.ID),
		Size: o.Bytes,
		Tag:  o.Region.String(),
	}
	if s.lc != nil {
		s.lc.Stamp(&it, o.Class, o.ID, now)
	}
	return s.caches[int(id)].Put(it)
}

// IssuePurge invalidates an object fleet-wide: the purge enters the
// constellation at the best satellite visible from the origin ground point
// and floods over the ISL topology at the snapshot time. When the attached
// fault plan has active outages, the flood runs over the fault-masked
// topology — dead satellites and partitioned components never receive, and
// keep serving the superseded version (stale-while-partitioned).
func (s *System) IssuePurge(obj content.ID, origin geo.Point, snap *constellation.Snapshot) (lifecycle.PurgeResult, error) {
	if s.lc == nil {
		return lifecycle.PurgeResult{}, fmt.Errorf("spacecdn: no lifecycle manager attached")
	}
	var ep Epoch
	s.pin(&ep, 0, snap)
	up, ok := ep.topo.BestVisible(origin)
	if !ok {
		return lifecycle.PurgeResult{}, fmt.Errorf("spacecdn: no satellite visible from purge origin %v", origin)
	}
	uplinkMs := float64(orbit.PropagationDelay(up.SlantKm)) / float64(time.Millisecond)
	res, err := s.lc.IssuePurge(obj, ep.topo, up.ID, snap.Time(), s.cfg.PerHopProcMs, uplinkMs)
	if err != nil {
		return res, err
	}
	s.lcstats.purges.Add(1)
	if in := s.inst; in != nil {
		for _, r := range res.Receipts {
			if r >= 0 {
				in.lcPurgeMs.Observe(float64(r-res.IssuedAt) / float64(time.Millisecond))
			}
		}
	}
	return res, nil
}

// LifecycleStats is a snapshot of the always-on lifecycle counters. They
// advance regardless of telemetry attachment, like FaultStats.
type LifecycleStats struct {
	// Serves counts lifecycle-path requests by how they were served.
	FreshServes   int64
	StaleServes   int64
	ExpiredServes int64
	MissServes    int64
	// InconsistentServes counts serves of a version superseded by a purge
	// the serving satellite had not yet received — the inconsistency window
	// made visible.
	InconsistentServes int64
	// OriginNeeded counts requests that required origin contact (miss,
	// expired refetch, or stale revalidation); OriginFetches counts the
	// flights actually dispatched after coalescing; Coalesced is the
	// difference, attributed to followers.
	OriginNeeded  int64
	OriginFetches int64
	Coalesced     int64
	// PurgesIssued counts IssuePurge calls.
	PurgesIssued int64
	// Tier movement, summed over the fleet at snapshot time (zero when the
	// tiered store is not in use).
	HotHits    int64
	BulkHits   int64
	Promotions int64
	Demotions  int64
}

// LifecycleStats returns the lifecycle counters accumulated since the
// system was created.
func (s *System) LifecycleStats() LifecycleStats {
	ls := LifecycleStats{
		FreshServes:        s.lcstats.serves[ServeFresh].Load(),
		StaleServes:        s.lcstats.serves[ServeStale].Load(),
		ExpiredServes:      s.lcstats.serves[ServeExpired].Load(),
		MissServes:         s.lcstats.serves[ServeMiss].Load(),
		InconsistentServes: s.lcstats.inconsistent.Load(),
		OriginNeeded:       s.lcstats.originNeeded.Load(),
		OriginFetches:      s.lcstats.originFetches.Load(),
		Coalesced:          s.lcstats.coalesced.Load(),
		PurgesIssued:       s.lcstats.purges.Load(),
	}
	if s.tierCfg != nil {
		for _, c := range s.caches {
			if tc, ok := c.(*cache.Tiered); ok {
				ts := tc.TierStats()
				ls.HotHits += ts.HotHits
				ls.BulkHits += ts.BulkHits
				ls.Promotions += ts.Promotions
				ls.Demotions += ts.Demotions
			}
		}
	}
	return ls
}

// lcIntent records what one lifecycle-classified request would do to shared
// state. The resolve pipeline fills it without mutating anything; the
// caller applies it — inline, through the applier, or in batch order.
type lcIntent struct {
	valid        bool // resolution succeeded; serve counters apply
	obj          content.Object
	class        ServeClass
	inconsistent bool

	hit    bool // counted Get + tier Touch on hitSat
	hitSat constellation.SatID

	// Up to two expired entries can drop per request: the overhead
	// satellite's and the ISL target's.
	drops    [2]lcDrop
	numDrops int

	needOrigin bool                // origin contact required; subject to coalescing
	fillSat    constellation.SatID // the flight winner fills/refreshes it
	flight     lifecycle.FlightKey
}

type lcDrop struct {
	sat    constellation.SatID
	reason cache.EvictionReason
}

func (it *lcIntent) addDrop(sat constellation.SatID, reason cache.EvictionReason) {
	if it.numDrops < len(it.drops) {
		it.drops[it.numDrops] = lcDrop{sat: sat, reason: reason}
		it.numDrops++
	}
}

// tierRead returns the extra read latency for a hit on the satellite's
// store. Zero for non-tiered stores.
func (s *System) tierRead(id constellation.SatID, key cache.Key) time.Duration {
	tc, ok := s.caches[int(id)].(*cache.Tiered)
	if !ok {
		return 0
	}
	tier, ok := tc.PeekTier(key)
	if !ok {
		return 0
	}
	if tier == cache.TierBulk {
		return tierBulkRead
	}
	return tierHotRead
}

// originContact marks the intent as needing origin: one flight per {object
// version, ground cell}, whose winner fills or refreshes fillSat.
func (s *System) originContact(it *lcIntent, fillSat constellation.SatID, client geo.Point) {
	it.needOrigin = true
	it.fillSat = fillSat
	it.flight = lifecycle.FlightKey{Object: it.obj.ID, Version: s.lc.LatestVersion(it.obj.ID), Cell: lifecycle.Cell(client)}
}

// applyLcIntent commits one request's intent. flights de-duplicates origin
// fetches per {object, version, cell} across a batch — the winner is the
// first intent applied, and application order is batch order, so the
// winner is schedule-independent. A nil flights map means no coalescing
// (single-request path).
func (s *System) applyLcIntent(it *lcIntent, t time.Duration, flights map[lifecycle.FlightKey]struct{}) {
	in := s.inst
	for i := 0; i < it.numDrops; i++ {
		d := it.drops[i]
		s.caches[int(d.sat)].Drop(cache.Key(it.obj.ID), d.reason)
	}
	if it.hit {
		key := cache.Key(it.obj.ID)
		s.caches[int(it.hitSat)].Get(key)
		if tc, ok := s.caches[int(it.hitSat)].(*cache.Tiered); ok {
			// Promotion on re-reference: a bulk hit moves the entry to
			// the hot tier (sequenced here, so tiers are deterministic).
			tc.Touch(key)
		}
	}
	if it.valid {
		s.lcstats.serves[it.class].Add(1)
		if in != nil {
			in.lcServes[it.class].Inc()
		}
		if it.inconsistent {
			s.lcstats.inconsistent.Add(1)
			if in != nil {
				in.lcInconsistent.Inc()
			}
		}
	}
	if !it.needOrigin {
		return
	}
	s.lcstats.originNeeded.Add(1)
	if flights != nil {
		if _, dup := flights[it.flight]; dup {
			s.lcstats.coalesced.Add(1)
			if in != nil {
				in.lcCoalesced.Inc()
			}
			return
		}
		flights[it.flight] = struct{}{}
	}
	s.lcstats.originFetches.Add(1)
	s.StoreVersioned(it.fillSat, it.obj, t)
}
