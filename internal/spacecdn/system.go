// Package spacecdn implements the paper's proposal (§4): a content delivery
// network whose caches ride on the LEO satellites themselves.
//
// A request from a ground client resolves in three stages, mirroring the
// paper's Figure 6:
//
//  1. directly overhead — if the serving satellite caches the object (and is
//     duty-cycled on), it answers in one radio round trip;
//  2. over ISLs — otherwise the request is forwarded across inter-satellite
//     links to the nearest caching satellite holding a replica;
//  3. ground fallback — failing both, the request bent-pipes to the ground
//     CDN via the operator's PoP, which is exactly the status-quo path whose
//     cost the measurement study quantifies.
//
// The package also implements the paper's extensions: duty-cycled caching
// (§5, Figure 8), predictable-orbit video striping (§4), and geographic
// content bubbles with content-aware eviction (§5).
package spacecdn

import (
	"fmt"
	"sync/atomic"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/lsn"
	"spacecdn/internal/routing"
)

// LatencyModel selects how the measurement APIs (FetchAtHops,
// NearestReplicaRTT) account a fetch.
type LatencyModel int

const (
	// LatencyRTT is the full client-observed round trip: two-way
	// propagation plus the access link's MAC scheduling. This is what a
	// deployed system's users would measure.
	LatencyRTT LatencyModel = iota
	// LatencyOneWayPropagation is xeoverse-style accounting: one-way
	// propagation plus switching, without MAC scheduling. The paper's
	// Figures 7 and 8 are only numerically consistent with this mode (its
	// "1st/Sat" curve starts at ~3-5 ms, which is a one-way slant path),
	// while its Starlink/terrestrial reference curves are measured RTTs.
	// We reproduce the figures as published and report both modes in
	// EXPERIMENTS.md.
	LatencyOneWayPropagation
)

// Config parameterizes the SpaceCDN system.
type Config struct {
	// CacheBytesPerSat is each satellite's cache capacity. The paper's §5
	// sizing argument uses a ~150 TB COTS server.
	CacheBytesPerSat int64
	// MaxISLSearchHops bounds the replica search (paper evaluates 1..10).
	MaxISLSearchHops int
	// PerHopProcMs is the per-ISL-hop switching delay, per direction.
	PerHopProcMs float64
	// SchedFloorRTTMs and SchedJitterMs model the terminal's access-link
	// scheduling, matching the LSN model so comparisons are apples-to-apples.
	SchedFloorRTTMs float64
	SchedJitterMs   float64
	// Latency selects RTT or one-way accounting for the measurement APIs.
	Latency LatencyModel
	// DutyCycle configures fractional caching; nil means all satellites
	// cache all the time.
	DutyCycle *DutyCycleConfig
	// ScanSweeps forces time-stepped simulations (VM handovers, wormhole
	// planning, striping windows) onto fresh per-step snapshots instead of
	// the incremental sweep engine. The outputs are proven identical; the
	// flag exists so the equivalence tests (and any doubting operator) can
	// diff the two forms.
	ScanSweeps bool
}

// DefaultConfig mirrors the paper's simulation setup.
func DefaultConfig() Config {
	l := lsn.DefaultConfig()
	return Config{
		CacheBytesPerSat: 150 << 40, // 150 TB
		MaxISLSearchHops: 10,
		PerHopProcMs:     0.35,
		SchedFloorRTTMs:  l.SchedFloorRTTMs,
		SchedJitterMs:    l.SchedJitterMs,
	}
}

// Validate reports a descriptive error for unusable configuration.
func (c Config) Validate() error {
	if c.CacheBytesPerSat <= 0 {
		return fmt.Errorf("spacecdn: cache capacity must be positive")
	}
	if c.MaxISLSearchHops < 0 {
		return fmt.Errorf("spacecdn: negative hop bound")
	}
	if c.DutyCycle != nil {
		if err := c.DutyCycle.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// System is a deployed SpaceCDN: per-satellite caches over a constellation,
// with an LSN model for the ground fallback path.
type System struct {
	cfg      Config
	consts   *constellation.Constellation
	lsn      *lsn.Model
	caches   []cache.Cache      // indexed by SatID
	replicas *replicaIndex      // object -> replica bitset, fed by cache listeners
	duty     *DutyCycler        // nil when always-on
	inst     *instruments       // nil when telemetry is detached (see SetTelemetry)
	faults   *faults.Plan       // nil when no fault injection (see SetFaultPlan)
	lc       *lifecycle.Manager // nil when content has no lifecycle (see SetLifecycle)
	tierCfg  *TierSizing        // nil unless UseTieredStore swapped the stores

	// applier is the single-writer lifecycle apply loop used by the serve
	// path (see StartLifecycleApplier); nil routes ResolveAt intents inline.
	applier atomic.Pointer[lcApplier]

	// fstats are the always-on degraded-mode counters; atomics because
	// resolve shards update them concurrently.
	fstats struct {
		degraded  atomic.Int64
		uplinkFO  atomic.Int64
		replicaFO atomic.Int64
		popFO     atomic.Int64
	}

	// lcstats are the always-on lifecycle counters (see LifecycleStats).
	// Serve/inconsistency counters only advance in sequential intent
	// application, but purge issuance can race a live telemetry scrape, so
	// they stay atomics like fstats.
	lcstats struct {
		serves        [numServeClasses]atomic.Int64
		inconsistent  atomic.Int64
		originNeeded  atomic.Int64
		originFetches atomic.Int64
		coalesced     atomic.Int64
		purges        atomic.Int64
	}
}

// NewSystem deploys SpaceCDN over the given constellation. The lsn model is
// used for ground-fallback latencies and must share the same constellation.
func NewSystem(cfg Config, c *constellation.Constellation, l *lsn.Model) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("spacecdn: constellation is required")
	}
	s := &System{cfg: cfg, consts: c, lsn: l}
	s.replicas = newReplicaIndex(c.Total())
	s.caches = make([]cache.Cache, c.Total())
	for i := range s.caches {
		gc := cache.NewGeoAware(cfg.CacheBytesPerSat, "")
		gc.SetOnChange(s.replicas.listener(i))
		s.caches[i] = gc
	}
	if cfg.DutyCycle != nil {
		s.duty = NewDutyCycler(*cfg.DutyCycle, c.Total())
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Constellation returns the underlying constellation.
func (s *System) Constellation() *constellation.Constellation { return s.consts }

// sweepCursor returns a time cursor for a stepped simulation: the
// incremental sweep, or the fresh-snapshot reference when Config.ScanSweeps
// is set. Every stepped consumer in the package goes through here, so the
// two forms stay diffable end to end.
func (s *System) sweepCursor(start, step time.Duration) constellation.Cursor {
	var cur constellation.Cursor
	if s.cfg.ScanSweeps {
		cur = s.consts.SweepScan(start, step)
	} else {
		cur = s.consts.Sweep(start, step)
	}
	// When a windowed series collector is attached, every advance ticks it so
	// metric windows stay keyed to sim time. The concrete-nil check matters:
	// wrapping a nil *SeriesCollector would pass ObserveCursor a non-nil
	// interface holding a nil pointer.
	if s.inst != nil {
		if sc := s.inst.tel.Series(); sc != nil {
			cur = constellation.ObserveCursor(cur, sc)
		}
	}
	return cur
}

// overheadWindows samples serving windows over a cursor honouring the
// ScanSweeps flag.
func (s *System) overheadWindows(ground geo.Point, from, to, step time.Duration) []constellation.OverheadWindow {
	cur := s.sweepCursor(from, step)
	defer cur.Close()
	return constellation.OverheadWindowsOver(cur, ground, to)
}

// CacheOf returns the cache on a satellite.
func (s *System) CacheOf(id constellation.SatID) cache.Cache { return s.caches[int(id)] }

// GeoCacheOf returns the satellite cache as its concrete geo-aware type,
// for bubble management.
func (s *System) GeoCacheOf(id constellation.SatID) *cache.GeoAware {
	return s.caches[int(id)].(*cache.GeoAware)
}

// Active reports whether a satellite is duty-cycled on as a cache at time t.
// Relaying over a satellite is always possible; Active gates only cache
// service.
func (s *System) Active(id constellation.SatID, t time.Duration) bool {
	if s.duty == nil {
		return true
	}
	return s.duty.Active(id, t)
}

// HasObject reports whether a satellite currently caches the object and is
// actively serving at time t.
func (s *System) HasObject(id constellation.SatID, obj content.ID, t time.Duration) bool {
	return s.Active(id, t) && s.caches[int(id)].Peek(cache.Key(obj))
}

// Store places an object on a satellite's cache (unconditionally, subject to
// the cache's admission policy).
func (s *System) Store(id constellation.SatID, o content.Object) bool {
	return s.caches[int(id)].Put(cache.Item{
		Key:  cache.Key(o.ID),
		Size: o.Bytes,
		Tag:  o.Region.String(),
	})
}

// Evict removes an object from a satellite's cache.
func (s *System) Evict(id constellation.SatID, obj content.ID) bool {
	return s.caches[int(id)].Remove(cache.Key(obj))
}

// ReplicaCount returns how many satellites currently hold the object
// (ignoring duty cycling). The replica index answers in one popcount instead
// of a fleet-wide Peek scan.
func (s *System) ReplicaCount(obj content.ID) int {
	return s.replicas.count(cache.Key(obj))
}

// ReplicaSet returns the bitset of satellites currently holding the object
// (nil when none do). The returned bitset is an immutable snapshot.
func (s *System) ReplicaSet(obj content.ID) routing.Bitset {
	return s.replicas.bitset(cache.Key(obj))
}

// activeSet returns the duty-cycle active bitset for time t, or nil when the
// system is always-on (nil means "all active" to routing.NearestInSet).
func (s *System) activeSet(t time.Duration) routing.Bitset {
	if s.duty == nil {
		return nil
	}
	return s.duty.ActiveSet(t)
}

// SetFaultPlan attaches (or, with nil, detaches) a fault-injection plan.
// With a plan attached, Resolve consults it at each request's snapshot time:
// at times with active outages the pipeline prices against the fault-masked
// topology, rerouting around dead satellites, ISLs, and PoPs; at fault-free
// times — and always with a nil or empty plan — it prices against the
// healthy snapshot byte-identically, consuming the same rng draws. Lifecycle
// classification is unaffected either way. Attach before concurrent
// resolves begin.
func (s *System) SetFaultPlan(p *faults.Plan) { s.faults = p }

// FaultPlan returns the attached fault plan, or nil.
func (s *System) FaultPlan() *faults.Plan { return s.faults }

// FaultStats is a snapshot of the always-on degraded-mode counters.
type FaultStats struct {
	// DegradedRequests counts resolves priced against a masked topology
	// (at least one outage active at the request's snapshot time).
	DegradedRequests int64
	// UplinkFailovers counts requests whose healthy overhead satellite was
	// dead and that were re-homed to the next surviving visible one.
	UplinkFailovers int64
	// ReplicaFailovers counts requests whose replica set intersected the
	// dead-satellite mask, forcing the ISL search past dead holders.
	ReplicaFailovers int64
	// PoPFailovers counts ground fallbacks served by a PoP other than the
	// client's healthy assignment.
	PoPFailovers int64
}

// FaultStats returns the degraded-mode counters accumulated since the
// system was created. They advance regardless of telemetry attachment.
func (s *System) FaultStats() FaultStats {
	return FaultStats{
		DegradedRequests: s.fstats.degraded.Load(),
		UplinkFailovers:  s.fstats.uplinkFO.Load(),
		ReplicaFailovers: s.fstats.replicaFO.Load(),
		PoPFailovers:     s.fstats.popFO.Load(),
	}
}

// TotalCacheBytes returns the fleet-wide cache capacity — the paper's §5
// "900 PB across 6,000 satellites" arithmetic for our shell.
func (s *System) TotalCacheBytes() int64 {
	return int64(s.consts.Total()) * s.cfg.CacheBytesPerSat
}

// ClearAll empties every satellite cache and resets the replica index,
// preserving the store kind (geo-aware or tiered).
func (s *System) ClearAll() {
	for i := range s.caches {
		if s.tierCfg != nil {
			tc := cache.NewTiered(s.tierCfg.HotBytes, s.tierCfg.BulkBytes)
			tc.SetOnChange(s.replicas.listener(i))
			s.caches[i] = tc
			continue
		}
		gc := cache.NewGeoAware(s.cfg.CacheBytesPerSat, "")
		gc.SetOnChange(s.replicas.listener(i))
		s.caches[i] = gc
	}
	s.replicas.reset()
}
