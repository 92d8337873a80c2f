package spacecdn

import (
	"fmt"
	"testing"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// inertManager returns an attached-but-inert lifecycle manager: zero TTL
// policy, no purges. Per the subsystem contract it must leave the resolve
// pipeline byte-identical to a system without one.
func inertManager() *lifecycle.Manager {
	return lifecycle.NewManager(lifecycle.Policy{}, testConst.Total())
}

func classedObject(id string, class content.Class) content.Object {
	o := testObject(id)
	o.Class = class
	return o
}

// TestResolveInertLifecycleMatchesReference is the stream-equality
// acceptance bar: with a lifecycle manager attached but no TTLs configured
// and no purges issued, the Resolution stream AND all cache side effects
// must stay byte-identical to the plain pipeline.
func TestResolveInertLifecycleMatchesReference(t *testing.T) {
	m := inertManager()
	if m.Active() {
		t.Fatal("zero-policy manager must start inert")
	}
	cities := geo.Cities()
	if len(cities) > 25 {
		cities = cities[:25]
	}
	lc := newSystem(t, DefaultConfig())
	lc.SetLifecycle(m)
	plain := newSystem(t, DefaultConfig())
	for _, tm := range []time.Duration{0, 42 * time.Second} {
		snapLC := testConst.Snapshot(tm)
		snapPlain := testConst.Snapshot(tm)
		reqsLC := seedMixedWorkload(lc, snapLC, cities)
		reqsPlain := seedMixedWorkload(plain, snapPlain, cities)
		rngLC := stats.NewRand(99)
		rngPlain := stats.NewRand(99)
		for i := range reqsLC {
			rl, errL := lc.Resolve(reqsLC[i].city.Loc, reqsLC[i].city.Country, reqsLC[i].obj, snapLC, rngLC)
			rp, errP := plain.Resolve(reqsPlain[i].city.Loc, reqsPlain[i].city.Country, reqsPlain[i].obj, snapPlain, rngPlain)
			if (errL == nil) != (errP == nil) {
				t.Fatalf("t=%v req %d: err mismatch lifecycle=%v plain=%v", tm, i, errL, errP)
			}
			if rl != rp {
				t.Fatalf("t=%v req %d (%s): lifecycle %+v != plain %+v", tm, i, reqsLC[i].obj.ID, rl, rp)
			}
		}
		// Batch form too: same requests, fresh systems via ClearAll+reseed.
		lc.ClearAll()
		plain.ClearAll()
		seedMixedWorkload(lc, snapLC, cities)
		seedMixedWorkload(plain, snapPlain, cities)
		batch := make([]Request, len(reqsLC))
		for i, rq := range reqsLC {
			batch[i] = Request{Client: rq.city.Loc, ISO2: rq.city.Country, Obj: rq.obj}
		}
		bl := lc.ResolveAll(batch, snapLC, stats.NewRand(7), 4)
		bp := plain.ResolveAll(batch, snapPlain, stats.NewRand(7), 4)
		for i := range bl {
			if (bl[i].Err == nil) != (bp[i].Err == nil) || bl[i].Resolution != bp[i].Resolution {
				t.Fatalf("t=%v batch req %d: lifecycle %+v != plain %+v", tm, i, bl[i], bp[i])
			}
		}
		for id := 0; id < testConst.Total(); id++ {
			sl := lc.CacheOf(constellation.SatID(id)).Stats()
			sp := plain.CacheOf(constellation.SatID(id)).Stats()
			if sl != sp {
				t.Fatalf("t=%v sat %d: cache stats diverged: %+v vs %+v", tm, id, sl, sp)
			}
		}
		lc.ClearAll()
		plain.ClearAll()
	}
	if ls := lc.LifecycleStats(); ls != (LifecycleStats{}) {
		t.Fatalf("inert manager must never enter the lifecycle pipeline: %+v", ls)
	}
}

// lifecycleFixture builds an active-lifecycle system over a tiered store
// with a seeded class-mixed placement, plus a request batch that exercises
// fresh hits, stale revalidation, purge expiry, misses, and coalescing. A
// non-nil plan is attached before placement, so the purge floods and the
// batch resolves over its masked topology.
func lifecycleFixture(t *testing.T, plan *faults.Plan) (*System, []Request, *constellation.Snapshot) {
	t.Helper()
	s := newSystem(t, DefaultConfig())
	s.SetFaultPlan(plan)
	if err := s.UseTieredStore(TierSizing{HotBytes: 4 << 20, BulkBytes: 16 << 20}); err != nil {
		t.Fatal(err)
	}
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))

	cities := geo.Cities()
	if len(cities) > 16 {
		cities = cities[:16]
	}
	classes := []content.Class{content.ClassStatic, content.ClassNews, content.ClassLiveSegment, content.ClassAPI}
	place := testConst.Snapshot(0)
	snap := testConst.Snapshot(time.Second)
	var reqs []Request
	var purgeObj content.Object
	total := testConst.Total()
	for i, city := range cities {
		hot := classedObject(fmt.Sprintf("lc-hot-%d", i), classes[i%len(classes)])
		if up, ok := place.BestVisible(city.Loc); ok {
			// Stamp at t=0; live-segment entries (10s TTL) are still fresh at
			// the t=1s resolve, news/static/api trivially so.
			s.StoreVersioned(up.ID, hot, 0)
		}
		warm := classedObject(fmt.Sprintf("lc-warm-%d", i), classes[(i+1)%len(classes)])
		s.StoreVersioned(constellation.SatID((i*37+11)%total), warm, 0)
		cold := classedObject(fmt.Sprintf("lc-cold-%d", i), classes[(i+2)%len(classes)])
		reqs = append(reqs,
			Request{Client: city.Loc, ISO2: city.Country, Obj: hot},
			Request{Client: city.Loc, ISO2: city.Country, Obj: warm},
			Request{Client: city.Loc, ISO2: city.Country, Obj: cold},
			// Duplicate cold request from the same cell: a coalescing follower.
			Request{Client: city.Loc, ISO2: city.Country, Obj: cold},
		)
		if i == 0 {
			purgeObj = hot
		}
	}
	// Purge one placed object at t=0: by the t=1s batch the flood has
	// converged fleet-wide, so every cached copy is version-superseded.
	if _, err := s.IssuePurge(purgeObj.ID, cities[0].Loc, place); err != nil {
		t.Fatal(err)
	}
	return s, reqs, snap
}

// TestResolveAllLifecycleWorkerInvariance is the determinism bar for the
// two-phase batch: results, lifecycle counters, and full fleet cache state
// (fills, drops, tier placement) must be byte-identical across worker
// counts, including coalescing winner selection.
func TestResolveAllLifecycleWorkerInvariance(t *testing.T) {
	// The faults+lifecycle row kills a warm-object holder (replica failover)
	// and the overhead satellite of the second city (uplink failover, with the
	// pull-through fill landing on the survivor).
	var outages []faults.Outage
	if up, ok := testConst.Snapshot(time.Second).BestVisible(geo.Cities()[1].Loc); ok {
		outages = append(outages, satOutage(up.ID))
	}
	outages = append(outages, satOutage(11))
	cases := []struct {
		name string
		plan *faults.Plan
	}{
		{name: "lifecycle"},
		{name: "faults+lifecycle", plan: faults.NewPlanFromOutages(testConst.Total(), outages)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testResolveAllLifecycleWorkerInvariance(t, tc.plan)
		})
	}
}

func testResolveAllLifecycleWorkerInvariance(t *testing.T, plan *faults.Plan) {
	type outcome struct {
		results []BatchResult
		stats   LifecycleStats
		faults  FaultStats
		lens    []int
		bytes   []int64
	}
	run := func(workers int) outcome {
		s, reqs, snap := lifecycleFixture(t, plan)
		res := s.ResolveAll(reqs, snap, stats.NewRand(77), workers)
		o := outcome{results: res, stats: s.LifecycleStats(), faults: s.FaultStats()}
		for id := 0; id < testConst.Total(); id++ {
			c := s.CacheOf(constellation.SatID(id))
			if err := cache.CheckConsistency(c); err != nil {
				t.Fatalf("workers=%d sat %d: %v", workers, id, err)
			}
			o.lens = append(o.lens, c.Len())
			o.bytes = append(o.bytes, c.UsedBytes())
		}
		return o
	}
	base := run(1)
	if base.stats.Coalesced == 0 {
		t.Fatal("fixture produced no coalesced requests; invariance test is vacuous")
	}
	if base.stats.ExpiredServes == 0 {
		t.Fatal("fixture produced no purge-expired serves")
	}
	if plan != nil {
		// Faults choose the topology, lifecycle the classifier: the degraded
		// batch is still fully lifecycle-accounted.
		n := int64(len(base.results))
		if base.faults.DegradedRequests != n || base.faults.UplinkFailovers == 0 || base.faults.ReplicaFailovers == 0 {
			t.Fatalf("fault stats %+v: want %d degraded requests with uplink and replica failovers", base.faults, n)
		}
		if served := base.stats.FreshServes + base.stats.StaleServes + base.stats.ExpiredServes + base.stats.MissServes; served != n {
			t.Fatalf("lifecycle classified %d of %d degraded requests", served, n)
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range base.results {
			if (base.results[i].Err == nil) != (got.results[i].Err == nil) || base.results[i].Resolution != got.results[i].Resolution {
				t.Fatalf("workers=%d req %d: %+v != %+v", workers, i, got.results[i], base.results[i])
			}
		}
		if got.stats != base.stats {
			t.Fatalf("workers=%d lifecycle stats diverged:\n got %+v\nwant %+v", workers, got.stats, base.stats)
		}
		if got.faults != base.faults {
			t.Fatalf("workers=%d fault stats diverged: %+v vs %+v", workers, got.faults, base.faults)
		}
		for id := range base.lens {
			if got.lens[id] != base.lens[id] || got.bytes[id] != base.bytes[id] {
				t.Fatalf("workers=%d sat %d: cache state diverged (len %d/%d, bytes %d/%d)",
					workers, id, got.lens[id], base.lens[id], got.bytes[id], base.bytes[id])
			}
		}
	}
}

// TestLifecycleCoalescingFlashCrowd: a batch of identical cold requests
// from one cell collapses to a single origin flight, and the winner's fill
// makes the next request a fresh space hit.
func TestLifecycleCoalescingFlashCrowd(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	obj := classedObject("flash-cold", content.ClassNews)

	const crowd = 16
	reqs := make([]Request, crowd)
	for i := range reqs {
		reqs[i] = Request{Client: maputo, ISO2: "MZ", Obj: obj}
	}
	for i, br := range s.ResolveAll(reqs, snap, stats.NewRand(5), 4) {
		if br.Err != nil {
			t.Fatalf("req %d: %v", i, br.Err)
		}
		if br.Source != SourceGround {
			t.Fatalf("req %d served from %v, want ground", i, br.Source)
		}
	}
	ls := s.LifecycleStats()
	if ls.MissServes != crowd || ls.OriginNeeded != crowd {
		t.Fatalf("serves/needed = %d/%d, want %d/%d", ls.MissServes, ls.OriginNeeded, crowd, crowd)
	}
	if ls.OriginFetches != 1 || ls.Coalesced != crowd-1 {
		t.Fatalf("fetches/coalesced = %d/%d, want 1/%d", ls.OriginFetches, ls.Coalesced, crowd-1)
	}
	// The single flight filled the overhead satellite: next request is a
	// fresh space hit, no new origin contact.
	res, err := s.Resolve(maputo, "MZ", obj, snap, stats.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceOverhead {
		t.Fatalf("post-fill request served from %v, want overhead", res.Source)
	}
	ls = s.LifecycleStats()
	if ls.FreshServes != 1 || ls.OriginFetches != 1 {
		t.Fatalf("post-fill fresh/fetches = %d/%d, want 1/1", ls.FreshServes, ls.OriginFetches)
	}

	// A distant cell is a separate flight even for the same object version.
	s2 := newSystem(t, DefaultConfig())
	s2.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	sydney := geo.NewPoint(-33.8688, 151.2093)
	two := []Request{
		{Client: maputo, ISO2: "MZ", Obj: obj},
		{Client: sydney, ISO2: "AU", Obj: obj},
	}
	for i, br := range s2.ResolveAll(two, snap, stats.NewRand(5), 2) {
		if br.Err != nil {
			t.Fatalf("req %d: %v", i, br.Err)
		}
	}
	if ls2 := s2.LifecycleStats(); ls2.OriginFetches != 2 || ls2.Coalesced != 0 {
		t.Fatalf("cross-cell fetches/coalesced = %d/%d, want 2/0", ls2.OriginFetches, ls2.Coalesced)
	}
}

// TestLifecycleTTLLadderThroughSystem drives one object through each rung
// of the freshness ladder by back-dating its fill stamp: fresh serves stay
// on-path, stale entries serve immediately but trigger a revalidating
// refill, expired entries drop with a ttl-expired eviction and refetch.
func TestLifecycleTTLLadderThroughSystem(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	// News policy: 5m TTL + 5m stale-revalidate grace.
	fresh := classedObject("ttl-fresh", content.ClassNews)
	stale := classedObject("ttl-stale", content.ClassNews)
	dead := classedObject("ttl-dead", content.ClassNews)
	s.StoreVersioned(up.ID, fresh, 0)
	s.StoreVersioned(up.ID, stale, -6*time.Minute)
	s.StoreVersioned(up.ID, dead, -11*time.Minute)

	rng := stats.NewRand(9)
	if res, err := s.Resolve(maputo, "MZ", fresh, snap, rng); err != nil || res.Source != SourceOverhead {
		t.Fatalf("fresh: %+v err=%v, want overhead", res, err)
	}
	if res, err := s.Resolve(maputo, "MZ", stale, snap, rng); err != nil || res.Source != SourceOverhead {
		t.Fatalf("stale: %+v err=%v, want overhead (stale-while-revalidate serves from cache)", res, err)
	}
	if res, err := s.Resolve(maputo, "MZ", dead, snap, rng); err != nil || res.Source != SourceGround {
		t.Fatalf("expired: %+v err=%v, want ground refetch", res, err)
	}
	ls := s.LifecycleStats()
	want := LifecycleStats{FreshServes: 1, StaleServes: 1, ExpiredServes: 1, OriginNeeded: 2, OriginFetches: 2}
	if ls != want {
		t.Fatalf("stats = %+v, want %+v", ls, want)
	}
	if got := s.CacheOf(up.ID).Stats().EvictionsFor(cache.EvictTTLExpired); got != 1 {
		t.Fatalf("ttl-expired evictions = %d, want 1", got)
	}
	// Both the stale revalidation and the expired refetch restamped their
	// fills at t=0: everything now serves fresh.
	for _, o := range []content.Object{fresh, stale, dead} {
		if res, err := s.Resolve(maputo, "MZ", o, snap, rng); err != nil || res.Source != SourceOverhead {
			t.Fatalf("post-refill %s: %+v err=%v, want overhead", o.ID, res, err)
		}
	}
	if ls = s.LifecycleStats(); ls.FreshServes != 4 {
		t.Fatalf("post-refill fresh serves = %d, want 4", ls.FreshServes)
	}
}

// TestLifecyclePurgeThroughSystem: a purge floods the fleet with a finite
// inconsistency window; before a satellite's receipt it serves the old
// version (counted inconsistent), after it the entry drops as purged.
func TestLifecyclePurgeThroughSystem(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	// Zero TTL policy: the manager only becomes active through the purge.
	m := inertManager()
	s.SetLifecycle(m)
	snap0 := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap0.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	obj := classedObject("purge-me", content.ClassStatic)
	s.StoreVersioned(up.ID, obj, 0)

	res, err := s.IssuePurge(obj.ID, maputo, snap0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Active() {
		t.Fatal("purge must activate the manager")
	}
	if res.Reached != testConst.Total() {
		t.Fatalf("purge reached %d/%d satellites", res.Reached, testConst.Total())
	}
	if w := res.Window(); w <= 0 || w > time.Second {
		t.Fatalf("inconsistency window = %v, want finite positive ms-scale", w)
	}

	// At the issue instant no satellite has received yet (seed receipt pays
	// the uplink): the old version serves, counted as inconsistent.
	r0, err := s.Resolve(maputo, "MZ", obj, snap0, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Source != SourceOverhead {
		t.Fatalf("pre-receipt serve from %v, want overhead (stale copy)", r0.Source)
	}
	ls := s.LifecycleStats()
	if ls.FreshServes != 1 || ls.InconsistentServes != 1 {
		t.Fatalf("pre-receipt fresh/inconsistent = %d/%d, want 1/1", ls.FreshServes, ls.InconsistentServes)
	}

	// Two seconds later the flood has converged everywhere: the stale copy
	// is recognized, dropped as purged, and refetched from origin.
	snap2 := testConst.Snapshot(2 * time.Second)
	r2, err := s.Resolve(maputo, "MZ", obj, snap2, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceGround {
		t.Fatalf("post-receipt serve from %v, want ground", r2.Source)
	}
	ls = s.LifecycleStats()
	if ls.ExpiredServes != 1 || ls.PurgesIssued != 1 {
		t.Fatalf("post-receipt expired/purges = %d/%d, want 1/1", ls.ExpiredServes, ls.PurgesIssued)
	}
	if got := s.CacheOf(up.ID).Stats().EvictionsFor(cache.EvictPurged); got != 1 {
		t.Fatalf("purged evictions at sat %d = %d, want 1", up.ID, got)
	}
	// The refetch filled the NEW version: it survives classification.
	r3, err := s.Resolve(maputo, "MZ", obj, snap2, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source == SourceGround {
		t.Fatal("post-refill request fell through to ground; new version not cached")
	}
}

// TestPurgeHonouredDuringOutage: an active outage elsewhere in the shell must
// not switch the lifecycle off. The purged copy on the client's overhead
// satellite is recognized after its receipt, dropped as purged and refetched
// — not served as if no purge had been issued.
func TestPurgeHonouredDuringOutage(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	s.SetLifecycle(inertManager())
	snap0 := testConst.Snapshot(0)
	snap2 := testConst.Snapshot(2 * time.Second)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap2.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	far := constellation.SatID((int(up.ID) + testConst.Total()/2) % testConst.Total())
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{satOutage(far)}))
	obj := classedObject("purge-in-outage", content.ClassStatic)
	s.StoreVersioned(up.ID, obj, 0)
	res, err := s.IssuePurge(obj.ID, maputo, snap0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipts[up.ID] < 0 || res.Receipts[up.ID] >= snap2.Time() {
		t.Fatalf("overhead satellite's receipt %v is not before the resolve at %v", res.Receipts[up.ID], snap2.Time())
	}
	if res.Receipts[far] != lifecycle.NeverReceived {
		t.Fatalf("dead satellite %d received the purge at %v", far, res.Receipts[far])
	}

	r, err := s.Resolve(maputo, "MZ", obj, snap2, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceGround {
		t.Fatalf("purged copy served from %v during the outage, want ground refetch", r.Source)
	}
	if fs := s.FaultStats(); fs.DegradedRequests != 1 {
		t.Fatalf("degraded requests = %d, want 1", fs.DegradedRequests)
	}
	if ls := s.LifecycleStats(); ls.ExpiredServes != 1 || ls.OriginFetches != 1 {
		t.Fatalf("expired serves / origin fetches = %d/%d, want 1/1", ls.ExpiredServes, ls.OriginFetches)
	}
	if got := s.CacheOf(up.ID).Stats().EvictionsFor(cache.EvictPurged); got != 1 {
		t.Fatalf("purged evictions at sat %d = %d, want 1", up.ID, got)
	}
}

// TestLifecycleTieredServingThroughSystem: bulk-tier hits pay the SSD read
// latency and promote on re-reference; ClearAll preserves the tiered store.
func TestLifecycleTieredServingThroughSystem(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	if err := s.UseTieredStore(TierSizing{HotBytes: 2 << 20, BulkBytes: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := s.UseTieredStore(TierSizing{HotBytes: 0}); err == nil {
		t.Fatal("non-positive tier capacities accepted")
	}
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	// Hot cap fits two 1 MiB objects; the third fill demotes the LRU one.
	a := classedObject("tier-a", content.ClassStatic)
	b := classedObject("tier-b", content.ClassStatic)
	c := classedObject("tier-c", content.ClassStatic)
	for _, o := range []content.Object{a, b, c} {
		s.StoreVersioned(up.ID, o, 0)
	}
	tc := s.CacheOf(up.ID).(*cache.Tiered)
	if tier, ok := tc.PeekTier(cache.Key(a.ID)); !ok || tier != cache.TierBulk {
		t.Fatalf("a should have demoted to bulk, got tier=%v ok=%v", tier, ok)
	}

	// A bulk hit pays exactly the bulk read premium over a hot hit, holding
	// the rng stream fixed so the sampled scheduling jitter cancels.
	resBulk, err := s.Resolve(maputo, "MZ", a, snap, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	resHot, err := s.Resolve(maputo, "MZ", a, snap, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if diff := resBulk.RTT - resHot.RTT; diff != tierBulkRead-tierHotRead {
		t.Fatalf("bulk-vs-hot RTT premium = %v, want %v", diff, tierBulkRead-tierHotRead)
	}
	// The first hit promoted a back to hot (re-reference), demoting the LRU
	// hot resident to make room.
	if tier, ok := tc.PeekTier(cache.Key(a.ID)); !ok || tier != cache.TierHot {
		t.Fatalf("a should have promoted to hot after re-reference, got tier=%v ok=%v", tier, ok)
	}
	ls := s.LifecycleStats()
	if ls.BulkHits != 1 || ls.Promotions != 1 {
		t.Fatalf("bulk-hits/promotions = %d/%d, want 1/1", ls.BulkHits, ls.Promotions)
	}
	if ls.HotHits != 1 {
		t.Fatalf("hot hits = %d, want 1", ls.HotHits)
	}

	s.ClearAll()
	if _, ok := s.CacheOf(up.ID).(*cache.Tiered); !ok {
		t.Fatal("ClearAll must preserve the tiered store kind")
	}
	if s.CacheOf(up.ID).Len() != 0 {
		t.Fatal("ClearAll left entries behind")
	}
}

// TestLifecycleTelemetryCounters checks the lifecycle metrics surface:
// labelled serve counters, the coalescing counter, the purge propagation
// histogram, and the tier gauges exported by the fleet collector.
func TestLifecycleTelemetryCounters(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	if err := s.UseTieredStore(TierSizing{HotBytes: 4 << 20, BulkBytes: 16 << 20}); err != nil {
		t.Fatal(err)
	}
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	tel := telemetry.New(0)
	s.SetTelemetry(tel)
	t.Cleanup(func() { s.SetTelemetry(nil) })
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	hot := classedObject("lct-hot", content.ClassNews)
	s.StoreVersioned(up.ID, hot, 0)
	if _, err := s.Resolve(maputo, "MZ", hot, snap, stats.NewRand(2)); err != nil {
		t.Fatal(err)
	}
	cold := classedObject("lct-cold", content.ClassAPI)
	reqs := []Request{
		{Client: maputo, ISO2: "MZ", Obj: cold},
		{Client: maputo, ISO2: "MZ", Obj: cold},
	}
	for i, br := range s.ResolveAll(reqs, snap, stats.NewRand(3), 2) {
		if br.Err != nil {
			t.Fatalf("req %d: %v", i, br.Err)
		}
	}
	if _, err := s.IssuePurge(hot.ID, maputo, snap); err != nil {
		t.Fatal(err)
	}

	reg := tel.Registry()
	if v := reg.Counter("lifecycle_serve_total", "freshness", "fresh").Value(); v != 1 {
		t.Errorf("serve{fresh} = %d, want 1", v)
	}
	if v := reg.Counter("lifecycle_serve_total", "freshness", "miss").Value(); v != 2 {
		t.Errorf("serve{miss} = %d, want 2", v)
	}
	if v := reg.Counter("lifecycle_coalesced_total").Value(); v != 1 {
		t.Errorf("coalesced = %d, want 1", v)
	}
	if n := reg.Histogram("lifecycle_purge_propagation_ms", telemetry.LatencyBucketsMs).Count(); n != int64(testConst.Total()) {
		t.Errorf("purge propagation observations = %d, want %d (one per reached satellite)", n, testConst.Total())
	}
	// Tier gauges come from the exposition-time collector.
	snapshot := tel.Snapshot()
	var hotItems, bulkItems float64
	found := false
	for _, g := range snapshot.Gauges {
		if g.Name != "spacecdn_tier_items" {
			continue
		}
		found = true
		switch g.Labels["tier"] {
		case "hot":
			hotItems += g.Value
		case "bulk":
			bulkItems += g.Value
		}
	}
	if !found {
		t.Fatal("collector did not export tier gauges")
	}
	if hotItems+bulkItems < 2 {
		t.Errorf("tier items hot=%v bulk=%v, want the two cached objects visible", hotItems, bulkItems)
	}
}

// TestLifecycleDisabledPathAllocs pins the zero-overhead contract: a system
// with an inert lifecycle manager attached resolves with exactly the
// allocations of a bare one (the gate is a single atomic load).
func TestLifecycleDisabledPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	hot := testObject("lc-alloc-hot")
	run := func(s *System) float64 {
		rng := stats.NewRand(3)
		return testing.AllocsPerRun(200, func() {
			if _, err := s.Resolve(maputo, "MZ", hot, snap, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := newSystem(t, DefaultConfig())
	base.Store(up.ID, hot)
	baseAllocs := run(base)

	attached := newSystem(t, DefaultConfig())
	attached.Store(up.ID, hot)
	attached.SetLifecycle(inertManager())
	if got := run(attached); got != baseAllocs {
		t.Errorf("inert-lifecycle path allocates %v/op, baseline %v/op", got, baseAllocs)
	}
}

func TestServeClassStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range ServeClasses() {
		name := c.String()
		if name == "" || seen[name] {
			t.Fatalf("class %d: bad or duplicate name %q", int(c), name)
		}
		seen[name] = true
	}
	if ServeClass(99).String() != "serveclass(99)" {
		t.Error("out-of-range String() malformed")
	}
}
