package spacecdn

import (
	"testing"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
)

var (
	testConst = constellation.MustNew(constellation.DefaultConfig())
	testLSN   = lsn.NewModel(testConst, groundseg.NewCatalog(), lsn.DefaultConfig())
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg, testConst, testLSN)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func testObject(id string) content.Object {
	return content.Object{ID: content.ID(id), Bytes: 1 << 20, Region: geo.RegionAfrica}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.CacheBytesPerSat = 0
	if _, err := NewSystem(bad, testConst, testLSN); err == nil {
		t.Error("zero cache accepted")
	}
	bad = DefaultConfig()
	bad.MaxISLSearchHops = -1
	if _, err := NewSystem(bad, testConst, testLSN); err == nil {
		t.Error("negative hops accepted")
	}
	bad = DefaultConfig()
	bad.DutyCycle = &DutyCycleConfig{Fraction: 1.5, Slot: time.Minute}
	if _, err := NewSystem(bad, testConst, testLSN); err == nil {
		t.Error("bad duty fraction accepted")
	}
	if _, err := NewSystem(DefaultConfig(), nil, testLSN); err == nil {
		t.Error("nil constellation accepted")
	}
}

func TestStoreEvictHas(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	o := testObject("x")
	if !s.Store(5, o) {
		t.Fatal("store failed")
	}
	if !s.HasObject(5, o.ID, 0) {
		t.Error("HasObject false after store")
	}
	if s.ReplicaCount(o.ID) != 1 {
		t.Error("replica count wrong")
	}
	if !s.Evict(5, o.ID) {
		t.Error("evict failed")
	}
	if s.HasObject(5, o.ID, 0) {
		t.Error("object survives eviction")
	}
}

func TestTotalCacheBytes(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	// 1584 satellites x 150 TB ≈ 237 PB for Shell 1; the paper's 900 PB is
	// for the full 6,000-satellite fleet.
	want := int64(1584) * (150 << 40)
	if s.TotalCacheBytes() != want {
		t.Errorf("TotalCacheBytes = %d, want %d", s.TotalCacheBytes(), want)
	}
}

func TestResolveOverhead(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	o := testObject("hot")
	s.Store(up.ID, o)
	res, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceOverhead || res.Sat != up.ID || res.Hops != 0 {
		t.Errorf("resolution = %+v, want overhead via %d", res, up.ID)
	}
	// One radio round trip + scheduling: ~20-40 ms.
	if got := ms(res.RTT); got < 18 || got > 45 {
		t.Errorf("overhead RTT = %v ms, want ~20-40", got)
	}
}

func TestResolveISL(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, _ := snap.BestVisible(maputo)
	// Place the object 3 hops away.
	ring := snap.ISLGraph().WithinHops(routing.NodeID(up.ID), 3)
	var target constellation.SatID = -1
	for _, hr := range ring {
		if hr.Hops == 3 {
			target = constellation.SatID(hr.Node)
			break
		}
	}
	if target < 0 {
		t.Fatal("no 3-hop satellite")
	}
	o := testObject("warm")
	s.Store(target, o)
	res, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceISL {
		t.Fatalf("source = %v, want isl", res.Source)
	}
	if res.Hops != 3 {
		t.Errorf("hops = %d, want 3", res.Hops)
	}
	up2, _ := snap.BestVisible(maputo)
	overheadRTT := 2*snap.UpDownDelay(maputo, up2.ID) +
		time.Duration(s.cfg.SchedFloorRTTMs*float64(time.Millisecond))
	if res.RTT <= overheadRTT {
		t.Error("ISL fetch must cost more than overhead fetch")
	}
}

// lateFill is a satellite cache whose first counted lookup misses and whose
// later ones see the real contents: a fill landing between the stage-1 probe
// and the stage-2 search, made deterministic.
type lateFill struct {
	cache.Cache
	probed bool
}

func (c *lateFill) Get(k cache.Key) bool {
	if !c.probed {
		c.probed = true
		return false
	}
	return c.Cache.Get(k)
}

// TestResolveLateFillIsOverhead: when the replica search lands on the uplink
// satellite itself no ISL leg is priced, so the answer is an overhead serve —
// never `isl` with 0 hops.
func TestResolveLateFillIsOverhead(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	o := testObject("late-fill")
	s.Store(up.ID, o)
	s.caches[int(up.ID)] = &lateFill{Cache: s.caches[int(up.ID)]}
	res, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if want.Source != SourceOverhead || res != want {
		t.Fatalf("late fill resolved %+v, want the plain overhead serve %+v", res, want)
	}
}

// TestResolveIndexedReplicaServesDespiteCountedMiss: with no lifecycle manager
// the replica index decides stage 2. A copy evicted between the search and
// the counted lookup (the index running ahead of the cache) still serves over
// ISLs; the request does not fall to ground and draws no ground-stage rng.
func TestResolveIndexedReplicaServesDespiteCountedMiss(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, _ := snap.BestVisible(maputo)
	var target constellation.SatID = -1
	for _, hr := range snap.ISLGraph().WithinHops(routing.NodeID(up.ID), 3) {
		if hr.Hops == 3 {
			target = constellation.SatID(hr.Node)
			break
		}
	}
	if target < 0 {
		t.Fatal("no 3-hop satellite")
	}
	o := testObject("evicted-under-search")
	s.Store(target, o)
	want, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	s.caches[int(target)] = &lateFill{Cache: s.caches[int(target)]}
	got, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.Source != SourceISL || got != want {
		t.Fatalf("counted miss on an indexed replica resolved %+v, want the ISL serve %+v", got, want)
	}
}

func TestResolveGroundFallback(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	o := testObject("cold") // nowhere in space
	res, err := s.Resolve(maputo, "MZ", o, snap, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceGround {
		t.Fatalf("source = %v, want ground", res.Source)
	}
	// Mozambique's bent pipe to Frankfurt: >100 ms (the measurement study's
	// status quo).
	if got := ms(res.RTT); got < 100 {
		t.Errorf("ground fallback RTT = %v ms, want >100 for MZ", got)
	}
}

func TestResolvePrefersCloserSource(t *testing.T) {
	// The same object overhead AND 5 hops away: overhead must win.
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	loc := geo.NewPoint(50.11, 8.68)
	up, _ := snap.BestVisible(loc)
	o := testObject("dup")
	s.Store(up.ID, o)
	ring := snap.ISLGraph().WithinHops(routing.NodeID(up.ID), 5)
	for _, hr := range ring {
		if hr.Hops == 5 {
			s.Store(constellation.SatID(hr.Node), o)
			break
		}
	}
	res, err := s.Resolve(loc, "DE", o, snap, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceOverhead {
		t.Errorf("source = %v, want overhead", res.Source)
	}
}

func TestFetchAtHopsMonotone(t *testing.T) {
	s := newSystem(t, Config{
		CacheBytesPerSat: 1 << 40, MaxISLSearchHops: 10,
		PerHopProcMs: 0.35, SchedFloorRTTMs: 18, SchedJitterMs: 0,
	})
	snap := testConst.Snapshot(0)
	loc := geo.NewPoint(48.85, 2.35) // Paris
	prev := time.Duration(0)
	for _, n := range []int{0, 1, 3, 5, 10} {
		rtt, err := s.FetchAtHops(loc, n, snap, nil)
		if err != nil {
			t.Fatalf("hops=%d: %v", n, err)
		}
		if rtt <= prev {
			t.Errorf("RTT at %d hops (%v) not greater than previous (%v)", n, rtt, prev)
		}
		prev = rtt
	}
	if _, err := s.FetchAtHops(loc, -1, snap, nil); err == nil {
		t.Error("negative hops accepted")
	}
}

func TestFetchAtHopsPhysicalRange(t *testing.T) {
	// Paper Fig. 7: content within 5 hops is competitive with terrestrial
	// CDN access (~20-40 ms); 10 hops roughly halves Starlink's latency.
	s := newSystem(t, Config{
		CacheBytesPerSat: 1 << 40, MaxISLSearchHops: 10,
		PerHopProcMs: 0.35, SchedFloorRTTMs: 18, SchedJitterMs: 0,
	})
	snap := testConst.Snapshot(0)
	loc := geo.NewPoint(-1.29, 36.82) // Nairobi
	r1, err := s.FetchAtHops(loc, 1, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(r1); got < 20 || got > 40 {
		t.Errorf("1-hop RTT = %v ms, want ~25-35", got)
	}
	r5, _ := s.FetchAtHops(loc, 5, snap, nil)
	if got := ms(r5); got < 25 || got > 70 {
		t.Errorf("5-hop RTT = %v ms, want ~30-60", got)
	}
	r10, _ := s.FetchAtHops(loc, 10, snap, nil)
	if got := ms(r10); got < 35 || got > 110 {
		t.Errorf("10-hop RTT = %v ms, want ~45-90", got)
	}
}

func TestNearestReplicaRTT(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	loc := geo.NewPoint(35.68, 139.65) // Tokyo
	o := testObject("jp")
	if _, _, found := s.NearestReplicaRTT(loc, o.ID, snap, nil); found {
		t.Error("found replica that does not exist")
	}
	up, _ := snap.BestVisible(loc)
	s.Store(up.ID, o)
	rtt, hops, found := s.NearestReplicaRTT(loc, o.ID, snap, nil)
	if !found || hops != 0 {
		t.Fatalf("found=%v hops=%d", found, hops)
	}
	if ms(rtt) < 15 || ms(rtt) > 45 {
		t.Errorf("overhead replica RTT = %v ms", ms(rtt))
	}
}

func TestPerPlaneSpacingPlacement(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	o := testObject("vid")
	n, err := Apply(s, PerPlaneSpacing{ReplicasPerPlane: 4}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*72 {
		t.Fatalf("placed %d replicas, want 288", n)
	}
	if s.ReplicaCount(o.ID) != 288 {
		t.Errorf("replica count = %d", s.ReplicaCount(o.ID))
	}
	// Evenly spaced: within any plane, replica slots differ by ~spp/k.
	c := s.Constellation()
	var slots []int
	for slot := 0; slot < c.SatsPerPlane(); slot++ {
		if s.caches[int(c.ID(0, slot))].Peek("vid") {
			slots = append(slots, slot)
		}
	}
	if len(slots) != 4 {
		t.Fatalf("plane 0 has %d replicas, want 4", len(slots))
	}
	// The paper's claim: with 4 copies per plane an object is reachable
	// within 5 hops inside the plane (22/4 = 5.5 slot gap -> <= 3 hops to
	// the nearest copy along the ring, but <= 5 even for sparse phasing).
	for slot := 0; slot < c.SatsPerPlane(); slot++ {
		best := 100
		for _, rs := range slots {
			d := (slot - rs + 22) % 22
			if 22-d < d {
				d = 22 - d
			}
			if d < best {
				best = d
			}
		}
		if best > 5 {
			t.Errorf("slot %d is %d hops from nearest replica, want <= 5", slot, best)
		}
	}
}

func TestSinglePlanePlacement(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	o := testObject("single")
	n, err := Apply(s, SinglePlaneSpacing{Plane: 3, ReplicasPerPlane: 4}, o)
	if err != nil || n != 4 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	c := s.Constellation()
	for i := 0; i < c.Total(); i++ {
		if s.caches[i].Peek("single") && c.Plane(constellation.SatID(i)) != 3 {
			t.Errorf("replica outside plane 3 at sat %d", i)
		}
	}
}

func TestRandomFractionPlacement(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	o := testObject("rand")
	n, err := Apply(s, RandomFraction{F: 0.25, Seed: 9}, o)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.25 * 1584)
	if n < want-80 || n > want+80 {
		t.Errorf("random placement = %d, want ~%d", n, want)
	}
	// Deterministic for the same seed and object.
	s2 := newSystem(t, DefaultConfig())
	n2, _ := Apply(s2, RandomFraction{F: 0.25, Seed: 9}, o)
	if n != n2 {
		t.Error("random placement not deterministic")
	}
	if got := (RandomFraction{F: 0}).Replicas(s, o); got != nil {
		t.Error("zero fraction should place nothing")
	}
	if _, err := Apply(s, nil, o); err == nil {
		t.Error("nil placement accepted")
	}
}

func TestApplyCatalog(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	cat, err := content.GenerateCatalog(content.CatalogConfig{
		Objects: 300, MeanObjectBytes: 1 << 20, ZipfS: 0.9, RegionBoost: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	total, err := ApplyCatalog(s, PerPlaneSpacing{ReplicasPerPlane: 1}, cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	// <= 6 regions x 10 objects x 72 planes, minus overlap between regional
	// top-10 lists.
	if total < 10*72 || total > 60*72 {
		t.Errorf("total replicas = %d", total)
	}
}
