package spacecdn

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/stats"
)

// seedMixedWorkload stores the same placement into a system: per-city "hot"
// objects on the serving satellite, "warm" objects scattered over the fleet
// (reachable over ISLs), and nothing for "cold" objects. Returns the request
// mix covering all three resolution sources.
type accelReq struct {
	city geo.City
	obj  content.Object
}

func seedMixedWorkload(s *System, snap *constellation.Snapshot, cities []geo.City) []accelReq {
	var reqs []accelReq
	total := s.Constellation().Total()
	for i, city := range cities {
		hot := testObject(fmt.Sprintf("accel-hot-%d", i))
		if up, ok := snap.BestVisible(city.Loc); ok {
			s.Store(up.ID, hot)
		}
		warm := testObject(fmt.Sprintf("accel-warm-%d", i))
		s.Store(constellation.SatID((i*37+11)%total), warm)
		cold := testObject(fmt.Sprintf("accel-cold-%d", i))
		reqs = append(reqs,
			accelReq{city, hot}, accelReq{city, warm}, accelReq{city, cold})
	}
	return reqs
}

// TestResolveMatchesReference drives the accelerated Resolve and the
// preserved naive pipeline (ResolveReference) over identical systems, request
// streams and rng seeds, and requires byte-identical Resolution streams —
// the acceptance bar for the acceleration layer.
func TestResolveMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"always-on", DefaultConfig()},
		{"duty-cycled", func() Config {
			cfg := DefaultConfig()
			cfg.DutyCycle = &DutyCycleConfig{Fraction: 0.5, Slot: time.Minute, Seed: 7}
			return cfg
		}()},
	}
	cities := geo.Cities()
	if len(cities) > 25 {
		cities = cities[:25]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast := newSystem(t, tc.cfg)
			naive := newSystem(t, tc.cfg)
			for _, tm := range []time.Duration{0, 42 * time.Second} {
				// Fresh snapshots per system so memo state cannot leak
				// between the two pipelines.
				snapFast := testConst.Snapshot(tm)
				snapNaive := testConst.Snapshot(tm)
				reqsFast := seedMixedWorkload(fast, snapFast, cities)
				reqsNaive := seedMixedWorkload(naive, snapNaive, cities)
				rngFast := stats.NewRand(99)
				rngNaive := stats.NewRand(99)
				for i := range reqsFast {
					rf, errF := fast.Resolve(reqsFast[i].city.Loc, reqsFast[i].city.Country, reqsFast[i].obj, snapFast, rngFast)
					rn, errN := naive.ResolveReference(reqsNaive[i].city.Loc, reqsNaive[i].city.Country, reqsNaive[i].obj, snapNaive, rngNaive)
					if (errF == nil) != (errN == nil) {
						t.Fatalf("t=%v req %d (%s): err mismatch fast=%v naive=%v", tm, i, reqsFast[i].obj.ID, errF, errN)
					}
					if rf != rn {
						t.Fatalf("t=%v req %d (%s): fast %+v != naive %+v", tm, i, reqsFast[i].obj.ID, rf, rn)
					}
				}
				// The side-effect streams must match too: identical cache
				// stats on every satellite.
				for id := 0; id < testConst.Total(); id++ {
					sf := fast.CacheOf(constellation.SatID(id)).Stats()
					sn := naive.CacheOf(constellation.SatID(id)).Stats()
					if sf != sn {
						t.Fatalf("t=%v sat %d: stats diverged: fast %+v naive %+v", tm, id, sf, sn)
					}
				}
				fast.ClearAll()
				naive.ClearAll()
			}
		})
	}
}

// TestSteadyStateResolveZeroAlloc pins the warm request path — overhead hits
// and ISL hits with telemetry detached — to zero allocations per resolve.
func TestSteadyStateResolveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	s := newSystem(t, DefaultConfig())
	snap := testConst.Snapshot(0)
	city := geo.NewPoint(40.4168, -3.7038) // Madrid
	up, ok := snap.BestVisible(city)
	if !ok {
		t.Fatal("no satellite visible")
	}
	hot := testObject("zeroalloc-hot")
	s.Store(up.ID, hot)
	warm := testObject("zeroalloc-warm")
	// Place the warm object a few ISL hops out so stage 2 resolves it.
	g := snap.ISLGraph()
	ring := g.WithinHops(1, 0) // unused guard; keep graph built
	_ = ring
	warmSat := snap.ISLNeighbors(up.ID)[0]
	warmSat2 := snap.ISLNeighbors(warmSat)[0]
	s.Store(warmSat2, warm)
	rng := stats.NewRand(5)

	for _, tc := range []struct {
		name string
		obj  content.Object
		want Source
	}{
		{"overhead", hot, SourceOverhead},
		{"isl", warm, SourceISL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm every layer: grid, memo, scratch pools.
			res, err := s.Resolve(city, "ES", tc.obj, snap, rng)
			if err != nil || res.Source != tc.want {
				t.Fatalf("warmup: res %+v err %v, want source %v", res, err, tc.want)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Resolve(city, "ES", tc.obj, snap, rng); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s Resolve allocs/op = %v, want 0", tc.name, allocs)
			}
		})
	}
}

// TestWarmGroundResolveAtZeroAlloc pins the allocation ceiling of a warm,
// ground-served request on a pinned epoch: the overhead satellite and the
// ground path are memoized on the epoch's snapshot, so ResolveAt allocates
// nothing.
func TestWarmGroundResolveAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	s := newSystem(t, DefaultConfig())
	ep := s.NewEpoch(1, testConst.Snapshot(0))
	city := geo.NewPoint(40.4168, -3.7038) // Madrid
	obj := testObject("zeroalloc-ground")  // stored nowhere: stage 3 serves it
	rng := stats.NewRand(9)
	if res, err := s.ResolveAt(ep, city, "ES", obj, rng); err != nil || res.Source != SourceGround {
		t.Fatalf("warmup: res %+v err %v, want a ground serve", res, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ResolveAt(ep, city, "ES", obj, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ground-served ResolveAt allocs/op = %v, want 0", allocs)
	}
}

// TestIslOneWayUnreachable is the regression test for the silent-(0,0) bug:
// with cross-plane ISLs disabled every plane is an isolated ring, and pricing
// a path into another plane must report unreachable, not free.
func TestIslOneWayUnreachable(t *testing.T) {
	ccfg := constellation.DefaultConfig()
	ccfg.CrossPlaneISLs = false
	c := constellation.MustNew(ccfg)
	l := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	s, err := NewSystem(DefaultConfig(), c, l)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot(0)
	inPlane := c.ID(0, 3)
	otherPlane := c.ID(1, 0)

	if d, h, ok := s.islOneWay(snap, c.ID(0, 0), inPlane); !ok || h == 0 || d <= 0 {
		t.Fatalf("intra-plane path should be reachable, got (%v, %d, %v)", d, h, ok)
	}
	if d, h, ok := s.islOneWay(snap, c.ID(0, 0), otherPlane); ok || d != 0 || h != 0 {
		t.Fatalf("cross-plane path in a partitioned graph must be (0, 0, false), got (%v, %d, %v)", d, h, ok)
	}

	// End to end: a replica that exists only in an unreachable plane must
	// fall through to the ground stage instead of being served for free.
	city := geo.NewPoint(40.4168, -3.7038)
	up, ok := snap.BestVisible(city)
	if !ok {
		t.Fatal("no satellite visible")
	}
	obj := testObject("partitioned")
	stored := false
	for p := 0; p < c.Planes(); p++ {
		id := c.ID(p, 0)
		if c.Plane(up.ID) != p {
			s.Store(id, obj)
			stored = true
			break
		}
	}
	if !stored {
		t.Fatal("could not place replica off-plane")
	}
	res, err := s.Resolve(city, "ES", obj, snap, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceGround {
		t.Fatalf("unreachable replica resolved from %v, want ground", res.Source)
	}
	if _, _, found := s.NearestReplicaRTT(city, obj.ID, snap, stats.NewRand(3)); found {
		t.Fatal("NearestReplicaRTT found an unreachable replica")
	}
}

// TestReplicaIndexTracksCaches drives random placement and eviction through
// every mutation path and checks the bitset index against a Peek scan.
func TestReplicaIndexTracksCaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytesPerSat = 3 << 20 // three 1 MiB objects per satellite: forces capacity evictions
	s := newSystem(t, cfg)
	total := testConst.Total()
	rng := rand.New(rand.NewSource(17))
	objs := make([]content.Object, 12)
	for i := range objs {
		objs[i] = testObject(fmt.Sprintf("ri-%d", i))
	}
	check := func(when string) {
		t.Helper()
		for _, o := range objs {
			want := 0
			for id := 0; id < total; id++ {
				if s.CacheOf(constellation.SatID(id)).Peek(cache.Key(o.ID)) {
					want++
				}
			}
			if got := s.ReplicaCount(o.ID); got != want {
				t.Fatalf("%s: object %s: index count %d != peek scan %d", when, o.ID, got, want)
			}
			set := s.ReplicaSet(o.ID)
			for id := 0; id < total; id++ {
				if set.Test(id) != s.CacheOf(constellation.SatID(id)).Peek(cache.Key(o.ID)) {
					t.Fatalf("%s: object %s sat %d: bitset disagrees with cache", when, o.ID, id)
				}
			}
		}
	}
	for round := 0; round < 40; round++ {
		id := constellation.SatID(rng.Intn(64)) // small satellite pool → churn
		o := objs[rng.Intn(len(objs))]
		if rng.Float64() < 0.7 {
			s.Store(id, o)
		} else {
			s.Evict(id, o.ID)
		}
	}
	check("after churn")

	// Region-change eviction path (GeoAware makeRoom) also feeds the index.
	gc := s.GeoCacheOf(3)
	gc.SetRegion(geo.RegionEurope.String())
	for i := 0; i < 4; i++ { // overflow: out-of-region objects evicted first
		s.Store(3, objs[i])
	}
	check("after region churn")

	s.ClearAll()
	for _, o := range objs {
		if s.ReplicaCount(o.ID) != 0 {
			t.Fatalf("ClearAll left %s with replicas", o.ID)
		}
	}
	// Listeners must be rewired after ClearAll.
	s.Store(9, objs[0])
	if s.ReplicaCount(objs[0].ID) != 1 || !s.ReplicaSet(objs[0].ID).Test(9) {
		t.Fatal("index not rewired after ClearAll")
	}
}

// TestActiveSetMatchesActive checks the cached duty-cycle bitset bit-for-bit
// against the per-satellite predicate, across slots.
func TestActiveSetMatchesActive(t *testing.T) {
	d := NewDutyCycler(DutyCycleConfig{Fraction: 0.3, Slot: time.Minute, Seed: 11}, 500)
	for _, tm := range []time.Duration{0, 30 * time.Second, time.Minute, 5 * time.Minute} {
		set := d.ActiveSet(tm)
		for i := 0; i < 500; i++ {
			if set.Test(i) != d.Active(constellation.SatID(i), tm) {
				t.Fatalf("t=%v sat %d: bitset %v != Active %v", tm, i, set.Test(i), d.Active(constellation.SatID(i), tm))
			}
		}
	}
	// Within one slot the cached set is reused without allocation.
	d.ActiveSet(0)
	allocs := testing.AllocsPerRun(50, func() { d.ActiveSet(10 * time.Second) })
	if allocs != 0 {
		t.Fatalf("same-slot ActiveSet allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkResolveAccelerated(b *testing.B) {
	s, err := NewSystem(DefaultConfig(), testConst, testLSN)
	if err != nil {
		b.Fatal(err)
	}
	snap := testConst.Snapshot(0)
	city := geo.NewPoint(40.4168, -3.7038)
	up, _ := snap.BestVisible(city)
	warm := testObject("bench-warm")
	s.Store(snap.ISLNeighbors(snap.ISLNeighbors(up.ID)[0])[0], warm)
	rng := stats.NewRand(1)
	s.Resolve(city, "ES", warm, snap, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Resolve(city, "ES", warm, snap, rng)
	}
}

func BenchmarkResolveReference(b *testing.B) {
	s, err := NewSystem(DefaultConfig(), testConst, testLSN)
	if err != nil {
		b.Fatal(err)
	}
	snap := testConst.Snapshot(0)
	city := geo.NewPoint(40.4168, -3.7038)
	up, _ := snap.BestVisible(city)
	warm := testObject("bench-warm")
	s.Store(snap.ISLNeighbors(snap.ISLNeighbors(up.ID)[0])[0], warm)
	rng := stats.NewRand(1)
	s.ResolveReference(city, "ES", warm, snap, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResolveReference(city, "ES", warm, snap, rng)
	}
}
