package spacecdn

import (
	"sync"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/stats"
)

// epochTestRequests builds a mixed request stream (space hits and ground
// fallbacks) over the first few cities.
func epochTestRequests(s *System, n int) []Request {
	cities := geo.Cities()
	if len(cities) > 8 {
		cities = cities[:8]
	}
	place := testConst.Snapshot(0)
	var objs []content.Object
	for i, city := range cities {
		hot := testObject("ep-hot-" + city.Name)
		if up, ok := place.BestVisible(city.Loc); ok {
			s.Store(up.ID, hot)
		}
		warm := testObject("ep-warm-" + city.Name)
		s.Store(constellation.SatID((i*41+7)%testConst.Total()), warm)
		objs = append(objs, hot, warm, testObject("ep-cold-"+city.Name))
	}
	reqs := make([]Request, n)
	for i := range reqs {
		city := cities[i%len(cities)]
		reqs[i] = Request{Client: city.Loc, ISO2: city.Country, Obj: objs[i%len(objs)]}
	}
	return reqs
}

// TestResolveAtMatchesResolve is the equivalence bar for the epoch entry
// point: for equal snapshot, fault state, and rng state, ResolveAt must
// return the byte-identical Resolution stream Resolve does — healthy,
// degraded, and inert-lifecycle alike.
func TestResolveAtMatchesResolve(t *testing.T) {
	cases := []struct {
		name  string
		wire  func(s *System)
		tAt   time.Duration
		wantD bool
		// wantLC: the row's requests must be lifecycle-classified.
		wantLC bool
	}{
		{name: "healthy", wire: func(*System) {}, tAt: 0},
		{name: "inert-lifecycle", wire: func(s *System) { s.SetLifecycle(inertManager()) }, tAt: 0},
		{
			name: "degraded",
			wire: func(s *System) {
				s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{
					{Kind: faults.KindSatellite, Sat: 3, Start: 0, End: time.Hour},
					{Kind: faults.KindSatellite, Sat: 97, Start: 0, End: time.Hour},
				}))
			},
			tAt:   time.Second,
			wantD: true,
		},
		{
			// Faults choose the topology, lifecycle the classifier: the
			// inline intent sink of both entry points must agree over a
			// masked view too.
			name: "faults+lifecycle",
			wire: func(s *System) {
				s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{
					{Kind: faults.KindSatellite, Sat: 3, Start: 0, End: time.Hour},
					{Kind: faults.KindSatellite, Sat: 97, Start: 0, End: time.Hour},
				}))
				s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
			},
			tAt:    time.Second,
			wantD:  true,
			wantLC: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newSystem(t, DefaultConfig())
			b := newSystem(t, DefaultConfig())
			tc.wire(a)
			tc.wire(b)
			reqsA := epochTestRequests(a, 60)
			epochTestRequests(b, 60)
			snapA := testConst.Snapshot(tc.tAt)
			snapB := testConst.Snapshot(tc.tAt)
			ep := a.NewEpoch(7, snapA)
			if ep.Seq() != 7 || ep.Time() != tc.tAt || ep.Snapshot() != snapA {
				t.Fatalf("epoch accessors: seq=%d t=%v", ep.Seq(), ep.Time())
			}
			if ep.Degraded() != tc.wantD {
				t.Fatalf("Degraded() = %v, want %v", ep.Degraded(), tc.wantD)
			}
			rngA, rngB := stats.NewRand(11), stats.NewRand(11)
			for i, rq := range reqsA {
				ra, errA := a.ResolveAt(ep, rq.Client, rq.ISO2, rq.Obj, rngA)
				rb, errB := b.Resolve(rq.Client, rq.ISO2, rq.Obj, snapB, rngB)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("req %d: err mismatch at=%v resolve=%v", i, errA, errB)
				}
				if ra != rb {
					t.Fatalf("req %d (%s): ResolveAt %+v != Resolve %+v", i, rq.Obj.ID, ra, rb)
				}
			}
			if a.FaultStats() != b.FaultStats() {
				t.Fatalf("fault counters diverged: %+v vs %+v", a.FaultStats(), b.FaultStats())
			}
			if a.LifecycleStats() != b.LifecycleStats() {
				t.Fatalf("lifecycle counters diverged: %+v vs %+v", a.LifecycleStats(), b.LifecycleStats())
			}
			if ls := a.LifecycleStats(); (ls != LifecycleStats{}) != tc.wantLC {
				t.Fatalf("lifecycle accounting ran = %v, want %v: %+v", !tc.wantLC, tc.wantLC, ls)
			}
		})
	}
}

// TestResolveAtPinsFaultView: the epoch pins the fault view of its own
// instant, so a request resolving on an older epoch after an outage starts
// still sees the healthy pipeline — by design, staleness is bounded by the
// sweep interval, never torn mid-request.
func TestResolveAtPinsFaultView(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{
		{Kind: faults.KindSatellite, Sat: 5, Start: 30 * time.Second, End: time.Hour},
	}))
	healthy := s.NewEpoch(1, testConst.Snapshot(0))
	if healthy.Degraded() {
		t.Fatal("epoch before the outage must be healthy")
	}
	faulty := s.NewEpoch(2, testConst.Snapshot(time.Minute))
	if !faulty.Degraded() {
		t.Fatal("epoch inside the outage must pin the degraded view")
	}
	maputo := geo.NewPoint(-25.9692, 32.5732)
	if _, err := s.ResolveAt(healthy, maputo, "MZ", testObject("pin"), stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.FaultStats().DegradedRequests; got != 0 {
		t.Fatalf("healthy-epoch resolve ran degraded pipeline (%d)", got)
	}
	if _, err := s.ResolveAt(faulty, maputo, "MZ", testObject("pin"), stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.FaultStats().DegradedRequests; got != 1 {
		t.Fatalf("degraded requests = %d, want 1", got)
	}
}

// TestLifecycleApplierCoalescing: N concurrent misses for one object from
// one cell, resolved through ResolveAt with the single-writer applier
// attached, collapse to a single origin flight with N-1 coalesced
// followers — the serve-path equivalent of the batch flash-crowd test.
func TestLifecycleApplierCoalescing(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	s.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	stop := s.StartLifecycleApplier(0)
	ep := s.NewEpoch(1, testConst.Snapshot(0))
	maputo := geo.NewPoint(-25.9692, 32.5732)
	obj := classedObject("applier-flash", content.ClassNews)

	const crowd = 24
	var wg sync.WaitGroup
	errs := make([]error, crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRand(int64(100 + i))
			res, err := s.ResolveAt(ep, maputo, "MZ", obj, rng)
			if err == nil && res.Source != SourceGround {
				// All goroutines race the winner's fill: a late resolver can
				// legitimately hit the filled copy in space.
				_ = res
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	stop()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
	ls := s.LifecycleStats()
	if ls.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (coalesced=%d needed=%d)", ls.OriginFetches, ls.Coalesced, ls.OriginNeeded)
	}
	if ls.OriginNeeded != ls.OriginFetches+ls.Coalesced {
		t.Fatalf("flight accounting does not balance: %+v", ls)
	}
	total := ls.MissServes + ls.FreshServes + ls.StaleServes + ls.ExpiredServes
	if total != crowd {
		t.Fatalf("serve classes sum to %d, want %d", total, crowd)
	}
	// The winner's fill landed: a fresh request is a space hit.
	res, err := s.Resolve(maputo, "MZ", obj, testConst.Snapshot(0), stats.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == SourceGround {
		t.Fatal("post-fill request fell through to ground")
	}
}

// TestLifecycleApplierWindowReset: the applier's coalescing window is one
// sim instant — intents from a later epoch dispatch their own flight even
// for an identical flight key.
func TestLifecycleApplierWindowReset(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	policy := lifecycle.DefaultPolicy()
	s.SetLifecycle(lifecycle.NewManager(policy, testConst.Total()))
	stop := s.StartLifecycleApplier(4)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	// An API-class object, asked for again once its TTL and its stale window
	// have both run out. The applier races the second request: if the first
	// fill has landed the copy is expired, if it has not there is no copy —
	// either way the second epoch needs origin again.
	obj := classedObject("applier-window", content.ClassAPI)
	for i, tm := range []time.Duration{0, policy.API.TTL + policy.API.StaleFor + time.Second} {
		ep := s.NewEpoch(uint64(i+1), testConst.Snapshot(tm))
		if _, err := s.ResolveAt(ep, maputo, "MZ", obj, stats.NewRand(int64(i))); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
	}
	stop()
	ls := s.LifecycleStats()
	if ls.OriginFetches != 2 || ls.Coalesced != 0 {
		t.Fatalf("fetches/coalesced = %d/%d, want 2/0 (window must reset across epochs)", ls.OriginFetches, ls.Coalesced)
	}
}

// TestResolveAtWithoutApplier: ResolveAt on an active-lifecycle system with
// no applier attached applies intents inline, matching Resolve exactly.
func TestResolveAtWithoutApplier(t *testing.T) {
	a := newSystem(t, DefaultConfig())
	b := newSystem(t, DefaultConfig())
	a.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	b.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	snapA, snapB := testConst.Snapshot(0), testConst.Snapshot(0)
	ep := a.NewEpoch(1, snapA)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	obj := classedObject("no-applier", content.ClassNews)
	rngA, rngB := stats.NewRand(3), stats.NewRand(3)
	for i := 0; i < 3; i++ {
		ra, errA := a.ResolveAt(ep, maputo, "MZ", obj, rngA)
		rb, errB := b.Resolve(maputo, "MZ", obj, snapB, rngB)
		if (errA == nil) != (errB == nil) || ra != rb {
			t.Fatalf("round %d: ResolveAt %+v (%v) != Resolve %+v (%v)", i, ra, errA, rb, errB)
		}
	}
	if a.LifecycleStats() != b.LifecycleStats() {
		t.Fatalf("lifecycle stats diverged: %+v vs %+v", a.LifecycleStats(), b.LifecycleStats())
	}
}
