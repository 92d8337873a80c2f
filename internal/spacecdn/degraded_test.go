package spacecdn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/parallel"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// wholeWindowOutage builds an outage covering [0, 1h) — active at every
// snapshot time the tests use.
func wholeWindowOutage(kind faults.Kind) faults.Outage {
	return faults.Outage{Kind: kind, Start: 0, End: time.Hour}
}

func satOutage(id constellation.SatID) faults.Outage {
	o := wholeWindowOutage(faults.KindSatellite)
	o.Sat = id
	return o
}

// TestResolveEmptyFaultPlanMatchesReference is the zero-fault acceptance
// bar: with an empty plan attached, the Resolution stream must stay
// byte-identical to the naive reference pipeline, including duty-cycled
// configurations and cache side effects.
func TestResolveEmptyFaultPlanMatchesReference(t *testing.T) {
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
	emptyPlan, err := faults.NewPlan(faults.DefaultConfig(), testConst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !emptyPlan.Empty() {
		t.Fatal("default fault config must yield an empty plan")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty := newSystem(t, tc.cfg)
			faulty.SetFaultPlan(emptyPlan)
			naive := newSystem(t, tc.cfg)
			for _, tm := range []time.Duration{0, 42 * time.Second} {
				snapFaulty := testConst.Snapshot(tm)
				snapNaive := testConst.Snapshot(tm)
				reqsFaulty := seedMixedWorkload(faulty, snapFaulty, cities)
				reqsNaive := seedMixedWorkload(naive, snapNaive, cities)
				rngFaulty := stats.NewRand(99)
				rngNaive := stats.NewRand(99)
				for i := range reqsFaulty {
					rf, errF := faulty.Resolve(reqsFaulty[i].city.Loc, reqsFaulty[i].city.Country, reqsFaulty[i].obj, snapFaulty, rngFaulty)
					rn, errN := naive.ResolveReference(reqsNaive[i].city.Loc, reqsNaive[i].city.Country, reqsNaive[i].obj, snapNaive, rngNaive)
					if (errF == nil) != (errN == nil) {
						t.Fatalf("t=%v req %d: err mismatch faulty=%v naive=%v", tm, i, errF, errN)
					}
					if rf != rn {
						t.Fatalf("t=%v req %d (%s): faulty %+v != naive %+v", tm, i, reqsFaulty[i].obj.ID, rf, rn)
					}
				}
				for id := 0; id < testConst.Total(); id++ {
					sf := faulty.CacheOf(constellation.SatID(id)).Stats()
					sn := naive.CacheOf(constellation.SatID(id)).Stats()
					if sf != sn {
						t.Fatalf("t=%v sat %d: stats diverged: faulty %+v naive %+v", tm, id, sf, sn)
					}
				}
				faulty.ClearAll()
				naive.ClearAll()
			}
			if fs := faulty.FaultStats(); fs != (FaultStats{}) {
				t.Fatalf("empty plan must never enter the degraded pipeline: %+v", fs)
			}
		})
	}
}

// TestResolveFaultFreeTimeUsesHealthyPath: a plan whose outages all start
// later must leave resolutions at earlier times untouched.
func TestResolveFaultFreeTimeUsesHealthyPath(t *testing.T) {
	city := geo.NewPoint(40.4168, -3.7038) // Madrid
	snapA := testConst.Snapshot(0)
	snapB := testConst.Snapshot(0)
	up, ok := snapA.BestVisible(city)
	if !ok {
		t.Fatal("no satellite visible")
	}
	o := satOutage(up.ID)
	o.Start = 30 * time.Minute
	plan := faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{o})

	faulty := newSystem(t, DefaultConfig())
	faulty.SetFaultPlan(plan)
	plain := newSystem(t, DefaultConfig())
	hot := testObject("prefault-hot")
	faulty.Store(up.ID, hot)
	plain.Store(up.ID, hot)

	rf, errF := faulty.Resolve(city, "ES", hot, snapA, stats.NewRand(4))
	rp, errP := plain.Resolve(city, "ES", hot, snapB, stats.NewRand(4))
	if errF != nil || errP != nil {
		t.Fatalf("errs: %v / %v", errF, errP)
	}
	if rf != rp {
		t.Fatalf("pre-outage resolution diverged: %+v vs %+v", rf, rp)
	}
	if fs := faulty.FaultStats(); fs.DegradedRequests != 0 {
		t.Fatalf("no outage active yet, but degraded pipeline ran: %+v", fs)
	}
}

// TestResolveDegradedUplinkFailover kills the serving satellite and expects
// the request re-homed to the next surviving visible one.
func TestResolveDegradedUplinkFailover(t *testing.T) {
	city := geo.NewPoint(40.4168, -3.7038)
	snap := testConst.Snapshot(0)
	vis := snap.Visible(city)
	if len(vis) < 2 {
		t.Fatalf("need two visible satellites, have %d", len(vis))
	}
	dead, next := vis[0], vis[1]

	s := newSystem(t, DefaultConfig())
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{satOutage(dead.ID)}))
	// The object sits on both the dead satellite and its successor: a
	// healthy system would serve it from `dead` overhead.
	hot := testObject("fo-hot")
	s.Store(dead.ID, hot)
	s.Store(next.ID, hot)

	res, err := s.Resolve(city, "ES", hot, snap, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat == dead.ID {
		t.Fatalf("served from the dead satellite: %+v", res)
	}
	if res.Source != SourceOverhead || res.Sat != next.ID {
		t.Fatalf("want overhead hit on the surviving satellite %d, got %+v", next.ID, res)
	}
	fs := s.FaultStats()
	if fs.DegradedRequests != 1 || fs.UplinkFailovers != 1 {
		t.Fatalf("stats = %+v, want 1 degraded / 1 uplink failover", fs)
	}
}

// TestResolveDegradedReplicaExclusion: when the only ISL replica is dead the
// search must skip it and fall through to ground, recording the replica
// failover.
func TestResolveDegradedReplicaExclusion(t *testing.T) {
	city := geo.NewPoint(40.4168, -3.7038)
	snap := testConst.Snapshot(0)
	up, ok := snap.BestVisible(city)
	if !ok {
		t.Fatal("no satellite visible")
	}
	holder := snap.ISLNeighbors(snap.ISLNeighbors(up.ID)[0])[0]

	s := newSystem(t, DefaultConfig())
	warm := testObject("fo-warm")
	s.Store(holder, warm)

	// Healthy control: the replica serves over ISLs.
	if res, err := s.Resolve(city, "ES", warm, snap, stats.NewRand(8)); err != nil || res.Source != SourceISL {
		t.Fatalf("healthy control: %+v err=%v, want ISL", res, err)
	}

	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{satOutage(holder)}))
	res, err := s.Resolve(city, "ES", warm, snap, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceGround {
		t.Fatalf("dead-only replica must fall to ground, got %+v", res)
	}
	fs := s.FaultStats()
	if fs.ReplicaFailovers != 1 {
		t.Fatalf("stats = %+v, want 1 replica failover", fs)
	}
}

// TestResolveDegradedPoPFailover blacks out the client's assigned PoP and
// expects the ground fallback served from another, without error.
func TestResolveDegradedPoPFailover(t *testing.T) {
	city := geo.NewPoint(40.4168, -3.7038)
	snap := testConst.Snapshot(0)
	o := wholeWindowOutage(faults.KindPoP)
	o.PoP = "mad" // Madrid's assigned PoP
	s := newSystem(t, DefaultConfig())
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{o}))

	cold := testObject("fo-cold")
	res, err := s.Resolve(city, "ES", cold, snap, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceGround {
		t.Fatalf("cold object should resolve from ground, got %+v", res)
	}
	fs := s.FaultStats()
	if fs.PoPFailovers != 1 {
		t.Fatalf("stats = %+v, want 1 PoP failover", fs)
	}
}

// TestResolvePartitionedConstellationNoErrors is the graceful-degradation
// regression: with EVERY inter-satellite link down, stage 2 can serve
// nothing and ground paths shrink to shared-visibility satellites — yet no
// request may error, because a ground path still exists (the PoP failover
// sweep finds a station whose sky overlaps the client's).
func TestResolvePartitionedConstellationNoErrors(t *testing.T) {
	snap := testConst.Snapshot(0)
	g := snap.ISLGraph()
	var outages []faults.Outage
	for n := 0; n < g.Len(); n++ {
		for _, e := range g.Neighbors(routing.NodeID(n)) {
			if int(e.To) < n {
				continue
			}
			o := wholeWindowOutage(faults.KindISL)
			o.Link = constellation.LinkID{A: constellation.SatID(n), B: constellation.SatID(e.To)}
			outages = append(outages, o)
		}
	}
	s := newSystem(t, DefaultConfig())
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), outages))

	cities := geo.Cities()
	if len(cities) > 20 {
		cities = cities[:20]
	}
	// groundPathExists is the oracle for "any ground path is reachable":
	// with zero ISLs a path exists iff some satellite is visible from both
	// the client and a ground station of any PoP.
	ground := groundseg.NewCatalog()
	groundPathExists := func(client geo.Point) bool {
		clientVis := routing.NewBitset(testConst.Total())
		for _, v := range snap.Visible(client) {
			clientVis.Set(int(v.ID))
		}
		for _, pop := range ground.PoPs() {
			for _, gs := range ground.StationsForPoP(pop.Name) {
				for _, v := range snap.Visible(gs.Loc) {
					if clientVis.Test(int(v.ID)) {
						return true
					}
				}
			}
		}
		return false
	}

	reqs := seedMixedWorkload(s, snap, cities)
	rng := stats.NewRand(12)
	for i, rq := range reqs {
		res, err := s.Resolve(rq.city.Loc, rq.city.Country, rq.obj, snap, rng)
		if err != nil {
			// Errors are allowed only when no ground path survives at all
			// (e.g. a client whose sky shares no satellite with any station).
			if groundPathExists(rq.city.Loc) {
				t.Fatalf("req %d (%s from %s): errored while a ground path exists: %v",
					i, rq.obj.ID, rq.city.Name, err)
			}
			// The typed error keeps the lsn cause matchable.
			if !errors.Is(err, ErrNoGroundPath) || !errors.Is(err, lsn.ErrNoVisibility) {
				t.Fatalf("req %d: %v is not ErrNoGroundPath wrapping lsn.ErrNoVisibility", i, err)
			}
			continue
		}
		// With zero ISLs, nothing can be served over stage 2 more than 0
		// hops away.
		if res.Source == SourceISL && res.Hops > 0 {
			t.Fatalf("req %d served over a dead ISL: %+v", i, res)
		}
	}
	if fs := s.FaultStats(); fs.DegradedRequests != int64(len(reqs)) {
		t.Fatalf("every request should have run degraded: %+v, want %d", fs.DegradedRequests, len(reqs))
	}
}

// TestResolveAllWorkerInvarianceUnderFaults: same seed + same fault plan
// must produce identical batch results for any worker count.
func TestResolveAllWorkerInvarianceUnderFaults(t *testing.T) {
	cfg := faults.DefaultConfig()
	cfg.Seed = 21
	cfg.SatFraction = 0.3
	cfg.ISLFraction = 0.1
	cfg.PoPFraction = 0.2
	plan, err := faults.NewPlan(cfg, testConst, []string{"mad", "fra", "sea", "syd"})
	if err != nil {
		t.Fatal(err)
	}
	cities := geo.Cities()
	if len(cities) > 20 {
		cities = cities[:20]
	}
	fixture := func() (*System, []Request, *constellation.Snapshot) {
		s := newSystem(t, DefaultConfig())
		s.SetFaultPlan(plan)
		snap := testConst.Snapshot(10 * time.Minute)
		seeded := seedMixedWorkload(s, snap, cities)
		reqs := make([]Request, len(seeded))
		for i, rq := range seeded {
			reqs[i] = Request{Client: rq.city.Loc, ISO2: rq.city.Country, Obj: rq.obj}
		}
		return s, reqs, snap
	}
	run := func(workers int) []BatchResult {
		s, reqs, snap := fixture()
		return s.ResolveAll(reqs, snap, stats.NewRand(77), workers)
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: length %d != %d", workers, len(got), len(base))
		}
		for i := range base {
			if (base[i].Err == nil) != (got[i].Err == nil) || base[i].Resolution != got[i].Resolution {
				t.Fatalf("workers=%d req %d: %+v (err %v) != %+v (err %v)",
					workers, i, got[i].Resolution, got[i].Err, base[i].Resolution, base[i].Err)
			}
		}
	}

	// A batch resolves against one fault view and one masked topology: it
	// equals its shard streams issued by hand against a single epoch pinned up
	// front — with the plan detached afterwards, so nothing but that epoch's
	// view can have been consulted.
	s, reqs, snap := fixture()
	ep := s.NewEpoch(1, snap)
	if !ep.Degraded() || ep.topo != topology(snap.Masked(ep.fv.Epoch, ep.fv.DeadSats, ep.fv.DeadLinks)) {
		t.Fatalf("epoch at %v must pin the snapshot's shared masked view", snap.Time())
	}
	s.SetFaultPlan(nil)
	spans := parallel.Split(len(reqs), batchShardTarget)
	rngs := stats.NewRand(77).Split(len(spans))
	for shard, span := range spans {
		for i := span.Lo; i < span.Hi; i++ {
			res, err := s.ResolveAt(ep, reqs[i].Client, reqs[i].ISO2, reqs[i].Obj, rngs[shard])
			if (err == nil) != (base[i].Err == nil) || res != base[i].Resolution {
				t.Fatalf("req %d: pinned-epoch resolve %+v (err %v) != batch %+v (err %v)", i, res, err, base[i].Resolution, base[i].Err)
			}
		}
	}
	if got := s.FaultStats().DegradedRequests; got != int64(len(reqs)) {
		t.Fatalf("degraded requests = %d, want every one of %d", got, len(reqs))
	}
}

// TestDegradedTelemetryCounters checks the labelled failover counters and
// degraded histograms advance when telemetry is attached. Repeats of the
// ground-served request on the one degraded epoch are ground-memo hits —
// one path computation in all — and each still counts its PoP failover.
func TestDegradedTelemetryCounters(t *testing.T) {
	city := geo.NewPoint(40.4168, -3.7038)
	snap := testConst.Snapshot(0)
	vis := snap.Visible(city)
	if len(vis) < 2 {
		t.Fatal("need two visible satellites")
	}
	s := newSystem(t, DefaultConfig())
	tel := telemetry.New(0)
	s.SetTelemetry(tel)
	o := wholeWindowOutage(faults.KindPoP)
	o.PoP = "mad"
	s.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{
		satOutage(vis[0].ID), o,
	}))
	hot := testObject("tel-hot")
	s.Store(vis[0].ID, hot)
	s.Store(vis[1].ID, hot)
	if _, err := s.Resolve(city, "ES", hot, snap, stats.NewRand(6)); err != nil {
		t.Fatal(err)
	}
	cold := testObject("tel-cold")
	const coldReqs = 3
	for i := 0; i < coldReqs; i++ {
		if _, err := s.Resolve(city, "ES", cold, snap, stats.NewRand(6)); err != nil {
			t.Fatal(err)
		}
	}
	reg := tel.Registry()
	// Every request re-homed off the dead overhead satellite.
	if v := reg.Counter("spacecdn_failover_total", "kind", "uplink").Value(); v != 1+coldReqs {
		t.Fatalf("uplink failover counter = %d, want %d", v, 1+coldReqs)
	}
	if v := reg.Counter("spacecdn_failover_total", "kind", "pop").Value(); v != coldReqs {
		t.Fatalf("pop failover counter = %d, want %d", v, coldReqs)
	}
	if hv, _ := tel.Snapshot().Histogram("lsn_path_compute_us"); hv.Count != 1 {
		t.Fatalf("lsn_path_compute_us count = %d, want 1: the repeats must be memo hits", hv.Count)
	}
	srcBuckets := make([]float64, numSources)
	for i := range srcBuckets {
		srcBuckets[i] = float64(i)
	}
	if n := reg.Histogram("spacecdn_degraded_source", srcBuckets).Count(); n != 1+coldReqs {
		t.Fatalf("degraded source histogram count = %d, want %d", n, 1+coldReqs)
	}
}

// TestFailoverKindStringRoundTrip pins the name table to the constants.
func TestFailoverKindStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range FailoverKinds() {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d: bad or duplicate name %q", int(k), name)
		}
		seen[name] = true
	}
	if got := FailoverKind(42).String(); got != fmt.Sprintf("failover(%d)", 42) {
		t.Fatalf("out-of-range stringer = %q", got)
	}
}
