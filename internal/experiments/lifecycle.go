package experiments

import (
	"fmt"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// This file drives the content lifecycle subsystem end to end (experiment id
// "lifecycle"): a sweep over TTL class mixes, churn rates, and purge rates
// through the versioned serving path on a two-tier store, a flash-crowd
// batch proving request coalescing collapses origin fan-in, purge floods
// over healthy and fault-masked topologies with their inconsistency
// windows, and a replay proving the disabled path is byte-identical to the
// pre-lifecycle pipeline. TestGoldenExperiments holds the deterministic
// rows to testdata/golden.json.

// lifecycleMix is one TTL class mix point of the sweep: the catalog
// fractions assigned to each dynamic class (the remainder stays static).
type lifecycleMix struct {
	name string
	news float64
	live float64
	api  float64
}

func lifecycleMixes() []lifecycleMix {
	return []lifecycleMix{
		{name: "static"},
		{name: "mixed", news: 0.3, live: 0.1, api: 0.1},
		{name: "dynamic", news: 0.4, live: 0.3, api: 0.2},
	}
}

// LifecycleRow is one sweep cell: a class mix served under one churn rate
// (sim-time advance per request batch, which is what ages TTLs) and one
// purge rate.
type LifecycleRow struct {
	Mix           string
	StepSeconds   float64
	PurgesPerStep int
	Steps         int
	Requests      int
	Errors        int

	// Serve mix over successful requests.
	FreshShare   float64
	StaleShare   float64
	ExpiredShare float64
	MissShare    float64

	// Origin traffic and coalescing.
	OriginNeeded  int64
	OriginFetches int64
	Coalesced     int64

	// Purge-driven effects.
	Inconsistent      int64
	PurgesIssued      int64
	PurgeWindowMsMean float64

	// Two-tier store movement.
	HotHits    int64
	BulkHits   int64
	Promotions int64
	Demotions  int64
}

// LifecycleResult is the outcome of the lifecycle experiment.
type LifecycleResult struct {
	Rows []LifecycleRow
	// TTLResponse: the serve mix responded to the TTL sweep — the dynamic
	// mix under fast churn served a strictly smaller fresh share than the
	// same mix under slow churn, and the static mix never left fresh/miss.
	TTLResponse bool

	// Flash crowd: one batch of identical cold requests per cell.
	FlashRequests      int
	FlashCells         int
	FlashOriginNeeded  int64
	FlashOriginFetches int64
	FlashCoalesced     int64
	// ReductionX is origin contacts needed over flights actually dispatched
	// (the coalescing win; acceptance floor is 10x).
	ReductionX float64

	// Purge flood over the healthy topology.
	PurgeTotalSats int
	PurgeReached   int
	ConvergedAll   bool
	PurgeWindowMs  float64 // issue-to-last-receipt
	PurgeMeanMs    float64 // mean receipt latency
	PurgeP99Ms     float64
	// PreReceiptInconsistent counts serves of the superseded version before
	// the serving satellite's receipt — the inconsistency window observed
	// from the client side.
	PreReceiptInconsistent int64

	// Purge flood over a fault-masked topology: dead satellites never
	// receive, bounding convergence at the live population.
	MaskedDeadSats int
	MaskedReached  int

	// DisabledIdentical: with no TTLs and no purges, the resolve stream was
	// byte-identical to a system without the subsystem attached.
	DisabledIdentical bool
}

// lifecycleTiers sizes the per-satellite two-tier store for the sweep:
// a hot tier a few objects deep so re-reference pressure forces real
// promotion/demotion traffic over the bulk tier.
func lifecycleTiers() spacecdn.TierSizing {
	return spacecdn.TierSizing{HotBytes: 2 << 20, BulkBytes: 16 << 20}
}

// lifecycleCatalog builds the sweep catalog for one mix.
func (s *Suite) lifecycleCatalog(mix lifecycleMix) (*content.Catalog, error) {
	cfg := content.DefaultCatalogConfig()
	cfg.Seed = s.Seed
	cfg.Objects = 2000
	if s.Fast {
		cfg.Objects = 400
	}
	cfg.NewsFraction = mix.news
	cfg.LiveFraction = mix.live
	cfg.APIFraction = mix.api
	return content.GenerateCatalog(cfg)
}

// lifecycleCities returns the client population for the sweep, kept small:
// every row builds its own system and replays the same request schedule.
func (s *Suite) lifecycleCities() []geo.City {
	cities := s.clientCities()
	if len(cities) > 16 {
		cities = cities[:16]
	}
	return cities
}

// Lifecycle runs the content lifecycle experiment. Every phase is
// deterministic for any worker count: batches go through ResolveAll's
// fixed-shard two-phase form, purge floods are pure functions of the
// topology, and all randomness forks off the suite seed.
func (s *Suite) Lifecycle() (LifecycleResult, error) {
	res := LifecycleResult{}
	if err := s.lifecycleSweep(&res); err != nil {
		return res, err
	}
	if err := s.lifecycleFlashCrowd(&res); err != nil {
		return res, err
	}
	if err := s.lifecyclePurge(&res); err != nil {
		return res, err
	}
	if err := s.lifecycleDisabledReplay(&res); err != nil {
		return res, err
	}
	return res, nil
}

// lifecycleSweep fills res.Rows: mixes x churn (step seconds) x purge rate.
func (s *Suite) lifecycleSweep(res *LifecycleResult) error {
	steps := 10
	reqsPerCity := 6
	if s.Fast {
		steps = 6
		reqsPerCity = 4
	}
	cities := s.lifecycleCities()
	churns := []time.Duration{15 * time.Second, 90 * time.Second}
	purgeRates := []int{0, 2}
	row := 0
	for _, mix := range lifecycleMixes() {
		cat, err := s.lifecycleCatalog(mix)
		if err != nil {
			return err
		}
		for _, step := range churns {
			for _, purges := range purgeRates {
				r, err := s.lifecycleRow(mix, cat, cities, steps, reqsPerCity, step, purges, row)
				if err != nil {
					return fmt.Errorf("lifecycle row %s/%v/%d: %w", mix.name, step, purges, err)
				}
				res.Rows = append(res.Rows, r)
				row++
			}
		}
	}
	// The TTL-response acceptance: under the dynamic mix, faster churn
	// (more sim time per batch) must strictly erode the fresh share, while
	// the static mix never produces stale or expired serves at all.
	share := func(mixName string, step time.Duration, purges int) *LifecycleRow {
		for i := range res.Rows {
			r := &res.Rows[i]
			if r.Mix == mixName && r.StepSeconds == step.Seconds() && r.PurgesPerStep == purges {
				return r
			}
		}
		return nil
	}
	slow := share("dynamic", churns[0], 0)
	fast := share("dynamic", churns[1], 0)
	static := share("static", churns[1], 0)
	res.TTLResponse = slow != nil && fast != nil && static != nil &&
		fast.FreshShare < slow.FreshShare &&
		fast.StaleShare+fast.ExpiredShare > 0 &&
		static.StaleShare == 0 && static.ExpiredShare == 0
	return nil
}

// lifecycleRow runs one sweep cell on a fresh system.
func (s *Suite) lifecycleRow(mix lifecycleMix, cat *content.Catalog, cities []geo.City,
	steps, reqsPerCity int, step time.Duration, purges, rowIdx int) (LifecycleRow, error) {
	row := LifecycleRow{
		Mix: mix.name, StepSeconds: step.Seconds(), PurgesPerStep: purges, Steps: steps,
	}
	sys, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return row, err
	}
	if err := sys.UseTieredStore(lifecycleTiers()); err != nil {
		return row, err
	}
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), sys.Constellation().Total()))

	rng := stats.NewRand(s.Seed).Fork("lifecycle").Fork(fmt.Sprintf("row-%d", rowIdx))
	cur := s.sweepCursor(0)
	defer cur.Close()

	// Initial placement: the hottest objects of each city's region land on
	// its overhead satellite, stamped at t=0 so the sweep ages them.
	seed := cur.AdvanceTo(0)
	for _, city := range cities {
		if up, ok := seed.BestVisible(city.Loc); ok {
			for _, o := range cat.TopN(city.Region, 8) {
				sys.StoreVersioned(up.ID, o, 0)
			}
		}
	}

	var windowMsSum float64
	var windows int
	purgeIdx := 0
	for i := 0; i < steps; i++ {
		at := time.Duration(i) * step
		snap := cur.AdvanceTo(at)
		reqs := make([]spacecdn.Request, 0, len(cities)*reqsPerCity)
		for _, city := range cities {
			for k := 0; k < reqsPerCity; k++ {
				reqs = append(reqs, spacecdn.Request{
					Client: city.Loc, ISO2: city.Country, Obj: cat.Sample(city.Region, rng),
				})
			}
		}
		for _, r := range sys.ResolveAll(reqs, snap, rng, s.Workers) {
			row.Requests++
			if r.Err != nil {
				row.Errors++
			}
		}
		// Purge the hottest objects round-robin: content updates arriving
		// from the origin, flooded fleet-wide at this step's topology.
		for p := 0; p < purges; p++ {
			obj := cat.ByRank(cities[0].Region, purgeIdx%16)
			purgeIdx++
			pr, err := sys.IssuePurge(obj.ID, cities[purgeIdx%len(cities)].Loc, snap)
			if err != nil {
				return row, err
			}
			windowMsSum += float64(pr.Window()) / float64(time.Millisecond)
			windows++
		}
	}

	ls := sys.LifecycleStats()
	served := float64(ls.FreshServes + ls.StaleServes + ls.ExpiredServes + ls.MissServes)
	if served > 0 {
		row.FreshShare = float64(ls.FreshServes) / served
		row.StaleShare = float64(ls.StaleServes) / served
		row.ExpiredShare = float64(ls.ExpiredServes) / served
		row.MissShare = float64(ls.MissServes) / served
	}
	row.OriginNeeded = ls.OriginNeeded
	row.OriginFetches = ls.OriginFetches
	row.Coalesced = ls.Coalesced
	row.Inconsistent = ls.InconsistentServes
	row.PurgesIssued = ls.PurgesIssued
	if windows > 0 {
		row.PurgeWindowMsMean = windowMsSum / float64(windows)
	}
	row.HotHits = ls.HotHits
	row.BulkHits = ls.BulkHits
	row.Promotions = ls.Promotions
	row.Demotions = ls.Demotions
	return row, nil
}

// lifecycleFlashCrowd proves coalescing: every cell's crowd of identical
// cold requests collapses to one origin flight per cell.
func (s *Suite) lifecycleFlashCrowd(res *LifecycleResult) error {
	sys, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return err
	}
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), sys.Constellation().Total()))
	cities := s.lifecycleCities()
	if len(cities) > 8 {
		cities = cities[:8]
	}
	const crowd = 25
	viral := content.Object{ID: "lc-viral", Bytes: 8 << 20, Region: geo.RegionEurope, Class: content.ClassNews}
	reqs := make([]spacecdn.Request, 0, crowd*len(cities))
	cells := map[int]struct{}{}
	for _, city := range cities {
		cells[lifecycle.Cell(city.Loc)] = struct{}{}
		for k := 0; k < crowd; k++ {
			reqs = append(reqs, spacecdn.Request{Client: city.Loc, ISO2: city.Country, Obj: viral})
		}
	}
	snap := s.Env.Constellation.Snapshot(0)
	rng := stats.NewRand(s.Seed).Fork("lifecycle-flash")
	for _, r := range sys.ResolveAll(reqs, snap, rng, s.Workers) {
		if r.Err != nil {
			return fmt.Errorf("flash crowd resolve: %w", r.Err)
		}
	}
	ls := sys.LifecycleStats()
	res.FlashRequests = len(reqs)
	res.FlashCells = len(cells)
	res.FlashOriginNeeded = ls.OriginNeeded
	res.FlashOriginFetches = ls.OriginFetches
	res.FlashCoalesced = ls.Coalesced
	if ls.OriginFetches > 0 {
		res.ReductionX = float64(ls.OriginNeeded) / float64(ls.OriginFetches)
	}
	return nil
}

// lifecyclePurge measures flood convergence: healthy (every satellite
// receives, finite window) and fault-masked (dead satellites never do).
func (s *Suite) lifecyclePurge(res *LifecycleResult) error {
	sys, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return err
	}
	// Zero TTL policy: only the purge drives classification here.
	total := sys.Constellation().Total()
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.Policy{}, total))
	city := s.lifecycleCities()[0]
	snap := s.Env.Constellation.Snapshot(0)
	obj := content.Object{ID: "lc-purged", Bytes: 8 << 20, Region: city.Region}
	up, ok := snap.BestVisible(city.Loc)
	if !ok {
		return fmt.Errorf("no satellite visible from %s", city.Name)
	}
	sys.StoreVersioned(up.ID, obj, 0)

	pr, err := sys.IssuePurge(obj.ID, city.Loc, snap)
	if err != nil {
		return err
	}
	res.PurgeTotalSats = total
	res.PurgeReached = pr.Reached
	res.ConvergedAll = pr.Reached == total
	res.PurgeWindowMs = float64(pr.Window()) / float64(time.Millisecond)
	var ms []float64
	var sum float64
	for _, r := range pr.Receipts {
		if r >= 0 {
			m := float64(r-pr.IssuedAt) / float64(time.Millisecond)
			ms = append(ms, m)
			sum += m
		}
	}
	if len(ms) > 0 {
		res.PurgeMeanMs = sum / float64(len(ms))
		res.PurgeP99Ms = stats.NewCDF(ms).Quantile(0.99)
	}
	// Inside the window the old version still serves — the client-visible
	// inconsistency the receipts bound.
	if _, err := sys.Resolve(city.Loc, city.Country, obj, snap, stats.NewRand(s.Seed)); err != nil {
		return err
	}
	res.PreReceiptInconsistent = sys.LifecycleStats().InconsistentServes

	// Masked flood: kill a satellite band; the flood routes around it but
	// those caches never learn of the purge (stale-while-partitioned).
	masked, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return err
	}
	masked.SetLifecycle(lifecycle.NewManager(lifecycle.Policy{}, total))
	const deadSats = 40
	outages := make([]faults.Outage, 0, deadSats)
	for i := 0; i < deadSats; i++ {
		outages = append(outages, faults.Outage{
			Kind: faults.KindSatellite, Sat: constellation.SatID(100 + i), Start: 0, End: time.Hour,
		})
	}
	masked.SetFaultPlan(faults.NewPlanFromOutages(total, outages))
	mr, err := masked.IssuePurge(obj.ID, city.Loc, snap)
	if err != nil {
		return err
	}
	res.MaskedDeadSats = deadSats
	res.MaskedReached = mr.Reached
	return nil
}

// lifecycleDisabledReplay proves the inert path: a system with the
// subsystem attached but no TTLs and no purges replays a mixed workload
// byte-identically to a system without it.
func (s *Suite) lifecycleDisabledReplay(res *LifecycleResult) error {
	build := func(withManager bool) (*spacecdn.System, error) {
		sys, err := s.newSystem(spacecdn.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if withManager {
			sys.SetLifecycle(lifecycle.NewManager(lifecycle.Policy{}, sys.Constellation().Total()))
		}
		return sys, nil
	}
	with, err := build(true)
	if err != nil {
		return err
	}
	without, err := build(false)
	if err != nil {
		return err
	}
	cities := s.lifecycleCities()
	identical := true
	for _, at := range []time.Duration{0, 42 * time.Second} {
		snap := s.Env.Constellation.Snapshot(at)
		reqs := make([]spacecdn.Request, 0, 2*len(cities))
		for i, city := range cities {
			hot := content.Object{ID: content.ID(fmt.Sprintf("lc-replay-%d", i)), Bytes: 4 << 20, Region: city.Region}
			if up, ok := snap.BestVisible(city.Loc); ok {
				with.Store(up.ID, hot)
				without.Store(up.ID, hot)
			}
			cold := content.Object{ID: content.ID(fmt.Sprintf("lc-replay-cold-%d", i)), Bytes: 4 << 20, Region: city.Region}
			reqs = append(reqs,
				spacecdn.Request{Client: city.Loc, ISO2: city.Country, Obj: hot},
				spacecdn.Request{Client: city.Loc, ISO2: city.Country, Obj: cold})
		}
		a := with.ResolveAll(reqs, snap, stats.NewRand(s.Seed), s.Workers)
		b := without.ResolveAll(reqs, snap, stats.NewRand(s.Seed), s.Workers)
		for i := range a {
			if (a[i].Err == nil) != (b[i].Err == nil) || a[i].Resolution != b[i].Resolution {
				identical = false
			}
		}
	}
	if ls := with.LifecycleStats(); ls != (spacecdn.LifecycleStats{}) {
		identical = false
	}
	res.DisabledIdentical = identical
	return nil
}
