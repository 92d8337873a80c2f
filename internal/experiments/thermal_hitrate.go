package experiments

import (
	"fmt"
	"sort"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/cdn"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// ThermalRow reports thermal feasibility of one duty-cycle fraction (E17).
type ThermalRow struct {
	FractionPct int
	// PeakC is the highest temperature across the sampled satellites.
	PeakC float64
	// OverShare is the fraction of satellite-time spent above the safety
	// threshold.
	OverShare float64
	// Sustainable is the analytic long-run verdict.
	Sustainable bool
}

// ThermalFeasibility (E17) integrates the §5 thermal model across duty
// fractions and a 24-hour horizon, connecting Figure 8's latency results to
// their physical constraint: the passive-cooling envelope supports ~60%
// duty, comfortably covering the paper's feasible 50% point.
func (s *Suite) ThermalFeasibility() ([]ThermalRow, float64, error) {
	cfg := spacecdn.DefaultThermalConfig()
	horizon := 24 * time.Hour
	sats := 24
	if s.Fast {
		horizon = 8 * time.Hour
		sats = 8
	}
	var rows []ThermalRow
	for _, f := range []float64{0.3, 0.5, 0.6, 0.8, 1.0} {
		d := spacecdn.NewDutyCycler(spacecdn.DutyCycleConfig{
			Fraction: f, Slot: 5 * time.Minute, Seed: s.Seed,
		}, s.Env.Constellation.Total())
		peak := cfg.AmbientC
		var over, total time.Duration
		for i := 0; i < sats; i++ {
			ts, err := spacecdn.NewThermalSim(cfg)
			if err != nil {
				return nil, 0, err
			}
			id := constellation.SatID(i * s.Env.Constellation.Total() / sats)
			ts.RunDutyCycle(d, id, horizon, time.Minute)
			if ts.PeakC > peak {
				peak = ts.PeakC
			}
			over += ts.OverThreshold
			total += horizon
		}
		rows = append(rows, ThermalRow{
			FractionPct: int(f * 100),
			PeakC:       peak,
			OverShare:   float64(over) / float64(total),
			Sustainable: f <= cfg.MaxSustainableDuty(),
		})
	}
	return rows, cfg.MaxSustainableDuty(), nil
}

// HitRateRow reports edge-cache hit rates for one country (E18).
type HitRateRow struct {
	Country string
	// StarlinkEdge / TerrestrialEdge are the serving edge cities.
	StarlinkEdge    string
	TerrestrialEdge string
	StarlinkHit     float64
	TerrestrialHit  float64
}

// CacheMissRates (E18) quantifies §2's "cache miss rates and content
// fetches over WANs are high for these users": edges are warmed with the
// content popular in their own region, then clients request their home
// region's popular content — terrestrial users hit their local edge,
// Starlink users hit the edge near their PoP, which on another continent
// holds the wrong region's content.
func (s *Suite) CacheMissRates() ([]HitRateRow, error) {
	cat, err := content.GenerateCatalog(content.CatalogConfig{
		Objects: 5000, MeanObjectBytes: 512 << 10, ZipfS: 0.9, RegionBoost: 25, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	// A fresh CDN so warming is controlled (the suite's shared CDN has
	// traffic-dependent state).
	cd, err := cdn.New(cdn.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Warm every edge with its own region's popular content.
	const warmBudget = 256 << 20
	for _, e := range cd.Edges() {
		cdn.Warm(e, cat, e.City.Region, warmBudget)
	}
	requests := 600
	if s.Fast {
		requests = 200
	}
	countries := []string{"MZ", "KE", "ZM", "GT", "HT", "DE", "ES", "JP", "US", "NG"}
	var rows []HitRateRow
	for _, iso := range countries {
		country, ok := geo.CountryByISO(iso)
		if !ok || !country.Starlink {
			continue
		}
		loc, ok := geo.CountryCentroid(iso)
		if !ok {
			continue
		}
		pop, ok := s.Env.Ground.AssignPoPForClient(iso, loc)
		if !ok {
			continue
		}
		terrEdge := cd.NearestEdge(loc)
		starEdge := cd.NearestEdge(pop.Loc)
		rng := stats.NewRand(s.Seed).Fork("hitrate/" + iso)
		terrHits, starHits := 0, 0
		for i := 0; i < requests; i++ {
			obj := cat.Sample(country.Region, rng)
			if terrEdge.Cache.Peek(cache.Key(obj.ID)) {
				terrHits++
			}
			if starEdge.Cache.Peek(cache.Key(obj.ID)) {
				starHits++
			}
		}
		rows = append(rows, HitRateRow{
			Country:         iso,
			StarlinkEdge:    starEdge.City.Name,
			TerrestrialEdge: terrEdge.City.Name,
			StarlinkHit:     float64(starHits) / float64(requests),
			TerrestrialHit:  float64(terrHits) / float64(requests),
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: no hit-rate rows")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Country < rows[j].Country })
	return rows, nil
}
