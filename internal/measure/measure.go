// Package measure is the simulator's stand-in for the paper's two data
// sources: the Cloudflare AIM crowdsourced speed-test dataset and the NetMet
// browser-plugin campaign. It generates synthetic measurement records with
// the same schema and aggregation pipeline the paper applies — per-city
// optimal-CDN medians, country-level deltas, paired web-browsing timings —
// driven by the geometric network models instead of production traffic.
package measure

import (
	"fmt"
	"sync"
	"time"

	"spacecdn/internal/cdn"
	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/parallel"
	"spacecdn/internal/stats"
	"spacecdn/internal/terrestrial"
)

// Network labels a measurement's access network.
type Network string

// The two access networks the paper compares.
const (
	NetworkStarlink    Network = "starlink"
	NetworkTerrestrial Network = "terrestrial"
)

// Environment bundles every model the measurement campaigns need. Build one
// with NewEnvironment and share it across experiments — constructing the
// constellation is the expensive part.
type Environment struct {
	Constellation *constellation.Constellation
	Ground        *groundseg.Catalog
	LSN           *lsn.Model
	Terrestrial   *terrestrial.Model
	CDN           *cdn.CDN

	// mu guards snaps; campaign generation shards cities across workers,
	// and all shards share one Environment.
	mu    sync.Mutex
	snaps map[time.Duration]*constellation.Snapshot
}

// NewEnvironment assembles the default simulation environment.
func NewEnvironment() (*Environment, error) {
	c, err := constellation.New(constellation.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ground := groundseg.NewCatalog()
	terr := terrestrial.NewModel()
	cd, err := cdn.New(cdn.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &Environment{
		Constellation: c,
		Ground:        ground,
		LSN:           lsn.NewModel(c, ground, lsn.DefaultConfig()),
		Terrestrial:   terr,
		CDN:           cd,
		snaps:         make(map[time.Duration]*constellation.Snapshot),
	}, nil
}

// Snapshot returns the environment's snapshot at t, building it on first
// use. It keeps every instant ever asked for — the campaigns sample a
// handful of fixed instants — so a caller stepping through time uses Sweep
// instead. Concurrent callers may build a missing snapshot twice; the first
// store wins, so every caller shares one instance (and its lazily built ISL
// graph).
func (e *Environment) Snapshot(t time.Duration) *constellation.Snapshot {
	e.mu.Lock()
	s, ok := e.snaps[t]
	e.mu.Unlock()
	if ok {
		return s
	}
	s = e.Constellation.Snapshot(t)
	e.mu.Lock()
	if prev, ok := e.snaps[t]; ok {
		s = prev
	} else {
		e.snaps[t] = s
	}
	e.mu.Unlock()
	return s
}

// Sweep returns an incremental cursor over the environment's constellation —
// the preferred access pattern for monotonic time loops, leaving Snapshot
// for the campaigns' few fixed instants.
func (e *Environment) Sweep(start, step time.Duration) *constellation.Sweep {
	return e.Constellation.Sweep(start, step)
}

// SweepScan returns the naive fresh-snapshot cursor (sweep-equivalence
// reference).
func (e *Environment) SweepScan(start, step time.Duration) *constellation.SweepScan {
	return e.Constellation.SweepScan(start, step)
}

// SpeedTest is one synthetic AIM record.
type SpeedTest struct {
	Country   string // ISO2
	City      string
	Network   Network
	CDNCity   string // serving CDN edge
	CDNLoc    geo.Point
	DistKm    float64 // client -> CDN geodesic
	IdleRTTMs float64
	LoadedMs  float64
	DownMbps  float64
	At        time.Duration
}

// AIMConfig controls dataset generation.
type AIMConfig struct {
	// TestsPerCity per network per snapshot.
	TestsPerCity int
	// Snapshots are the constellation times sampled (spread over an orbit
	// so satellite geometry varies like a weeks-long campaign).
	Snapshots []time.Duration
	Seed      int64
	// Workers bounds the goroutines generating per-city records; <= 0 means
	// one per CPU. The dataset is identical for every worker count.
	Workers int
}

// DefaultAIMConfig spreads four snapshots over an orbital period.
func DefaultAIMConfig() AIMConfig {
	return AIMConfig{
		TestsPerCity: 25,
		Snapshots: []time.Duration{
			0, 13 * time.Minute, 31 * time.Minute, 53 * time.Minute,
		},
		Seed: 42,
	}
}

// GenerateAIM produces the synthetic AIM dataset: Starlink tests from every
// covered country and terrestrial tests from every country in the dataset.
// Cities generate in parallel (cfg.Workers); every city's streams are forked
// from the seed up front in a fixed order and results merge in city order,
// so the dataset is byte-identical for any worker count.
func (e *Environment) GenerateAIM(cfg AIMConfig) ([]SpeedTest, error) {
	if cfg.TestsPerCity <= 0 || len(cfg.Snapshots) == 0 {
		return nil, fmt.Errorf("measure: need positive tests and snapshots")
	}
	rng := stats.NewRand(cfg.Seed)
	type cityJob struct {
		city geo.City
		terr *stats.Rand
		sl   *stats.Rand // nil where Starlink has no coverage
	}
	var jobs []cityJob
	for _, country := range geo.Countries() {
		for _, city := range geo.CitiesInCountry(country.ISO2) {
			j := cityJob{city: city, terr: rng.Fork("terr/" + city.Name)}
			if country.Starlink {
				j.sl = rng.Fork("sl/" + city.Name)
			}
			jobs = append(jobs, j)
		}
	}
	// Build the snapshots before the fan-out so jobs only read them.
	for _, at := range cfg.Snapshots {
		e.Snapshot(at)
	}
	results := make([][]SpeedTest, len(jobs))
	err := parallel.Run(cfg.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		tst, err := e.terrestrialTests(j.city, cfg, j.terr)
		if err != nil {
			return err
		}
		results[i] = tst
		if j.sl != nil {
			sts, err := e.starlinkTests(j.city, cfg, j.sl)
			if err != nil {
				return err
			}
			results[i] = append(results[i], sts...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []SpeedTest
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

func (e *Environment) terrestrialTests(city geo.City, cfg AIMConfig, rng *stats.Rand) ([]SpeedTest, error) {
	var out []SpeedTest
	for _, at := range cfg.Snapshots {
		for i := 0; i < cfg.TestsPerCity; i++ {
			edge := e.CDN.SelectAnycast(city.Loc, rng)
			idle := e.Terrestrial.SampleRTT(city.Loc, edge.City.Loc, city.Region, edge.City.Region, rng)
			loaded := idle + e.Terrestrial.Bloat(rng)
			out = append(out, SpeedTest{
				Country:   city.Country,
				City:      city.Name,
				Network:   NetworkTerrestrial,
				CDNCity:   edge.City.Name,
				CDNLoc:    edge.City.Loc,
				DistKm:    geo.HaversineKm(city.Loc, edge.City.Loc),
				IdleRTTMs: ms(idle),
				LoadedMs:  ms(loaded),
				DownMbps:  e.Terrestrial.DownlinkMbps(city.Region, rng),
				At:        at,
			})
		}
	}
	return out, nil
}

func (e *Environment) starlinkTests(city geo.City, cfg AIMConfig, rng *stats.Rand) ([]SpeedTest, error) {
	var out []SpeedTest
	for _, at := range cfg.Snapshots {
		path, err := e.LSN.ResolvePath(city.Loc, city.Country, e.Snapshot(at))
		if err != nil {
			// No coverage at this instant (e.g. extreme latitude): skip.
			continue
		}
		for i := 0; i < cfg.TestsPerCity; i++ {
			// Anycast sees the PoP, not the subscriber.
			edge := e.CDN.SelectAnycast(path.PoP.Loc, rng)
			idle := e.LSN.RTTToHost(path, edge.City.Loc, edge.City.Region, e.Terrestrial, rng)
			loaded := idle + time.Duration(rng.Uniform(
				e.LSN.Config().BloatLoadedMinMs, e.LSN.Config().BloatLoadedMaxMs)*float64(time.Millisecond))
			out = append(out, SpeedTest{
				Country:   city.Country,
				City:      city.Name,
				Network:   NetworkStarlink,
				CDNCity:   edge.City.Name,
				CDNLoc:    edge.City.Loc,
				DistKm:    geo.HaversineKm(city.Loc, edge.City.Loc),
				IdleRTTMs: ms(idle),
				LoadedMs:  ms(loaded),
				DownMbps:  e.LSN.DownlinkMbps(rng),
				At:        at,
			})
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
