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
	"sync/atomic"
	"time"

	"spacecdn/internal/cdn"
	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/parallel"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
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

	// mu guards the memoization caches below; campaign generation shards
	// cities across workers, and all shards share one Environment. Both
	// caches are LRU-bounded so a long campaign cannot grow them without
	// limit: snapshots are few but heavy (each can hold an ISL graph and a
	// path-tree memo), paths are light but numerous.
	mu sync.Mutex
	// pathCache memoizes LSN path resolution per (city, snapshot).
	pathCache *lru[pathKey, lsn.Path]
	snapCache *lru[time.Duration, *constellation.Snapshot]

	// Cache effectiveness counters, exported as telemetry gauges by
	// SetTelemetry. Atomics so reads never contend with the cache mutex.
	snapHits, snapMisses atomic.Int64
	pathHits, pathMisses atomic.Int64
}

// Cache bounds. Snapshots cover the handful of sample instants an experiment
// run touches (snapshotTimes, AIM snapshots, benches at t=0) with generous
// headroom; paths cover a full campaign's (city, snapshot) working set.
const (
	snapCacheCap = 64
	pathCacheCap = 4096
)

type pathKey struct {
	lat, lon float64
	iso      string
	t        time.Duration
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
		pathCache:     newLRU[pathKey, lsn.Path](pathCacheCap),
		snapCache:     newLRU[time.Duration, *constellation.Snapshot](snapCacheCap),
	}, nil
}

// Snapshot returns a memoized constellation snapshot. Concurrent callers
// may compute a missing snapshot twice; the first store wins so every
// caller converges on one shared (and one lazily-built ISL graph) instance.
func (e *Environment) Snapshot(t time.Duration) *constellation.Snapshot {
	e.mu.Lock()
	s, ok := e.snapCache.get(t)
	e.mu.Unlock()
	if ok {
		e.snapHits.Add(1)
		return s
	}
	e.snapMisses.Add(1)
	s = e.Constellation.Snapshot(t)
	e.mu.Lock()
	s = e.snapCache.put(t, s)
	e.mu.Unlock()
	return s
}

// Sweep returns an incremental cursor over the environment's constellation —
// the preferred access pattern for monotonic time loops, leaving Snapshot's
// random-access cache for parallel generation.
func (e *Environment) Sweep(start, step time.Duration) *constellation.Sweep {
	return e.Constellation.Sweep(start, step)
}

// SweepScan returns the naive fresh-snapshot cursor (sweep-equivalence
// reference).
func (e *Environment) SweepScan(start, step time.Duration) *constellation.SweepScan {
	return e.Constellation.SweepScan(start, step)
}

// Path returns a memoized LSN path for a client. Path resolution is
// deterministic, so a concurrent duplicate computation stores an identical
// value and the cache never affects results — only wall time.
func (e *Environment) Path(loc geo.Point, iso string, t time.Duration) (lsn.Path, error) {
	k := pathKey{lat: loc.LatDeg, lon: loc.LonDeg, iso: iso, t: t}
	e.mu.Lock()
	p, ok := e.pathCache.get(k)
	e.mu.Unlock()
	if ok {
		e.pathHits.Add(1)
		return p, nil
	}
	e.pathMisses.Add(1)
	p, err := e.LSN.ResolvePath(loc, iso, e.Snapshot(t))
	if err != nil {
		return lsn.Path{}, err
	}
	e.mu.Lock()
	p = e.pathCache.put(k, p)
	e.mu.Unlock()
	return p, nil
}

// CacheCounters returns the environment's memoization effectiveness:
// snapshot-cache and path-cache hits and misses.
func (e *Environment) CacheCounters() (snapHits, snapMisses, pathHits, pathMisses int64) {
	return e.snapHits.Load(), e.snapMisses.Load(), e.pathHits.Load(), e.pathMisses.Load()
}

// SetTelemetry exports the environment's cache effectiveness as gauges,
// sampled by a collector at exposition time (the counters are cheap to read
// but pointless to push per lookup). Nil detaches nothing — collectors only
// Set gauges, so a detached registry simply stops being read.
func (e *Environment) SetTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	reg := t.Registry()
	snapHits := reg.Gauge("measure_snap_cache_hits")
	snapMisses := reg.Gauge("measure_snap_cache_misses")
	pathHits := reg.Gauge("measure_path_cache_hits")
	pathMisses := reg.Gauge("measure_path_cache_misses")
	reg.RegisterCollector(func() {
		sh, sm, ph, pm := e.CacheCounters()
		snapHits.Set(float64(sh))
		snapMisses.Set(float64(sm))
		pathHits.Set(float64(ph))
		pathMisses.Set(float64(pm))
	})
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
	// Warm the snapshot cache before the fan-out so jobs mostly read it.
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
		path, err := e.Path(city.Loc, city.Country, at)
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
