package experiments

import (
	"time"

	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/traffic"
)

// This file drives the streaming traffic engine (experiment id "traffic"):
// a modeled production day from a million-user population resolved through
// the full CDN while the constellation sweeps underneath it.
// TestGoldenExperiments holds the deterministic rows (counts, serving mix,
// latency percentiles) to testdata/golden.json; the req/s fields are printed
// for orientation only — bench/'s sim-day workload is where this loop's
// throughput is measured.

// Placement tiers: the hottest objects ride four replicas per plane, the
// next tier one. Tiers re-apply whenever a release permutes the ranks —
// the admission policy a popularity-driven control plane converges to.
const (
	trafficHotTier  = 24
	trafficWarmTier = 96
)

// TrafficResult is the outcome of one traffic day.
type TrafficResult struct {
	Users    int     // modeled subscriber population
	Steps    int     // batches resolved (one sweep advance each)
	SimHours float64 // simulated span
	Cells    int     // populated cities

	Requests int // resolved requests (arrivals + session re-fetches)
	Errors   int
	// PeakStepRequests is the largest single batch — the load spike the
	// diurnal peak pushes through ResolveAll.
	PeakStepRequests int

	// Generation-side counters.
	Arrivals        int64
	SessionsOpened  int64
	SessionRequests int64
	Releases        int
	FlashCrowds     int
	RegionalEvents  int

	// Throughput: Sustained covers the whole engine loop (generation +
	// sweep advance + resolve); the split rates isolate the two halves.
	Workers            int
	SustainedReqPerSec float64
	GenReqPerSec       float64
	ResolveReqPerSec   float64

	// Serving mix over successful requests.
	OverheadShare float64
	ISLShare      float64
	GroundShare   float64

	// Client-observed latency over successful requests.
	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
}

// trafficConfig derives the generator configuration: the suite override
// when set (tests use tiny populations), else the fast or full preset.
func (s *Suite) trafficConfig() traffic.Config {
	if s.TrafficConfig != nil {
		return *s.TrafficConfig
	}
	cfg := traffic.DefaultConfig()
	if s.Fast {
		cfg = traffic.FastConfig()
	}
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	return cfg
}

// Traffic streams a production day through the resolve path riding the
// sweep cursor: each step advances the constellation to the batch's sim
// time, refreshes tiered placement if catalog ranks moved, and fans the
// batch across the worker pool. The whole run is deterministic for any
// worker count — generation shards, batch shards, and placement all key
// their randomness off the seed, never the schedule.
func (s *Suite) Traffic() (TrafficResult, error) {
	cfg := s.trafficConfig()
	gen, err := traffic.New(cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	sys, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return TrafficResult{}, err
	}
	res := TrafficResult{
		Users:    gen.Users(),
		Steps:    gen.Steps(),
		SimHours: (time.Duration(gen.Steps()) * gen.Step()).Hours(),
		Cells:    gen.Cells(),
		Workers:  cfg.Workers,
	}

	place := func() error {
		for i, o := range gen.Top(trafficHotTier + trafficWarmTier) {
			pl := spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}
			if i < trafficHotTier {
				pl.ReplicasPerPlane = 4
			}
			if _, err := spacecdn.Apply(sys, pl, o); err != nil {
				return err
			}
		}
		return nil
	}

	rng := stats.NewRand(s.Seed).Fork("traffic-resolve")
	cur := s.sweepCursor(0)
	defer cur.Close()
	var (
		ms       []float64
		sumMs    float64
		served   [3]int
		genDur   time.Duration
		resDur   time.Duration
		placedAt = -1
	)
	start := time.Now()
	for {
		g0 := time.Now()
		reqs, at, ok := gen.NextBatch()
		genDur += time.Since(g0)
		if !ok {
			break
		}
		snap := cur.AdvanceTo(at)
		// Placement mutates caches, so it runs sequentially between
		// batches; resolution over the placed state is read-only.
		if gen.Releases() != placedAt {
			if err := place(); err != nil {
				return res, err
			}
			placedAt = gen.Releases()
		}
		r0 := time.Now()
		out := sys.ResolveAll(reqs, snap, rng, s.Workers)
		resDur += time.Since(r0)
		if len(reqs) > res.PeakStepRequests {
			res.PeakStepRequests = len(reqs)
		}
		for i := range out {
			res.Requests++
			if out[i].Err != nil {
				res.Errors++
				continue
			}
			served[out[i].Source]++
			m := float64(out[i].RTT) / float64(time.Millisecond)
			sumMs += m
			ms = append(ms, m)
		}
	}
	wall := time.Since(start)

	gs := gen.Stats()
	res.Arrivals = gs.Arrivals
	res.SessionsOpened = gs.SessionsOpened
	res.SessionRequests = gs.SessionRequests
	res.Releases = gs.Releases
	res.FlashCrowds = gs.FlashCrowds
	res.RegionalEvents = gs.RegionalEvents

	if res.Requests > 0 && wall > 0 {
		res.SustainedReqPerSec = float64(res.Requests) / wall.Seconds()
	}
	if res.Requests > 0 && genDur > 0 {
		res.GenReqPerSec = float64(res.Requests) / genDur.Seconds()
	}
	if res.Requests > 0 && resDur > 0 {
		res.ResolveReqPerSec = float64(res.Requests) / resDur.Seconds()
	}
	if n := len(ms); n > 0 {
		res.OverheadShare = float64(served[spacecdn.SourceOverhead]) / float64(n)
		res.ISLShare = float64(served[spacecdn.SourceISL]) / float64(n)
		res.GroundShare = float64(served[spacecdn.SourceGround]) / float64(n)
		res.MeanMs = sumMs / float64(n)
		cdf := stats.NewCDF(ms)
		res.P50Ms = cdf.Median()
		res.P95Ms = cdf.Quantile(0.95)
		res.P99Ms = cdf.Quantile(0.99)
	}
	return res, nil
}
