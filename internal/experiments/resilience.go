package experiments

import (
	"fmt"
	"time"

	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// This file implements the resilience experiment (id "resilience"): serve the
// workload's hot/warm/cold request mix through a degraded constellation and
// sweep the failure fraction against availability, tail-latency inflation,
// and the serving-source mix — how gracefully the resolve path sheds load
// from space to ground as hardware dies. TestGoldenExperiments holds the
// deterministic rows to testdata/golden.json.

// ResilienceRow aggregates one failure fraction of the sweep.
type ResilienceRow struct {
	// SatFraction is the satellite failure fraction this row injected; the
	// ISL and PoP fractions follow it (half and a quarter) unless the suite
	// pins them (FaultISLFraction / FaultPoPFraction >= 0).
	SatFraction float64
	ISLFraction float64
	PoPFraction float64
	// Outages is the number of planned outage windows across the horizon.
	Outages int

	Requests int
	Errors   int
	// Degraded counts requests that ran the fault-aware pipeline (at least
	// one outage active at their snapshot time).
	Degraded int64
	// Availability is the served fraction, 1 - Errors/Requests.
	Availability float64

	MedianMs float64
	P99Ms    float64
	// P99InflationPct is this row's p99 RTT relative to the zero-fault row,
	// in percent (0 for the baseline row itself).
	P99InflationPct float64

	// Source mix over served requests — the shift from space to ground is
	// the sweep's qualitative story.
	OverheadShare float64
	ISLShare      float64
	GroundShare   float64

	UplinkFailovers  int64
	ReplicaFailovers int64
	PoPFailovers     int64
}

// ResilienceResult is the outcome of a Resilience sweep.
type ResilienceResult struct {
	Rows []ResilienceRow
	// ZeroFaultIdentical reports that the zero-fraction row, replayed with no
	// fault plan attached at all, produced an identical result stream — the
	// acceptance proof that fault injection is free when nothing fails.
	ZeroFaultIdentical bool
}

// resilienceFractions returns the satellite failure fractions to sweep.
func (s *Suite) resilienceFractions() []float64 {
	if s.Fast {
		return []float64{0, 0.10, 0.30}
	}
	return []float64{0, 0.05, 0.10, 0.20, 0.35, 0.50}
}

// resilienceFaultConfig derives the fault-plan configuration for one
// satellite failure fraction.
func (s *Suite) resilienceFaultConfig(satFraction float64) faults.Config {
	cfg := faults.DefaultConfig()
	cfg.Seed = s.FaultSeed
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	cfg.SatFraction = satFraction
	cfg.ISLFraction = satFraction / 2
	if s.FaultISLFraction >= 0 {
		cfg.ISLFraction = s.FaultISLFraction
	}
	cfg.PoPFraction = satFraction / 4
	if s.FaultPoPFraction >= 0 {
		cfg.PoPFraction = s.FaultPoPFraction
	}
	return cfg
}

// popNames lists the ground-segment PoP codes fault plans draw from.
func (s *Suite) popNames() []string {
	pops := s.Env.Ground.PoPs()
	names := make([]string, len(pops))
	for i, p := range pops {
		names[i] = p.Name
	}
	return names
}

// Resilience sweeps the failure fraction and serves the workload mix through
// each degraded constellation. Every row deploys a fresh system so caches,
// fault counters and random draws are row-independent: rows differ only by
// their fault plan, and the whole sweep is reproducible for any worker count.
func (s *Suite) Resilience() (ResilienceResult, error) {
	res := ResilienceResult{}
	for _, f := range s.resilienceFractions() {
		cfg := s.resilienceFaultConfig(f)
		plan, err := faults.NewPlan(cfg, s.Env.Constellation, s.popNames())
		if err != nil {
			return res, err
		}
		row, stream, sys, err := s.resilienceRun(plan)
		if err != nil {
			return res, err
		}
		row.SatFraction = cfg.SatFraction
		row.ISLFraction = cfg.ISLFraction
		row.PoPFraction = cfg.PoPFraction
		row.Outages = len(plan.Outages())

		if f == 0 {
			// Acceptance check: with the (empty) plan attached the pipeline
			// must match a system with no fault injection at all, result for
			// result, and must never have entered the degraded path.
			bare, bareStream, bareSys, err := s.resilienceRun(nil)
			if err != nil {
				return res, err
			}
			res.ZeroFaultIdentical = row.Requests == bare.Requests &&
				sys.FaultStats() == (spacecdn.FaultStats{}) &&
				bareSys.FaultStats() == (spacecdn.FaultStats{}) &&
				streamsEqual(stream, bareStream)
			if !res.ZeroFaultIdentical {
				return res, fmt.Errorf("experiments: zero-fault resilience row diverged from the plan-free pipeline")
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// Tail inflation is relative to the zero-fault row (always Rows[0]).
	base := res.Rows[0].P99Ms
	for i := range res.Rows {
		if base > 0 {
			res.Rows[i].P99InflationPct = 100 * (res.Rows[i].P99Ms/base - 1)
		}
	}
	return res, nil
}

// resilienceRun deploys a fresh system, attaches the plan (nil for a bare
// system), and serves the workload mix at every snapshot time. It returns the
// aggregated row, the raw result stream (request order), and the system so
// the caller can read its fault counters.
func (s *Suite) resilienceRun(plan *faults.Plan) (ResilienceRow, []spacecdn.BatchResult, *spacecdn.System, error) {
	sys, err := s.newSystem(spacecdn.DefaultConfig())
	if err != nil {
		return ResilienceRow{}, nil, nil, err
	}
	if plan != nil {
		sys.SetFaultPlan(plan)
	}
	hot := content.Object{ID: "rs-hot", Bytes: 64 << 20, Region: geo.RegionEurope}
	warm := content.Object{ID: "rs-warm", Bytes: 256 << 20, Region: geo.RegionEurope}
	cold := content.Object{ID: "rs-cold", Bytes: 1 << 30, Region: geo.RegionEurope}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 4}, hot); err != nil {
		return ResilienceRow{}, nil, nil, err
	}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}, warm); err != nil {
		return ResilienceRow{}, nil, nil, err
	}

	// Every run forks the same stream, so two runs over the same plan state
	// draw identical jitter — the zero-fault identity check depends on it.
	rng := stats.NewRand(s.Seed).Fork("resilience")
	var stream []spacecdn.BatchResult
	cur := s.sweepCursor(s.snapshotTimes()[0])
	defer cur.Close()
	for _, at := range s.snapshotTimes() {
		snap := cur.AdvanceTo(at)
		// Placement pass, as in ResolveWorkload: pin the hot object on each
		// client's overhead satellite, sequentially, before anything resolves.
		// Placement ignores the fault state — a dead satellite's cache keeps
		// its contents; the outage only makes them unreachable.
		reqs := make([]spacecdn.Request, 0, 3*len(s.clientCities()))
		for _, city := range s.clientCities() {
			if up, ok := snap.BestVisible(city.Loc); ok {
				sys.Store(up.ID, hot)
			}
			for _, o := range []content.Object{hot, warm, cold} {
				reqs = append(reqs, spacecdn.Request{Client: city.Loc, ISO2: city.Country, Obj: o})
			}
		}
		stream = append(stream, sys.ResolveAll(reqs, snap, rng, s.Workers)...)
	}

	row := ResilienceRow{Requests: len(stream)}
	var ms []float64
	served := [3]int{}
	for _, r := range stream {
		if r.Err != nil {
			row.Errors++
			continue
		}
		served[r.Source]++
		ms = append(ms, float64(r.RTT)/float64(time.Millisecond))
	}
	if row.Requests > 0 {
		row.Availability = float64(row.Requests-row.Errors) / float64(row.Requests)
	}
	if n := row.Requests - row.Errors; n > 0 {
		cdf := stats.NewCDF(ms)
		row.MedianMs = cdf.Median()
		row.P99Ms = cdf.Quantile(0.99)
		row.OverheadShare = float64(served[spacecdn.SourceOverhead]) / float64(n)
		row.ISLShare = float64(served[spacecdn.SourceISL]) / float64(n)
		row.GroundShare = float64(served[spacecdn.SourceGround]) / float64(n)
	}
	fs := sys.FaultStats()
	row.Degraded = fs.DegradedRequests
	row.UplinkFailovers = fs.UplinkFailovers
	row.ReplicaFailovers = fs.ReplicaFailovers
	row.PoPFailovers = fs.PoPFailovers
	return row, stream, sys, nil
}

// streamsEqual compares two result streams element-wise: same resolutions,
// errors in the same positions.
func streamsEqual(a, b []spacecdn.BatchResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Resolution != b[i].Resolution || (a[i].Err == nil) != (b[i].Err == nil) {
			return false
		}
	}
	return true
}
