// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a method on Suite returning structured
// results that cmd/spacecdn renders and bench_test.go exercises; the
// experiment IDs follow DESIGN.md's index (E1 = Table 1, E2 = Figure 2, ...).
package experiments

import (
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/measure"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/telemetry"
	"spacecdn/internal/traffic"
)

// Suite owns the environment and memoizes the expensive datasets so that
// several experiments can share one AIM generation run.
type Suite struct {
	Env *measure.Environment
	// Fast trades sample count for speed (used by tests; benchmarks use the
	// full configuration).
	Fast bool
	Seed int64
	// Workers bounds the goroutines each experiment fans work across; <= 0
	// means one per CPU. Results are identical for every worker count —
	// sharding and randomness depend only on the work and the seed.
	Workers int
	// ScanSweeps forces the time-stepped experiments onto fresh per-step
	// snapshots instead of the incremental sweep cursor. Outputs are proven
	// identical either way; equivalence tests flip this and diff streams.
	ScanSweeps bool

	// Fault-injection knobs for the resilience experiment (E-resilience).
	// The sweep varies the satellite failure fraction; the ISL and PoP
	// fractions follow it at half and a quarter of its value unless pinned
	// here with a non-negative override. FaultSeed seeds plan generation;
	// 0 means reuse the suite seed.
	FaultISLFraction float64
	FaultPoPFraction float64
	FaultSeed        int64

	// TrafficConfig overrides the traffic-engine configuration (E22). Nil
	// selects the fast or full preset by the Fast flag; tests pin tiny
	// populations here. Seed and Workers are NOT overridden from the suite
	// when this is set — the override is taken verbatim.
	TrafficConfig *traffic.Config

	aim []measure.SpeedTest
	web []measure.WebMeasurement
	tel *telemetry.Telemetry
}

// NewSuite builds a suite with a fresh environment.
func NewSuite(fast bool, seed int64) (*Suite, error) {
	env, err := measure.NewEnvironment()
	if err != nil {
		return nil, err
	}
	return &Suite{
		Env: env, Fast: fast, Seed: seed,
		// -1 selects the derived sweep fractions; see Resilience.
		FaultISLFraction: -1,
		FaultPoPFraction: -1,
	}, nil
}

// SetWorkers sets the worker-pool bound for subsequent experiment runs.
// It does not invalidate memoized datasets — it never needs to, because the
// worker count cannot change any result.
func (s *Suite) SetWorkers(n int) { s.Workers = n }

// SetTelemetry attaches telemetry to the suite: every SpaceCDN system the
// experiments deploy from here on is instrumented with it, so one registry
// accumulates the whole run. Pass nil to detach.
func (s *Suite) SetTelemetry(t *telemetry.Telemetry) { s.tel = t }

// Telemetry returns the suite's attached telemetry, or nil.
func (s *Suite) Telemetry() *telemetry.Telemetry { return s.tel }

// newSystem deploys a SpaceCDN over the suite's environment and attaches the
// suite's telemetry when one is set. Every experiment builds its systems
// through this helper so instrumentation is uniform.
func (s *Suite) newSystem(cfg spacecdn.Config) (*spacecdn.System, error) {
	sys, err := spacecdn.NewSystem(cfg, s.Env.Constellation, s.Env.LSN)
	if err != nil {
		return nil, err
	}
	if s.tel != nil {
		sys.SetTelemetry(s.tel)
	}
	return sys, nil
}

// aimConfig returns the AIM generation settings for the current mode.
func (s *Suite) aimConfig() measure.AIMConfig {
	cfg := measure.DefaultAIMConfig()
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	if s.Fast {
		cfg.TestsPerCity = 6
		cfg.Snapshots = []time.Duration{0, 17 * time.Minute}
	}
	return cfg
}

// AIM returns the (memoized) synthetic AIM dataset.
func (s *Suite) AIM() ([]measure.SpeedTest, error) {
	if s.aim != nil {
		return s.aim, nil
	}
	tests, err := s.Env.GenerateAIM(s.aimConfig())
	if err != nil {
		return nil, err
	}
	s.aim = tests
	return tests, nil
}

// webConfig returns the NetMet campaign settings for the current mode.
func (s *Suite) webConfig() measure.WebConfig {
	cfg := measure.DefaultWebConfig()
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	if s.Fast {
		cfg.LoadsPerSite = 6
	}
	return cfg
}

// Web returns the (memoized) NetMet campaign results.
func (s *Suite) Web() ([]measure.WebMeasurement, error) {
	if s.web != nil {
		return s.web, nil
	}
	ms, err := s.Env.RunNetMet(s.webConfig())
	if err != nil {
		return nil, err
	}
	s.web = ms
	return ms, nil
}

// snapshotTimes returns the constellation sample times used by the
// space-side experiments.
func (s *Suite) snapshotTimes() []time.Duration {
	if s.Fast {
		return []time.Duration{0, 23 * time.Minute}
	}
	return []time.Duration{0, 11 * time.Minute, 23 * time.Minute, 37 * time.Minute, 51 * time.Minute}
}

// sweepCursor returns an AdvanceTo-driven cursor positioned at start for
// walking snapshotTimes, honouring the ScanSweeps flag. Callers must Close
// it.
// When the attached telemetry carries a windowed series collector, the cursor
// is wrapped so every advance ticks the collector — this is what keys metric
// windows to sim time across a whole suite run. The concrete-nil check avoids
// handing ObserveCursor a non-nil interface wrapping a nil *SeriesCollector.
func (s *Suite) sweepCursor(start time.Duration) constellation.Cursor {
	var cur constellation.Cursor
	if s.ScanSweeps {
		cur = s.Env.SweepScan(start, 0)
	} else {
		cur = s.Env.Sweep(start, 0)
	}
	if sc := s.tel.Series(); sc != nil {
		cur = constellation.ObserveCursor(cur, sc)
	}
	return cur
}
