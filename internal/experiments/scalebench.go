package experiments

import (
	"fmt"
	"runtime"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/orbit"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// ScalePoint is one constellation size in the scale sweep, with the three
// costs the mega-constellation work keeps flat-ish: snapshot construction
// (positions + visibility grid + ISL graph), sweep advance rate, and resolve
// throughput through a full SpaceCDN deployment.
type ScalePoint struct {
	Name   string // configuration label ("shell1", "shell1+kuiper", ...)
	Sats   int    // total satellites
	Shells int    // Walker shells in the composite

	// Data-structure shapes chosen by the scale-adaptive sizing rules.
	GridRows int
	GridCols int

	SnapshotBuildMs    float64 // fresh snapshot with grid + ISL graph materialized
	SweepStepsPerSec   float64 // warm incremental cursor, 15 s steps
	SweepAllocsPerStep float64 // steady-state advances; bar is exactly 0
	ResolveReqPerSec   float64 // single-worker accelerated resolve, telemetry detached
	Requests           int     // timed resolve batch size
}

// ScaleBenchResult is the scale sweep plus its two summary flags: resolve
// throughput should degrade sub-linearly in satellite count, and sweep
// advances should stay allocation-free at every scale. Both are printed, not
// gated — they read the clock and the process-wide malloc counter; the exact
// zero-alloc bar is TestSweepAdvanceZeroAllocs(Gen2Scale) in constellation.
type ScaleBenchResult struct {
	Points []ScalePoint

	// ResolveSubLinear is true when, for every consecutive pair of points,
	// resolve throughput fell by a smaller factor than the satellite count
	// grew — i.e. per-request cost grows sub-linearly in constellation size.
	ResolveSubLinear bool
	// SweepZeroAlloc is true when every point's steady-state sweep advance
	// allocated nothing.
	SweepZeroAlloc bool
}

// scaleConfig is one entry of the sweep: a named multi-shell composite.
type scaleConfig struct {
	name   string
	shells []orbit.Walker
}

// scaleConfigs returns the sweep in ascending size: Starlink Shell 1 alone
// (the paper's setup, 1,584 sats), Shell 1 plus Kuiper (4,820), and Starlink
// Gen2 plus Kuiper (10,736) — the "every mega-constellation at once" stress
// point. Fast mode keeps the smallest two.
func scaleConfigs(fast bool) []scaleConfig {
	cfgs := []scaleConfig{
		{"shell1", []orbit.Walker{orbit.StarlinkShell1()}},
		{"shell1+kuiper", append([]orbit.Walker{orbit.StarlinkShell1()}, orbit.Kuiper()...)},
		{"gen2+kuiper", append(append([]orbit.Walker{}, orbit.StarlinkGen2()...), orbit.Kuiper()...)},
	}
	if fast {
		cfgs = cfgs[:2]
	}
	return cfgs
}

// scaleStep is the per-step world maintenance plus a light query load: one
// uplink selection and the routing bound. Deliberately no Dijkstra — path
// trees are priced by the resolve measurement below.
func scaleStep(snap *constellation.Snapshot, p geo.Point) float64 {
	acc := snap.ISLGraph().MaxEdgeWeight()
	if v, ok := snap.BestVisible(p); ok {
		acc += v.ElevationDeg
	}
	return acc
}

// ScaleBench sweeps constellation size and measures how the per-satellite
// data structures hold up: snapshot-build time, sweep steps/sec and
// allocations, and end-to-end resolve throughput, at 1.5k, 4.8k and 10.7k
// satellites. Each point deploys a complete SpaceCDN system (ground catalog,
// LSN model, placement, request mix) over its own constellation; telemetry
// stays detached so the numbers measure the engine, not the instrumentation.
func (s *Suite) ScaleBench() (ScaleBenchResult, error) {
	var res ScaleBenchResult
	for _, sc := range scaleConfigs(s.Fast) {
		pt, err := s.scalePoint(sc)
		if err != nil {
			return res, fmt.Errorf("experiments: scale point %s: %w", sc.name, err)
		}
		res.Points = append(res.Points, pt)
	}

	res.ResolveSubLinear = true
	res.SweepZeroAlloc = true
	for i, pt := range res.Points {
		if pt.SweepAllocsPerStep != 0 {
			res.SweepZeroAlloc = false
		}
		if i == 0 {
			continue
		}
		prev := res.Points[i-1]
		growth := float64(pt.Sats) / float64(prev.Sats)
		decline := prev.ResolveReqPerSec / pt.ResolveReqPerSec
		if decline >= growth {
			res.ResolveSubLinear = false
		}
	}
	return res, nil
}

// scalePoint benchmarks one constellation size end to end.
func (s *Suite) scalePoint(sc scaleConfig) (ScalePoint, error) {
	cfg := constellation.Config{
		Shells:          sc.shells,
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	}
	c, err := constellation.New(cfg)
	if err != nil {
		return ScalePoint{}, err
	}
	pt := ScalePoint{Name: sc.name, Sats: c.Total(), Shells: c.ShellCount()}
	pt.GridRows, pt.GridCols = c.GridDims()

	probe := geo.Point{LatDeg: 47.6, LonDeg: -122.3} // any mid-latitude ground point

	// Snapshot build: positions, visibility grid (one BestVisible forces the
	// lazy build) and the CSR ISL graph, scored by the fastest of several
	// builds at distinct times so no layer can carry over.
	const buildReps = 4
	buildDur := time.Duration(1<<63 - 1)
	for rep := 0; rep < buildReps; rep++ {
		t := time.Duration(rep) * 37 * time.Second
		start := time.Now()
		snap := c.Snapshot(t)
		snap.BestVisible(probe)
		snap.ISLGraph()
		if d := time.Since(start); d < buildDur {
			buildDur = d
		}
	}
	pt.SnapshotBuildMs = float64(buildDur) / float64(time.Millisecond)

	// Sweep rate: steady-state advances of a warm cursor under a light query
	// load, min-of-reps against scheduler noise.
	const step = 15 * time.Second
	steps := 240
	if s.Fast {
		steps = 100
	}
	cur := c.Sweep(0, step)
	scaleStep(cur.At(), probe) // materialize grid lists and graph
	sink := 0.0
	sweepDur := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < steps; i++ {
			sink += scaleStep(cur.Advance(), probe)
		}
		if d := time.Since(start); d < sweepDur {
			sweepDur = d
		}
	}
	pt.SweepStepsPerSec = float64(steps) / sweepDur.Seconds()

	// Steady-state allocations over bare advances of the warm cursor.
	var before, after runtime.MemStats
	const allocSteps = 120
	runtime.ReadMemStats(&before)
	for i := 0; i < allocSteps; i++ {
		cur.Advance()
	}
	runtime.ReadMemStats(&after)
	cur.Close()
	pt.SweepAllocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(allocSteps)
	_ = sink

	// Resolve throughput: a full SpaceCDN deployment over this constellation
	// with a 3:2:1 hot/warm/cold mix (five of six requests served from space,
	// the sixth through the ground fallback). Telemetry stays detached.
	ground := groundseg.NewCatalog()
	model := lsn.NewModel(c, ground, lsn.DefaultConfig())
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, model)
	if err != nil {
		return pt, err
	}
	hot := content.Object{ID: "sb-hot", Bytes: 64 << 20, Region: geo.RegionEurope}
	warm := content.Object{ID: "sb-warm", Bytes: 256 << 20, Region: geo.RegionEurope}
	cold := content.Object{ID: "sb-cold", Bytes: 1 << 30, Region: geo.RegionEurope}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}, warm); err != nil {
		return pt, err
	}
	snap := c.Snapshot(0)
	base := make([]spacecdn.Request, 0, 6*len(s.clientCities()))
	for _, city := range s.clientCities() {
		up, ok := snap.BestVisible(city.Loc)
		if !ok {
			continue
		}
		sys.Store(up.ID, hot)
		for _, o := range []content.Object{hot, hot, hot, warm, warm, cold} {
			base = append(base, spacecdn.Request{Client: city.Loc, ISO2: city.Country, Obj: o})
		}
	}
	target := 3000
	if s.Fast {
		target = 900
	}
	reqs := make([]spacecdn.Request, 0, target)
	for len(reqs) < target {
		reqs = append(reqs, base...)
	}
	reqs = reqs[:target]
	pt.Requests = len(reqs)

	// Warm pass materializes every lazy layer and surfaces errors untimed.
	rng := stats.NewRand(s.Seed)
	for _, r := range reqs {
		if _, err := sys.Resolve(r.Client, r.ISO2, r.Obj, snap, rng); err != nil {
			return pt, err
		}
	}
	resolveDur := time.Duration(1<<63 - 1)
	for rep := 0; rep < 2; rep++ {
		rng := stats.NewRand(s.Seed)
		start := time.Now()
		for _, r := range reqs {
			if _, err := sys.Resolve(r.Client, r.ISO2, r.Obj, snap, rng); err != nil {
				return pt, err
			}
		}
		if d := time.Since(start); d < resolveDur {
			resolveDur = d
		}
	}
	pt.ResolveReqPerSec = float64(len(reqs)) / resolveDur.Seconds()
	return pt, nil
}
