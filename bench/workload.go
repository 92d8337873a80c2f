package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/measure"
	"spacecdn/internal/routing"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// Phase shape of one run, as shares of the measured time: five measured
// segments, a warm-up as long as one of them (discarded; it lets
// pull-through fills and path memos reach their working state), and — in
// the traced run — shorter diagnostic intervals.
const (
	numSegments   = 5
	layerSegments = 2 // segments the traced run spends on counter deltas
	setupRepeats  = 5 // set-ups timed per run, at least; setup_s is their median
	staticSample  = 2000
)

// Noise guard: a segment is an outlier when its throughput is further than
// this from the segment median; more than two outliers mark the attempt.
const noisyDeviation = 0.15

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured time
	E2E      bool    // measure the end-to-end metrics (tracing off)
	Layers   bool    // run the diagnostics and the traced pass
	Scale    scale
	Clients  int
	OutDir   string
}

// attempt is one pass over the measured segments; the noise guard may make two.
type attempt struct {
	Noisy      bool      `json:"noisy"`
	ReqPerSec  []float64 `json:"req_per_s"`
	LatP50Us   []float64 `json:"lat_p50_us"`
	LatP99Us   []float64 `json:"lat_p99_us"`
	P99Beyond  int64     `json:"lat_p99_samples_beyond"`
	SimP50Ms   []float64 `json:"sim_rtt_p50_ms"`
	SimP99Ms   []float64 `json:"sim_rtt_p99_ms"`
	Attempted  int64     `json:"attempted"`
	FailedReqs int64     `json:"failed"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload   string             `json:"workload"`
	Stamp      machineStamp       `json:"stamp"`
	Seconds    float64            `json:"seconds"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	E2E        map[string]summary `json:"end_to_end,omitempty"`
	Unresolved []string           `json:"unresolved,omitempty"`
	Attempts   []attempt          `json:"attempts,omitempty"`
	Layers     map[string]float64 `json:"per_layer,omitempty"`
	Stages     []stageRow         `json:"stage_table,omitempty"`
	Checks     checkReport        `json:"checks"`
	Notes      []string           `json:"notes,omitempty"`
}

// setLayer records one per-layer metric. A name manifest.go does not declare
// fails the run: the benchmark prints nothing undeclared.
func (r *workloadResult) setLayer(name string, v float64) {
	if _, declared := r.Layers[name]; !declared {
		r.Checks.failf("undeclared per-layer metric %q", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Layers[name] = v
}

// counters are the process-wide and per-system counts the per-layer metrics
// are deltas of.
type counters struct {
	Routing           routing.OpStats
	MemoHit, MemoMiss int64
	LC                spacecdn.LifecycleStats
	Srv               serve.Stats
	Mem               runtime.MemStats
}

// readCounters reads them; sys and srv may be nil before a run has built them.
func readCounters(sys *spacecdn.System, srv *serve.Server) counters {
	c := counters{Routing: routing.Counters()}
	if sys != nil {
		c.LC = sys.LifecycleStats()
		c.MemoHit, c.MemoMiss = sys.Constellation().PathMemoCounters()
	}
	if srv != nil {
		c.Srv = srv.Stats()
	}
	runtime.ReadMemStats(&c.Mem)
	return c
}

// counterLayers turns a counter delta over reqs requests and epochs epochs
// (or sim steps) into per-layer metrics.
func (r *workloadResult) counterLayers(a, b counters, reqs int64, epochs float64) {
	per := func(n int64) float64 {
		if reqs == 0 {
			return 0
		}
		return float64(n) / float64(reqs)
	}
	hits, misses := b.MemoHit-a.MemoHit, b.MemoMiss-a.MemoMiss
	if hits+misses > 0 {
		r.setLayer("constellation.path_memo_hit_share", float64(hits)/float64(hits+misses))
	}
	if epochs > 0 {
		r.setLayer("constellation.path_memo_misses_per_epoch", float64(misses)/epochs)
	}
	r.setLayer("routing.bfs_per_req", per(b.Routing.BFSSearches-a.Routing.BFSSearches))
	r.setLayer("routing.dijkstra_per_req", per(b.Routing.Dijkstras-a.Routing.Dijkstras))
	r.setLayer("lifecycle.fresh_share", per(b.LC.FreshServes-a.LC.FreshServes))
	r.setLayer("lifecycle.stale_share", per(b.LC.StaleServes-a.LC.StaleServes))
	r.setLayer("lifecycle.expired_share", per(b.LC.ExpiredServes-a.LC.ExpiredServes))
	r.setLayer("lifecycle.miss_share", per(b.LC.MissServes-a.LC.MissServes))
	r.setLayer("lifecycle.origin_fetch_share", per(b.LC.OriginFetches-a.LC.OriginFetches))
	r.setLayer("lifecycle.coalesced_share", per(b.LC.Coalesced-a.LC.Coalesced))
	r.setLayer("serve.stale_share", per(b.Srv.StaleServed-a.Srv.StaleServed))
	r.setLayer("process.allocs_per_req", per(int64(b.Mem.Mallocs-a.Mem.Mallocs)))
	r.setLayer("process.gc_cycles", float64(b.Mem.NumGC-a.Mem.NumGC))
	r.setLayer("process.gc_pause_ms", float64(b.Mem.PauseTotalNs-a.Mem.PauseTotalNs)/1e6)
	r.setLayer("process.heap_mb", float64(b.Mem.HeapAlloc)/(1<<20))
}

func (r *workloadResult) sourceLayers(src [3]int64) {
	total := src[0] + src[1] + src[2]
	if total == 0 {
		return
	}
	r.setLayer("spacecdn.share_overhead", float64(src[spacecdn.SourceOverhead])/float64(total))
	r.setLayer("spacecdn.share_isl", float64(src[spacecdn.SourceISL])/float64(total))
	r.setLayer("spacecdn.share_ground", float64(src[spacecdn.SourceGround])/float64(total))
}

func (r *workloadResult) fleetLayers(sys *spacecdn.System) {
	m := sys.Metrics()
	r.setLayer("cache.fleet_hit_share", m.HitRate())
	r.setLayer("cache.evictions", float64(m.Evictions))
	r.setLayer("cache.items", float64(m.Items))
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{
		Workload: cfg.Workload,
		Stamp:    stamp(cfg.Seed, cfg.Clients),
		Seconds:  cfg.Seconds,
		E2E:      map[string]summary{},
		Layers:   map[string]float64{},
	}
	if cfg.Layers {
		for _, l := range layerSpecs {
			res.Layers[l.Name] = 0
		}
	}
	env, err := measure.NewEnvironment()
	if err != nil {
		return nil, err
	}
	uncovered := uncoveredCells(env.Constellation, cfg.Scale.ProbeHorizon)
	if len(uncovered) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d cells with a coverage gap left out of the stream: %s", len(uncovered), pointList(uncovered)))
	}
	if cfg.Workload == wlSimDay {
		err = runSim(cfg, res, uncovered)
	} else {
		err = runServe(cfg, res, uncovered)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Checks.ok()
	return res, nil
}

func pointList(set map[geo.Point]bool) string {
	var names []string
	for p := range set {
		names = append(names, fmt.Sprintf("%.2f,%.2f", p.LatDeg, p.LonDeg))
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// setupServe is one full set-up of a serve workload; setup_s times it.
func setupServe(cfg runConfig, uncovered map[geo.Point]bool) (*inputs, *stack, *loadgen, error) {
	http := cfg.Workload == wlDayHTTP
	in, err := generateInputs(cfg.Seed, cfg.Scale.StreamLen, uncovered, cfg.Clients, http)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := startStack(specFor(cfg.Workload), in, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	lg, err := newLoadgen(st, in, cfg.Clients, http)
	if err != nil {
		_ = st.close()
		return nil, nil, nil, err
	}
	return in, st, lg, nil
}

func runServe(cfg runConfig, res *workloadResult, uncovered map[geo.Point]bool) error {
	segDur := time.Duration(cfg.Seconds / numSegments * float64(time.Second))
	t0 := time.Now()
	in, st, lg, err := setupServe(cfg, uncovered)
	if err != nil {
		return err
	}
	setups := []float64{time.Since(t0).Seconds()}
	// Both closes are idempotent: the deferred call covers the error paths.
	stop := func() error {
		lg.close()
		return st.close()
	}
	defer func() { _ = stop() }()

	// Warm-up, discarded.
	if _, err := lg.run(segDur, cfg.Clients); err != nil {
		return err
	}
	before := readCounters(st.Sys, st.Srv)
	segments := numSegments
	if !cfg.E2E {
		segments = layerSegments
	}
	at, measured, err := runSegments(lg, segments, segDur, cfg.Clients)
	if err != nil {
		return err
	}
	res.Attempts = append(res.Attempts, at)
	if at.Noisy {
		res.Notes = append(res.Notes, fmt.Sprintf("NOISY: more than two of %d segments deviated over %.0f %% from the segment median; the segments were run once more and both attempts are recorded",
			segments, 100*noisyDeviation))
		before = readCounters(st.Sys, st.Srv)
		if at, measured, err = runSegments(lg, segments, segDur, cfg.Clients); err != nil {
			return err
		}
		res.Attempts = append(res.Attempts, at)
	}
	after := readCounters(st.Sys, st.Srv)
	rss := peakRSSMB()

	if cfg.E2E {
		res.E2E["req_per_s"] = summarize(at.ReqPerSec)
		res.E2E["lat_p50_us"] = summarize(at.LatP50Us)
		res.E2E["lat_p99_us"] = summarize(at.LatP99Us)
		res.E2E["sim_rtt_p50_ms"] = summarize(at.SimP50Ms)
		res.E2E["sim_rtt_p99_ms"] = summarize(at.SimP99Ms)
		res.E2E["peak_rss_mb"] = summarize([]float64{rss})
	}
	if cfg.Layers {
		epochs := float64(after.Srv.Epochs - before.Srv.Epochs)
		res.counterLayers(before, after, measured.attempted(), epochs)
		res.sourceLayers(measured.Sources)
		res.fleetLayers(st.Sys)
		res.setLayer("serve.epoch_swap_p50_ms", after.Srv.SwapP50Ms)
		res.setLayer("serve.epoch_swap_p99_ms", after.Srv.SwapP99Ms)
		res.setLayer("serve.epochs", float64(after.Srv.Epochs))
		res.setLayer("traffic.gen_req_per_s", float64(in.GenReqs)/in.GenWall.Seconds())
		res.setLayer("traffic.peak_batch", float64(in.PeakBatch))
		if err := serveDiagnostics(cfg, res, st, lg, measured, segDur); err != nil {
			return err
		}
	}

	// Checks (2), (3), (5), then (4) where it applies. The accounting check
	// comes first: the static sample below adds requests of its own.
	final := st.Srv.Stats()
	res.Attempted, res.Failed = lg.OK+lg.Failed, lg.Failed
	res.Checks.checkViolations(lg.violations())
	res.Checks.checkAccounting(res.Attempted, lg.OK, lg.Failed, final.Requests, final.Errors)
	res.Checks.checkFailedShare(res.Attempted, res.Failed)
	if cfg.Workload == wlStaticPinned {
		sampleStatic(st, in, staticSample, &res.Checks)
	}
	if err := stop(); err != nil {
		return fmt.Errorf("closing the server: %w", err)
	}

	if cfg.E2E {
		res.E2E["ok_share"] = summarize([]float64{float64(lg.OK) / float64(res.Attempted)})
		// More set-ups, timed and torn down, so setup_s is a median.
		for moreSetups(setups, cfg.Scale.SetupBudget) {
			t0 := time.Now()
			_, st2, lg2, err := setupServe(cfg, uncovered)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			lg2.close()
			if err := st2.close(); err != nil {
				return err
			}
		}
		res.E2E["setup_s"] = summarize(setups)
		res.markUnresolved()
	}
	if cfg.Layers {
		return tracedPass(cfg, res, in)
	}
	return nil
}

// moreSetups reports whether setup_s needs another sample.
func moreSetups(seconds []float64, budget time.Duration) bool {
	var sum float64
	for _, s := range seconds {
		sum += s
	}
	return len(seconds) < setupRepeats || sum < budget.Seconds()
}

// runSegments runs n back-to-back closed-loop segments and applies the noise
// guard to their throughput.
func runSegments(lg *loadgen, n int, d time.Duration, clients int) (attempt, *segment, error) {
	var at attempt
	total := newSegment()
	for i := 0; i < n; i++ {
		seg, err := lg.run(d, clients)
		if err != nil {
			return at, nil, err
		}
		at.ReqPerSec = append(at.ReqPerSec, seg.reqPerSec())
		at.LatP50Us = append(at.LatP50Us, seg.Lat.quantile(0.50)/1e3)
		at.LatP99Us = append(at.LatP99Us, seg.Lat.quantile(0.99)/1e3)
		at.SimP50Ms = append(at.SimP50Ms, seg.RTT.quantile(0.50)/1e3)
		at.SimP99Ms = append(at.SimP99Ms, seg.RTT.quantile(0.99)/1e3)
		if b := seg.Lat.beyond(0.99); i == 0 || b < at.P99Beyond {
			at.P99Beyond = b
		}
		at.Attempted += seg.attempted()
		at.FailedReqs += seg.Failed
		total.Wall += seg.Wall
		total.merge(seg)
	}
	at.Noisy = noisy(at.ReqPerSec)
	return at, total, nil
}

// noisy reports whether more than two values deviate over noisyDeviation
// from their median — a noisy neighbour on the shared box, not the program.
func noisy(vals []float64) bool {
	med := stats.Median(vals)
	if med == 0 {
		return false
	}
	out := 0
	for _, v := range vals {
		if math.Abs(v-med)/med > noisyDeviation {
			out++
		}
	}
	return out > 2
}

// markUnresolved lists the metrics whose spread over segments is wider than
// their bound: a comparison on them cannot tell a regression from noise.
func (r *workloadResult) markUnresolved() {
	for _, m := range e2eSpecs {
		if s, ok := r.E2E[m.Name]; ok && s.spread() > m.Bound {
			r.Unresolved = append(r.Unresolved, m.Name)
		}
	}
}

func runSim(cfg runConfig, res *workloadResult, uncovered map[geo.Point]bool) error {
	// sim-day is fixed work: the whole day at the reference measured time, a
	// prefix of it when asked for less.
	steps := int(math.Ceil(float64(cfg.Scale.SimSteps) * cfg.Seconds / cfg.Scale.RefSeconds))
	if steps > cfg.Scale.SimSteps {
		steps = cfg.Scale.SimSteps
	}
	if steps < cfg.Scale.HashSteps {
		steps = cfg.Scale.HashSteps
	}
	if !cfg.E2E {
		steps = (steps*layerSegments + numSegments - 1) / numSegments
	}
	var setups []float64
	if cfg.E2E {
		for moreSetups(setups, cfg.Scale.SetupBudget) {
			t0 := time.Now()
			if err := setupSim(cfg.Seed, cfg.Clients, uncovered); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	// Each run builds its own constellation, so the memo counters of the
	// measured one start at zero.
	before := readCounters(nil, nil)
	day, err := runSimDay(cfg.Seed, steps, cfg.Scale.HashSteps, cfg.Clients, uncovered)
	if err != nil {
		return err
	}
	after := readCounters(day.Sys, nil)
	rss := peakRSSMB()
	res.Attempted, res.Failed = day.Requests, day.Failed
	res.Checks.checkViolations(day.Violations)
	res.Checks.checkFailedShare(day.Requests, day.Failed)
	if day.Requests != day.Failed+day.Sources[0]+day.Sources[1]+day.Sources[2] {
		res.Checks.failf("accounting: %d requests, %d failed, %d served", day.Requests, day.Failed, day.Sources[0]+day.Sources[1]+day.Sources[2])
	}

	// Check (1): the same leading steps on a fresh system at one worker. The
	// run doubles as the one-worker side of the parallel-efficiency rows.
	one, err := runSimDay(cfg.Seed, cfg.Scale.HashSteps, cfg.Scale.HashSteps, 1, uncovered)
	if err != nil {
		return err
	}
	res.Checks.checkStreamHash(day.PrefixHash, one.PrefixHash)
	res.Notes = append(res.Notes, fmt.Sprintf("stream hash %016x over %d steps, %d requests, %d releases", day.Hash, day.Steps, day.Requests, day.Releases))

	if cfg.E2E {
		res.E2E["setup_s"] = summarize(setups)
		res.E2E["req_per_s"] = summarize([]float64{float64(day.Requests) / day.Wall.Seconds()})
		res.E2E["ok_share"] = summarize([]float64{float64(day.Requests-day.Failed) / float64(day.Requests)})
		res.E2E["lat_p50_us"] = summarize([]float64{stats.Quantile(day.StepUsPerReq, 0.50)})
		res.E2E["lat_p99_us"] = summarize([]float64{stats.Quantile(day.StepUsPerReq, 0.99)})
		res.E2E["sim_rtt_p50_ms"] = summarize([]float64{day.RTT.quantile(0.50) / 1e3})
		res.E2E["sim_rtt_p99_ms"] = summarize([]float64{day.RTT.quantile(0.99) / 1e3})
		res.E2E["peak_rss_mb"] = summarize([]float64{rss})
	}
	if !cfg.Layers {
		return nil
	}
	res.counterLayers(before, after, day.Requests, float64(day.Steps))
	res.sourceLayers(day.Sources)
	res.fleetLayers(day.Sys)
	res.setLayer("traffic.gen_req_per_s", float64(day.Requests)/day.GenWall.Seconds())
	res.setLayer("traffic.peak_batch", float64(day.PeakBatch))
	many, err := runSimDay(cfg.Seed, cfg.Scale.HashSteps, cfg.Scale.HashSteps, cfg.Clients, uncovered)
	if err != nil {
		return err
	}
	w1 := float64(one.Requests) / one.ResolveWall.Seconds()
	wN := float64(many.Requests) / many.ResolveWall.Seconds()
	res.setLayer("spacecdn.resolve_all_req_per_s.w1", w1)
	res.setLayer("spacecdn.resolve_all_req_per_s.wN", wN)
	res.setLayer("parallel.efficiency", wN/(float64(cfg.Clients)*w1))

	in, err := generateInputs(cfg.Seed, cfg.Scale.TraceReqs, uncovered, cfg.Clients, false)
	if err != nil {
		return err
	}
	return tracedPass(cfg, res, in)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
