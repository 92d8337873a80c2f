package main

import (
	"fmt"
	"sync"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/routing"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// Per-layer timings, taken from outside: each times calls into one layer's
// public functions or reads its public counters. They explain the end-to-end
// numbers; they are never gated.

// serveDiagnostics runs on the live stack after the measured segments: a
// one-client segment for the scaling ratio, the open-loop runs (day-http),
// and one metrics exposition.
func serveDiagnostics(cfg runConfig, res *workloadResult, st *stack, lg *loadgen, measured *segment, segDur time.Duration) error {
	one, err := lg.run(segDur, 1)
	if err != nil {
		return err
	}
	if one.reqPerSec() > 0 {
		res.setLayer("serve.scaling_x", measured.reqPerSec()/one.reqPerSec())
	}
	if cfg.Workload == wlDayHTTP {
		if err := openLoopDiagnostics(cfg, res, lg, segDur); err != nil {
			return err
		}
	}
	var cw countingWriter
	t0 := time.Now()
	if err := st.Srv.Telemetry().WritePrometheus(&cw); err != nil {
		return fmt.Errorf("metrics exposition: %w", err)
	}
	res.setLayer("telemetry.scrape_ms", float64(time.Since(t0))/float64(time.Millisecond))
	res.setLayer("telemetry.scrape_kb", float64(cw.n)/1024)
	return nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// perCall times fn over n calls, reps times, and returns the median
// nanoseconds per call: single calls of tens of nanoseconds are below what
// the clock resolves.
func perCall(reps, n int, fn func(i int)) float64 {
	vals := make([]float64, reps)
	for r := range vals {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		vals[r] = float64(time.Since(t0)) / float64(n)
	}
	return stats.Median(vals)
}

// layerTimings measures each layer on the twin with the traced requests.
func layerTimings(cfg runConfig, res *workloadResult, t *twin, in *inputs, reqs []spacecdn.Request, rootHist *hist) error {
	const reps = 5
	snap, sys := t.snap, t.sys
	g := snap.ISLGraph()
	maxHops := sys.Config().MaxISLSearchHops

	// constellation: visibility lookup, stage 0 of every request.
	ups := make([]constellation.SatID, len(reqs))
	res.setLayer("constellation.best_visible_ns", perCall(reps, len(reqs), func(i int) {
		up, _ := snap.BestVisible(reqs[i].Client)
		ups[i] = up.ID
	}))

	// routing: the replica search, inputs prepared outside the clock.
	members := make([]routing.Bitset, len(reqs))
	for i := range reqs {
		members[i] = sys.ReplicaSet(reqs[i].Obj.ID)
	}
	res.setLayer("routing.nearest_in_set_ns", perCall(reps, len(reqs), func(i int) {
		g.NearestInSet(routing.NodeID(ups[i]), maxHops, members[i], nil)
	}))

	// lsn: the ground path, on the requests the twin serves from ground.
	ground := newHist()
	for i := range reqs {
		if members[i].Any() {
			continue
		}
		t0 := time.Now()
		if _, err := t.env.LSN.ResolvePath(reqs[i].Client, reqs[i].ISO2, snap); err != nil {
			return fmt.Errorf("lsn.ResolvePath: %w", err)
		}
		ground.add(int64(time.Since(t0)))
	}
	res.setLayer("lsn.resolve_path_us", ground.quantile(0.5)/1e3)

	// constellation: epoch build by fresh snapshot (what the daemon's sweeper
	// does) against the sweep cursor, over the same consecutive steps.
	c := sys.Constellation()
	build, advance := make([]float64, 0, cfg.Scale.MicroSteps), make([]float64, 0, cfg.Scale.MicroSteps)
	cur := c.Sweep(0, epochStep)
	cur.At().ISLGraph()
	for i := 1; i <= cfg.Scale.MicroSteps; i++ {
		at := time.Duration(i) * epochStep
		t0 := time.Now()
		sys.NewEpoch(uint64(i), c.Snapshot(at))
		build = append(build, float64(time.Since(t0))/float64(time.Microsecond))
		t0 = time.Now()
		cur.AdvanceTo(at).ISLGraph()
		advance = append(advance, float64(time.Since(t0))/float64(time.Microsecond))
	}
	cur.Close()
	res.setLayer("constellation.snapshot_build_us", stats.Median(build))
	res.setLayer("constellation.cursor_advance_us", stats.Median(advance))

	// constellation: one path tree, cold then memoised, on a fresh snapshot.
	fresh := c.Snapshot(epochStep)
	fresh.ISLGraph()
	var coldUs []float64
	srcs := distinct(ups, 64)
	for _, src := range srcs {
		t0 := time.Now()
		fresh.PathTree(src)
		coldUs = append(coldUs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	res.setLayer("constellation.path_tree_cold_us", stats.Median(coldUs))
	res.setLayer("constellation.path_tree_warm_ns", perCall(reps, 100*len(srcs), func(i int) { fresh.PathTree(srcs[i%len(srcs)]) }))

	// cache: a hit on one satellite, alone and from every client at once.
	hot := in.Top[0]
	sat := spacecdn.PerPlaneSpacing{ReplicasPerPlane: 4}.Replicas(sys, hot)[0]
	store, key := sys.CacheOf(sat), cache.Key(hot.ID)
	const gets = 200_000
	res.setLayer("cache.get_ns", perCall(reps, gets, func(int) { store.Get(key) }))
	res.setLayer("cache.get_contended_ns", perCall(reps, 1, func(int) {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < gets; i++ {
					store.Get(key)
				}
			}()
		}
		wg.Wait()
	})/gets)

	// cache and lifecycle on scratch systems: tier placement is a run of
	// Store calls; a purge floods the fleet.
	_, scratch, err := newSystem(stackSpec{Lifecycle: true})
	if err != nil {
		return err
	}
	stores := 0
	for i, o := range in.Top {
		k := 1
		if i < hotTier {
			k = 4
		}
		stores += len(spacecdn.PerPlaneSpacing{ReplicasPerPlane: k}.Replicas(scratch, o))
	}
	t0 := time.Now()
	if err := placeTiers(scratch, in.Top, false); err != nil {
		return err
	}
	res.setLayer("cache.put_ns", float64(time.Since(t0))/float64(stores))
	var floods []float64
	for i := 0; i < reps && i < len(in.Top); i++ {
		t0 := time.Now()
		if _, err := scratch.IssuePurge(in.Top[i].ID, reqs[0].Client, snap); err != nil {
			return fmt.Errorf("IssuePurge: %w", err)
		}
		floods = append(floods, float64(time.Since(t0))/float64(time.Millisecond))
	}
	res.setLayer("lifecycle.purge_flood_ms", stats.Median(floods))

	// spacecdn: ResolveAt on the pinned warm epoch, bucketed by source.
	ep := sys.NewEpoch(1, snap)
	rng := stats.NewRand(cfg.Seed)
	var bySource [3]*hist
	for i := range bySource {
		bySource[i] = newHist()
	}
	at := newHist()
	for i := range reqs {
		t0 := time.Now()
		r, err := sys.ResolveAt(ep, reqs[i].Client, reqs[i].ISO2, reqs[i].Obj, rng)
		d := int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("ResolveAt: %w", err)
		}
		bySource[r.Source].add(d)
		at.add(d)
	}
	res.setLayer("spacecdn.resolve_at_ns.overhead", bySource[spacecdn.SourceOverhead].quantile(0.5))
	res.setLayer("spacecdn.resolve_at_ns.isl", bySource[spacecdn.SourceISL].quantile(0.5))
	res.setLayer("spacecdn.resolve_at_ns.ground", bySource[spacecdn.SourceGround].quantile(0.5))

	// telemetry: the same resolve with and without the bundle attached.
	record, err := telemetryRecordNs(cfg, in, reqs, snap)
	if err != nil {
		return err
	}
	res.setLayer("telemetry.record_ns", record)

	// serve: what ResolveOnce and the HTTP surface add.
	if t.srv == nil {
		return nil
	}
	once := rootHist.quantile(0.5)
	res.setLayer("serve.resolve_once_ns", once)
	res.setLayer("serve.overhead_ns", once-at.quantile(0.5))
	conn, err := dialHTTP(t.srv.Addr())
	if err != nil {
		return err
	}
	defer conn.close()
	rtt := newHist()
	var buf []byte
	for pass := 0; pass < 2; pass++ { // the first pass warms the connection
		for i := range reqs {
			buf = appendHTTPRequest(buf[:0], reqs[i])
			t0 := time.Now()
			status, _, err := conn.roundTrip(buf)
			d := int64(time.Since(t0))
			if err != nil || status != 200 {
				return fmt.Errorf("twin HTTP round trip: status %d: %v", status, err)
			}
			if pass == 1 {
				rtt.add(d)
			}
		}
	}
	res.setLayer("serve.http_overhead_us", (rtt.quantile(0.5)-once)/1e3)
	return nil
}

// telemetryRecordNs is what attaching telemetry adds to one ResolveAt: two
// scratch systems with the tiers placed, one with the bundle and one without,
// timed over the requests in alternation; the median of the paired
// differences, so a burst of machine noise hits both sides of a pair.
func telemetryRecordNs(cfg runConfig, in *inputs, reqs []spacecdn.Request, snap *constellation.Snapshot) (float64, error) {
	var pass [2]func() (float64, error)
	for i, attached := range []bool{true, false} {
		_, sys, err := newSystem(stackSpec{Telemetry: attached})
		if err != nil {
			return 0, err
		}
		if err := placeTiers(sys, in.Top, false); err != nil {
			return 0, err
		}
		ep := sys.NewEpoch(1, snap)
		rng := stats.NewRand(cfg.Seed)
		pass[i] = func() (float64, error) {
			t0 := time.Now()
			for i := range reqs {
				if _, err := sys.ResolveAt(ep, reqs[i].Client, reqs[i].ISO2, reqs[i].Obj, rng); err != nil {
					return 0, fmt.Errorf("ResolveAt: %w", err)
				}
			}
			return float64(time.Since(t0)) / float64(len(reqs)), nil
		}
	}
	const pairs = 9 // the first pair warms both systems and is dropped
	var diffs []float64
	for p := 0; p < pairs; p++ {
		with, err := pass[0]()
		if err != nil {
			return 0, err
		}
		without, err := pass[1]()
		if err != nil {
			return 0, err
		}
		if p > 0 {
			diffs = append(diffs, with-without)
		}
	}
	return stats.Median(diffs), nil
}

// distinct returns up to n distinct ids in first-seen order.
func distinct(ids []constellation.SatID, n int) []constellation.SatID {
	seen := make(map[constellation.SatID]bool)
	var out []constellation.SatID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			if out = append(out, id); len(out) == n {
				break
			}
		}
	}
	return out
}
