package main

import (
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/traffic"
)

// simLoop is the batch reproduction loop of experiments.Traffic: NextBatch,
// sweep-cursor advance, release-driven placement, then ResolveAll on what
// next returns. Every input that shapes the result stream comes from the
// seed, and the stream is identical for any worker count.
type simLoop struct {
	gen       *traffic.Generator
	sys       *spacecdn.System
	cur       *constellation.Sweep
	rng       *stats.Rand
	workers   int
	uncovered map[geo.Point]bool
	placedAt  int

	GenWall, AdvanceWall, PlaceWall time.Duration
}

func newSimLoop(seed int64, workers int, uncovered map[geo.Point]bool) (*simLoop, error) {
	gen, err := traffic.New(trafficConfig(seed, workers))
	if err != nil {
		return nil, err
	}
	env, sys, err := newSystem(stackSpec{})
	if err != nil {
		return nil, err
	}
	return &simLoop{
		gen:       gen,
		sys:       sys,
		cur:       env.Sweep(0, 0),
		rng:       stats.NewRand(seed).Fork("traffic-resolve"),
		workers:   workers,
		uncovered: uncovered,
		placedAt:  -1,
	}, nil
}

func (l *simLoop) close() { l.cur.Close() }

// next produces the next step's batch and the snapshot to resolve it on,
// with placement refreshed if a release moved the ranks.
func (l *simLoop) next() (reqs []spacecdn.Request, snap *constellation.Snapshot, ok bool, err error) {
	t0 := time.Now()
	reqs, at, ok := l.gen.NextBatch()
	t1 := time.Now()
	l.GenWall += t1.Sub(t0)
	if !ok {
		return nil, nil, false, nil
	}
	reqs = keepCovered(reqs, l.uncovered)
	snap = l.cur.AdvanceTo(at)
	t2 := time.Now()
	l.AdvanceWall += t2.Sub(t1)
	if l.gen.Releases() != l.placedAt {
		if err := placeTiers(l.sys, l.gen.Top(hotTier+warmTier), false); err != nil {
			return nil, nil, false, err
		}
		l.placedAt = l.gen.Releases()
	}
	l.PlaceWall += time.Since(t2)
	return reqs, snap, true, nil
}

// setupSim is what sim-day pays before its first request can be resolved:
// generator, system, cursor, the first batch, placement and the ISL graph.
func setupSim(seed int64, workers int, uncovered map[geo.Point]bool) error {
	l, err := newSimLoop(seed, workers, uncovered)
	if err != nil {
		return err
	}
	defer l.close()
	_, snap, ok, err := l.next()
	if err == nil && ok {
		snap.ISLGraph()
	}
	return err
}

// simDay is the outcome of the loop with the benchmark's checks on every
// result.
type simDay struct {
	Steps    int
	Requests int64
	Failed   int64
	Wall     time.Duration // the whole loop: generation, advance, placement, resolve, accounting

	StepUsPerReq []float64 // one step's wall time per request, µs
	RTT          *hist     // simulated RTT of served results, µs
	Sources      [3]int64

	Hash       uint64 // FNV-1a over every result of the run, in order
	PrefixHash uint64 // the same over the first hashSteps steps
	Violations [numViolations]int64

	GenWall, AdvanceWall, PlaceWall, ResolveWall time.Duration
	PeakBatch                                    int
	Releases                                     int

	Sys *spacecdn.System
}

// runSimDay resolves the first steps of the traffic day on a fresh system.
func runSimDay(seed int64, steps, hashSteps, workers int, uncovered map[geo.Point]bool) (*simDay, error) {
	l, err := newSimLoop(seed, workers, uncovered)
	if err != nil {
		return nil, err
	}
	defer l.close()
	out := &simDay{RTT: newHist(), Sys: l.sys}
	v := validator{lim: limitsFor(l.sys, 0)}
	all, prefix := newStreamHash(), newStreamHash()
	start := time.Now()
	for out.Steps < steps {
		t0 := time.Now()
		reqs, snap, ok, err := l.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		t1 := time.Now()
		res := l.sys.ResolveAll(reqs, snap, l.rng, workers)
		out.ResolveWall += time.Since(t1)
		for i := range res {
			all.add(res[i])
			if out.Steps < hashSteps {
				prefix.add(res[i])
			}
			if res[i].Err != nil {
				out.Failed++
				continue
			}
			o := observation{Source: int(res[i].Source), Sat: int(res[i].Sat), Hops: res[i].Hops, RTT: res[i].RTT}
			v.observe(o)
			out.RTT.add(int64(o.RTT / time.Microsecond))
			out.Sources[res[i].Source]++
		}
		out.Requests += int64(len(reqs))
		if len(reqs) > out.PeakBatch {
			out.PeakBatch = len(reqs)
		}
		if len(reqs) > 0 {
			out.StepUsPerReq = append(out.StepUsPerReq, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(reqs)))
		}
		out.Steps++
	}
	out.Wall = time.Since(start)
	out.GenWall, out.AdvanceWall, out.PlaceWall = l.GenWall, l.AdvanceWall, l.PlaceWall
	out.Hash, out.PrefixHash = all.h, prefix.h
	out.Violations = v.counts
	out.Releases = l.gen.Releases()
	return out, nil
}
