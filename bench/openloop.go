package main

import (
	"sync"
	"time"

	"spacecdn/internal/stats"
)

// Open-loop diagnostics (day-http only). Requests are due on a Poisson
// schedule whatever the server does, and latency runs from the due time, so
// a stall is charged to every request queued behind it. In this sandbox
// time.Sleep below a millisecond rounds up to about 1.1 ms and a pacer under
// load wakes about half a millisecond late while service takes tens of
// microseconds, so these rows are reported beside the generator's own
// lateness and are not gated.
var openLoopRates = []struct {
	Suffix string
	PerSec float64
}{{"r4k", 4000}, {"r16k", 16000}}

func openLoopDiagnostics(cfg runConfig, res *workloadResult, lg *loadgen, d time.Duration) error {
	late := newHist()
	for _, rate := range openLoopRates {
		lat, err := lg.openLoop(cfg.Seed, rate.PerSec, d, late)
		if err != nil {
			return err
		}
		res.setLayer("serve.open_p50_us."+rate.Suffix, lat.quantile(0.50)/1e3)
		res.setLayer("serve.open_p99_us."+rate.Suffix, lat.quantile(0.99)/1e3)
	}
	res.setLayer("bench.gen_late_p50_us", late.quantile(0.50)/1e3)
	res.setLayer("bench.gen_late_p99_us", late.quantile(0.99)/1e3)
	return nil
}

// openLoop offers perSec requests per second for d. Arrival k is carried by
// connection k mod clients; a connection that falls behind sends as fast as
// it can, and the backlog shows as latency from the due time. A failed
// request counts as a miss at the end of the distribution.
func (lg *loadgen) openLoop(seed int64, perSec float64, d time.Duration, late *hist) (*hist, error) {
	rng := stats.NewRand(seed).Fork("open-loop")
	var due []time.Duration
	for t := time.Duration(0); t < d; {
		t += time.Duration(rng.Exponential(1/perSec) * float64(time.Second))
		due = append(due, t)
	}
	n := len(lg.clients)
	lats, lates, segs := make([]*hist, n), make([]*hist, n), make([]*segment, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Since(lg.base)
	for c := 0; c < n; c++ {
		lats[c], lates[c], segs[c] = newHist(), newHist(), newSegment()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, in := lg.clients[c], lg.in
			for k := c; k < len(due); k += n {
				at := start + due[k]
				if ahead := at - time.Since(lg.base); ahead > 0 {
					time.Sleep(ahead)
				}
				req := in.HTTP[in.HTTPOff[cl.pos]:in.HTTPOff[cl.pos+1]]
				if cl.pos += n; cl.pos >= len(in.Stream) {
					cl.pos -= len(in.Stream)
				}
				sent := time.Since(lg.base)
				status, body, err := cl.conn.roundTrip(req)
				if err != nil {
					errs[c] = err
					return
				}
				lates[c].add(int64(sent - at))
				failed := segs[c].Failed
				lg.recordHTTP(cl, segs[c], status, body)
				if segs[c].Failed > failed {
					lats[c].add(int64(d)) // a miss: later than any served request
				} else {
					lats[c].add(int64(time.Since(lg.base) - at))
				}
			}
		}(c)
	}
	wg.Wait()
	lat := newHist()
	for c := 0; c < n; c++ {
		if errs[c] != nil {
			return nil, errs[c]
		}
		lat.merge(lats[c])
		late.merge(lates[c])
		lg.OK += segs[c].OK
		lg.Failed += segs[c].Failed
	}
	return lat, nil
}
