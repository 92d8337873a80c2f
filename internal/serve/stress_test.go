package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacecdn/internal/faults"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/spacecdn"
)

// TestEpochSwapStress hammers the epoch-publication protocol: N resolver
// goroutines serve continuously while the sweeper advances sim time every
// millisecond, a fault plan activates and repairs mid-run, and the
// lifecycle applier fields cold-object misses. Run under -race this is the
// torn-read detector for the whole serving core; the in-test assertions
// add the semantic half — every response carries an (epoch, sim-time) pair
// the sweeper actually published, no response is an `isl` serve with 0 hops
// or beyond the search bound, and the telemetry counters balance against
// what the workers observed.
func TestEpochSwapStress(t *testing.T) {
	const (
		step       = 15 * time.Second
		faultFrom  = 30 * time.Second  // outage covers epochs 3..20
		faultUntil = 300 * time.Second // repaired from epoch 21 on
		wantEpochs = 25                // run past activation AND repair
		workers    = 8
	)
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), testConst, testLSN)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFaultPlan(faults.NewPlanFromOutages(testConst.Total(), []faults.Outage{
		{Kind: faults.KindSatellite, Sat: 3, Start: faultFrom, End: faultUntil},
		{Kind: faults.KindSatellite, Sat: 11, Start: faultFrom, End: faultUntil},
	}))
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), testConst.Total()))
	// No Interval: the test goroutine is the sweeper (below).
	srv, err := New(sys, Config{Seed: 7, Step: step})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := srv.PlaceWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	maxHops := sys.Config().MaxISLSearchHops

	var (
		idx      atomic.Uint64 // shared request-index counter
		okTotal  atomic.Int64
		errTotal atomic.Int64
		stale    atomic.Int64
		maxEpoch atomic.Uint64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := srv.AcquireScratch()
			defer srv.ReleaseScratch(sc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := srv.ResolveOnce(wl.Request(idx.Add(1)-1), sc)
				if err != nil {
					errTotal.Add(1)
					continue
				}
				okTotal.Add(1)
				if res.Stale {
					stale.Add(1)
				}
				// Torn-read checks: the (epoch, sim-time) pair must be one
				// the sweeper published as a unit — sim time advances in
				// lockstep with the sequence number — and the epoch must be
				// a real publication (monotonicity against the final count
				// is asserted after shutdown via maxEpoch).
				if res.Epoch == 0 || res.SimTime != time.Duration(res.Epoch-1)*step {
					t.Errorf("torn epoch read: seq %d paired with t=%v", res.Epoch, res.SimTime)
					return
				}
				// Stage properties, across healthy and degraded epochs with the
				// applier's fills racing the probes: a serve with no ISL leg is
				// an overhead serve, and the replica search honours its bound.
				if r := res.Res; (r.Source == spacecdn.SourceISL && r.Hops == 0) || r.Hops > maxHops {
					t.Errorf("epoch %d: %s serve from sat %d with %d hops (bound %d)", res.Epoch, r.Source, r.Sat, r.Hops, maxHops)
					return
				}
				for {
					seen := maxEpoch.Load()
					if res.Epoch <= seen || maxEpoch.CompareAndSwap(seen, res.Epoch) {
						break
					}
				}
			}
		}()
	}

	// Sweep from here, through the advance() the daemon's sweepLoop calls, one
	// epoch per millisecond — but hold a degraded epoch until a resolver has
	// served on one. A free-running sweeper on one core under the race
	// detector, where an epoch build outlasts the tick, never blocks and
	// publishes the whole outage window before any resolver is scheduled.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().Epochs < wantEpochs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if srv.Epoch().Degraded() && sys.FaultStats().DegradedRequests == 0 {
			continue
		}
		srv.advance()
	}
	close(stop)
	wg.Wait() // resolvers drain before Close stops the applier
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Epochs < wantEpochs {
		t.Fatalf("sweeper published %d epochs in 30s, want >= %d", st.Epochs, wantEpochs)
	}
	if got := maxEpoch.Load(); got > st.Epochs {
		t.Fatalf("served epoch %d was never published (max %d)", got, st.Epochs)
	}
	if okTotal.Load() == 0 {
		t.Fatal("no successful requests under stress")
	}

	// Counters balance: the serve-layer counters match what the workers
	// observed, and the per-source resolve counters account for every
	// successful request exactly once.
	if st.Requests != okTotal.Load() || st.Errors != errTotal.Load() || st.StaleServed != stale.Load() {
		t.Fatalf("stats %+v disagree with workers (ok=%d errs=%d stale=%d)",
			st, okTotal.Load(), errTotal.Load(), stale.Load())
	}
	reg := srv.Telemetry().Registry()
	if v := reg.Counter("serve_requests_total").Value(); v != st.Requests {
		t.Fatalf("serve_requests_total = %d, want %d", v, st.Requests)
	}
	if v := reg.Counter("serve_errors_total").Value(); v != st.Errors {
		t.Fatalf("serve_errors_total = %d, want %d", v, st.Errors)
	}
	if v := reg.Counter("serve_stale_epoch_total").Value(); v != st.StaleServed {
		t.Fatalf("serve_stale_epoch_total = %d, want %d", v, st.StaleServed)
	}
	if v := reg.Counter("serve_epoch_swaps_total").Value(); uint64(v) != st.Epochs {
		t.Fatalf("serve_epoch_swaps_total = %d, want %d", v, st.Epochs)
	}
	var perSource int64
	for _, src := range spacecdn.Sources() {
		perSource += reg.Counter("spacecdn_resolve_requests_total", "source", src.String()).Value()
	}
	if perSource != st.Requests {
		t.Fatalf("per-source resolve counters sum to %d, want %d", perSource, st.Requests)
	}
	if v := reg.Histogram("serve_request_latency_ms", nil).Count(); v != st.Requests {
		t.Fatalf("latency histogram count = %d, want %d", v, st.Requests)
	}

	// The fault plan activated mid-run (epochs pinned degraded views) and
	// the run outlived the repair.
	if fs := sys.FaultStats(); fs.DegradedRequests == 0 {
		t.Fatal("fault plan never activated: zero degraded resolves")
	}
	if final := srv.Epoch(); final.Degraded() {
		t.Fatalf("final epoch %d still degraded after repair at %v", final.Seq(), faultUntil)
	}
}
