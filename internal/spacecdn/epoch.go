package spacecdn

import (
	"sync"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/stats"
)

// Concurrent serving support: the serve daemon advances the constellation in
// a background sweeper and publishes each step as an immutable Epoch; request
// goroutines pin one epoch with a single atomic pointer load and resolve
// against it with ResolveAt. The epoch carries everything a resolution reads
// from time-varying state — the snapshot (with its ISL graph and path-tree
// memos) and the fault view for the snapshot instant — so a request never
// observes a half-advanced topology and never takes a lock on the hot path.
//
// Ownership: the sweeper owns epoch construction — the snapshot arrives with
// its visibility grid, a degraded view with its masked graph, and NewEpoch
// forces the ISL graph requests price against, so readers only ever see a
// finished topology. Readers own nothing — they borrow the epoch for the
// duration of one resolution and the garbage collector reclaims superseded
// epochs once the last borrower returns. Lifecycle mutation is the one write the serve path performs; it is
// funneled through the single-writer applier (StartLifecycleApplier) so
// origin-fetch coalescing stays deterministic under concurrent misses.

// Epoch pins the time-varying inputs of one resolution instant: a finished
// constellation snapshot and, when the fault plan has active outages at its
// time, the fault view and the masked topology it describes. Epochs are
// immutable after construction and safe to share across any number of
// request goroutines.
type Epoch struct {
	seq  uint64
	snap *constellation.Snapshot
	// topo is what resolutions price against: snap or, when at least one
	// outage is active, the snapshot's masked view for fv. fv is set only
	// then; the ground stage takes (snap, fv) and masks on its own.
	topo topology
	fv   *faults.View
}

// pin captures the epoch of a snapshot: the attached plan's fault view at
// the snapshot time and the snapshot's (cached, shared) masked view for it.
// It is the one place fault state becomes a topology — Resolve pins per
// call, ResolveAll per batch, NewEpoch per published epoch, IssuePurge per
// flood — and it runs before any rng draw, so with no plan or no active
// outage every caller sees the healthy snapshot untouched.
func (s *System) pin(ep *Epoch, seq uint64, snap *constellation.Snapshot) {
	*ep = Epoch{seq: seq, snap: snap, topo: snap}
	if s.faults != nil {
		if fv := s.faults.ViewAt(snap.Time()); !fv.Empty() {
			ep.fv = fv
			ep.topo = snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks)
		}
	}
}

// NewEpoch builds a publishable epoch over a finished snapshot. It pins the
// attached fault plan's view at the snapshot time and forces the ISL graph
// of the pinned topology — the healthy graph, or on a degraded epoch the
// masked one — so every cost of epoch construction lands on the sweeper,
// never on a request goroutine. The seq is the publisher's monotonic epoch
// counter; readers use it to detect serving on a stale-but-valid epoch.
func (s *System) NewEpoch(seq uint64, snap *constellation.Snapshot) *Epoch {
	ep := new(Epoch)
	s.pin(ep, seq, snap)
	ep.topo.ISLGraph()
	return ep
}

// Seq returns the publisher's epoch counter.
func (e *Epoch) Seq() uint64 { return e.seq }

// Time returns the simulation instant the epoch pins.
func (e *Epoch) Time() time.Duration { return e.snap.Time() }

// Snapshot returns the pinned constellation snapshot.
func (e *Epoch) Snapshot() *constellation.Snapshot { return e.snap }

// Degraded reports whether the epoch pins an active-outage fault view, i.e.
// resolutions against it price off the fault-masked topology.
func (e *Epoch) Degraded() bool { return e.fv != nil }

// ResolveAt serves one request against a pinned epoch. It is the
// concurrency-safe counterpart of Resolve: where Resolve consults the fault
// plan at call time, ResolveAt uses the view pinned at epoch construction,
// so every request on one epoch sees one consistent outage state even while
// the plan's interval cache is warming under other epochs. The rng must be
// goroutine-local (fork one stream per connection or per request); all other
// inputs are shared and read-only. Lifecycle intents go to the applier when
// one is started (StartLifecycleApplier) and apply inline otherwise.
//
// For equal snapshot, fault state, and rng state, ResolveAt returns the
// byte-identical Resolution stream Resolve would — the epoch changes when
// state is read, never what is computed.
func (s *System) ResolveAt(ep *Epoch, client geo.Point, iso2 string, obj content.Object, rng *stats.Rand) (Resolution, error) {
	req := Request{Client: client, ISO2: iso2, Obj: obj}
	return s.resolveApplied(ep, &req, rng, s.applier.Load())
}

// intentMsg carries one request's lifecycle intent to the applier.
type intentMsg struct {
	it *lcIntent
	t  time.Duration
}

// lcApplier is the single-writer lifecycle apply loop. All cache mutation
// the serve path performs (fills, drops, hit accounting, tier promotion)
// funnels through its channel, so coalescing-winner selection is a plain
// map probe with no locking and arrival order fully determines outcomes.
type lcApplier struct {
	ch   chan intentMsg
	done chan struct{}
}

// intentPool recycles lifecycle intents between the resolve goroutine that
// fills one and the applier goroutine that retires it, keeping the
// lifecycle serve path allocation-free at steady state.
var intentPool = sync.Pool{New: func() any { return new(lcIntent) }}

// StartLifecycleApplier starts the single-writer apply goroutine and routes
// subsequent ResolveAt lifecycle intents through it. Origin fetches
// coalesce per {object, version, cell} within one epoch: the flights map
// resets whenever the applied intent's sim time changes, so one epoch is
// one coalescing window — mirroring ResolveAll's per-batch window.
//
// The returned stop function detaches the applier, drains queued intents,
// and waits for the goroutine to exit. Contract: stop resolving before
// calling stop (the same attach-before-concurrent-resolves discipline as
// SetFaultPlan and SetLifecycle) — a resolve racing stop could submit to a
// closed channel. Without a started applier, ResolveAt applies intents
// inline with no coalescing, exactly like a single Resolve.
func (s *System) StartLifecycleApplier(buf int) (stop func()) {
	if buf <= 0 {
		buf = 256
	}
	a := &lcApplier{ch: make(chan intentMsg, buf), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		flights := make(map[lifecycle.FlightKey]struct{})
		cur := time.Duration(-1)
		for m := range a.ch {
			if m.t != cur {
				clear(flights)
				cur = m.t
			}
			s.applyLcIntent(m.it, m.t, flights)
			*m.it = lcIntent{}
			intentPool.Put(m.it)
		}
	}()
	s.applier.Store(a)
	return func() {
		s.applier.Store(nil)
		close(a.ch)
		<-a.done
	}
}
