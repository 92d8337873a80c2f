package constellation

import (
	"fmt"
	"time"
)

// Cursor is a monotonic time cursor over the constellation: the common
// interface of the incremental Sweep engine and its naive SweepScan
// reference. Time-stepped consumers (RTT time series, overhead windows,
// striping schedules, resilience sweeps) are written against the interface,
// so the equivalence of the two forms can be proven at the consumer's own
// output stream.
type Cursor interface {
	// At returns the snapshot at the cursor's current time without moving.
	At() *Snapshot
	// Time returns the cursor's current offset from the constellation epoch.
	Time() time.Duration
	// Step returns the cursor's nominal step (0 for AdvanceTo-only cursors).
	Step() time.Duration
	// Advance moves one step forward and returns the snapshot there. What
	// was obtained from the previous snapshot — path trees included — must
	// not be used afterwards.
	Advance() *Snapshot
	// AdvanceTo moves to an arbitrary time at or after the current time and
	// returns the snapshot there. Moving backwards panics.
	AdvanceTo(t time.Duration) *Snapshot
	// Close ends the cursor. Snapshots obtained from the cursor must not be
	// used after Close.
	Close()
}

// Sweep is the temporal-coherence engine: a cursor that advances one
// snapshot in place instead of rebuilding the world each step. It starts
// from an ordinary Snapshot(start); each advance recomputes positions into
// the snapshot's own buffer, migrates in the visibility grid only the
// satellites that crossed a cell boundary, refreshes the ISL graph's edge
// weights (once materialized) in place over the constellation's shared CSR
// topology, and empties the path-tree table in place. At steady state an
// advance performs zero allocations, and every query against the advanced
// snapshot returns results byte-identical to a fresh Snapshot(t).
//
// The snapshot returned by At/Advance/AdvanceTo is only valid until the next
// advance or Close: a sweep trades the immutability of fresh snapshots for
// O(what moved) steps. Concurrent readers of the current snapshot are safe
// (experiments fan batch resolution out over it); advancing while any reader
// is still active is a data race, exactly like mutating any shared value.
// The same holds for anything obtained from that snapshot, path trees above
// all: a routing.SPTree settles on demand over the graph whose weights the
// advance rewrites, so a tree is good for the step it was rooted in and must
// not be queried after it (the table never serves one across an advance).
type Sweep struct {
	c      *Constellation
	step   time.Duration
	snap   *Snapshot
	closed bool
}

// Sweep returns a cursor positioned at start. Advance moves by step; pass
// step 0 for a cursor driven only through AdvanceTo.
func (c *Constellation) Sweep(start, step time.Duration) *Sweep {
	return &Sweep{c: c, step: step, snap: c.Snapshot(start)}
}

// At returns the snapshot at the cursor's current time.
func (w *Sweep) At() *Snapshot { return w.snap }

// Time returns the cursor's current offset from the constellation epoch.
func (w *Sweep) Time() time.Duration { return w.snap.t }

// Step returns the cursor's nominal step.
func (w *Sweep) Step() time.Duration { return w.step }

// Advance moves the cursor one step forward and returns the snapshot there.
func (w *Sweep) Advance() *Snapshot {
	if w.step <= 0 {
		panic("constellation: Advance on a Sweep with no step; use AdvanceTo")
	}
	return w.AdvanceTo(w.snap.t + w.step)
}

// AdvanceTo moves the cursor to time t (at or after the current time) and
// returns the snapshot there. The update is O(what moved): full position
// recompute into the snapshot's buffer (pure arithmetic on the SoA basis),
// grid migration for boundary crossers only, in-place ISL weight refresh, a
// generation bump that retires stale ground-memo entries without touching
// them, and a clear of the path-tree table.
func (w *Sweep) AdvanceTo(t time.Duration) *Snapshot {
	if w.closed {
		panic("constellation: use of a closed Sweep")
	}
	s := w.snap
	if t < s.t {
		panic(fmt.Sprintf("constellation: sweep cannot move backwards (%v -> %v)", s.t, t))
	}
	if t == s.t {
		return s
	}
	w.c.eng.positionsInto(t, s.pos)
	s.t = t
	s.grid.advance(s)
	if s.islGraph != nil {
		s.refreshISLWeights()
	}
	s.memoGen++
	s.trees.retire()
	s.clearMasked()
	return s
}

// Close marks the cursor closed; advancing it afterwards panics. Idempotent.
func (w *Sweep) Close() { w.closed = true }

// SweepScan is the reference cursor: a fresh immutable Snapshot per
// position. It is the naive form every Sweep-backed consumer is proven
// against — same interface, same outputs, none of the reuse.
type SweepScan struct {
	c    *Constellation
	step time.Duration
	snap *Snapshot
}

// SweepScan returns a naive cursor positioned at start.
func (c *Constellation) SweepScan(start, step time.Duration) *SweepScan {
	return &SweepScan{c: c, step: step, snap: c.Snapshot(start)}
}

// At returns the snapshot at the cursor's current time.
func (w *SweepScan) At() *Snapshot { return w.snap }

// Time returns the cursor's current offset from the constellation epoch.
func (w *SweepScan) Time() time.Duration { return w.snap.t }

// Step returns the cursor's nominal step.
func (w *SweepScan) Step() time.Duration { return w.step }

// Advance moves the cursor one step forward and returns a fresh snapshot.
func (w *SweepScan) Advance() *Snapshot {
	if w.step <= 0 {
		panic("constellation: Advance on a SweepScan with no step; use AdvanceTo")
	}
	return w.AdvanceTo(w.snap.t + w.step)
}

// AdvanceTo moves the cursor to time t and returns a fresh snapshot there.
func (w *SweepScan) AdvanceTo(t time.Duration) *Snapshot {
	if t < w.snap.t {
		panic(fmt.Sprintf("constellation: sweep cannot move backwards (%v -> %v)", w.snap.t, t))
	}
	if t == w.snap.t {
		return w.snap
	}
	w.snap = w.c.Snapshot(t)
	return w.snap
}

// Close is a no-op; fresh snapshots are garbage collected as usual.
func (w *SweepScan) Close() {}
