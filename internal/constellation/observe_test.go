package constellation

import (
	"testing"
	"time"
)

// recordingObserver captures Tick calls for assertion.
type recordingObserver struct {
	ticks []time.Duration
}

func (o *recordingObserver) Tick(t time.Duration) { o.ticks = append(o.ticks, t) }

func TestObserveCursorReportsAdvances(t *testing.T) {
	c := small()
	obs := &recordingObserver{}
	cur := ObserveCursor(c.Sweep(0, 30*time.Second), obs)
	defer cur.Close()

	// Wrapping ticks once at the start position, so the first window aligns.
	if len(obs.ticks) != 1 || obs.ticks[0] != 0 {
		t.Fatalf("initial ticks = %v, want [0]", obs.ticks)
	}
	cur.Advance()
	cur.AdvanceTo(2 * time.Minute)
	cur.AdvanceTo(2 * time.Minute) // no movement: still ticks
	if got := cur.Time(); got != 2*time.Minute {
		t.Fatalf("cursor time = %v", got)
	}
	wantTicks := []time.Duration{0, 30 * time.Second, 2 * time.Minute, 2 * time.Minute}
	if len(obs.ticks) != len(wantTicks) {
		t.Fatalf("ticks = %v, want %v", obs.ticks, wantTicks)
	}
	for i, want := range wantTicks {
		if obs.ticks[i] != want {
			t.Fatalf("ticks = %v, want %v", obs.ticks, wantTicks)
		}
	}
}

// TestObserveCursorTransparent: the wrapper must not change what the cursor
// yields — snapshots, times, and step width pass straight through.
func TestObserveCursorTransparent(t *testing.T) {
	c := small()
	plain := c.Sweep(0, time.Minute)
	defer plain.Close()
	wrapped := ObserveCursor(c.Sweep(0, time.Minute), &recordingObserver{})
	defer wrapped.Close()

	if wrapped.Step() != plain.Step() {
		t.Fatalf("step %v != %v", wrapped.Step(), plain.Step())
	}
	for i := 0; i < 3; i++ {
		a, b := plain.Advance(), wrapped.Advance()
		if a.Time() != b.Time() {
			t.Fatalf("advance %d: time %v != %v", i, b.Time(), a.Time())
		}
	}
	if wrapped.At().Time() != plain.At().Time() {
		t.Fatal("At() mismatch")
	}
}

func TestObserveCursorNilObserver(t *testing.T) {
	c := small()
	inner := c.Sweep(0, time.Minute)
	defer inner.Close()
	if got := ObserveCursor(inner, nil); got != inner {
		t.Fatal("nil observer must return the cursor unwrapped")
	}
}
