package constellation

import "time"

// CursorObserver receives cursor progress: a Tick with the new sim time
// after every advance. telemetry.SeriesCollector satisfies it — this
// interface exists so the constellation package stays free of a telemetry
// dependency.
type CursorObserver interface {
	Tick(t time.Duration)
}

// ObserveCursor wraps a cursor so every advance reports to the observer —
// the hook the windowed series collector rides to key metric windows by sim
// time. The observer is ticked once at the current position so the first
// window aligns to the cursor's start. A nil observer returns the cursor
// unwrapped.
func ObserveCursor(c Cursor, o CursorObserver) Cursor {
	if o == nil {
		return c
	}
	o.Tick(c.Time())
	return &observedCursor{inner: c, o: o}
}

type observedCursor struct {
	inner Cursor
	o     CursorObserver
}

func (c *observedCursor) At() *Snapshot       { return c.inner.At() }
func (c *observedCursor) Time() time.Duration { return c.inner.Time() }
func (c *observedCursor) Step() time.Duration { return c.inner.Step() }
func (c *observedCursor) Close()              { c.inner.Close() }

func (c *observedCursor) Advance() *Snapshot {
	s := c.inner.Advance()
	c.o.Tick(c.inner.Time())
	return s
}

func (c *observedCursor) AdvanceTo(t time.Duration) *Snapshot {
	s := c.inner.AdvanceTo(t)
	c.o.Tick(c.inner.Time())
	return s
}
