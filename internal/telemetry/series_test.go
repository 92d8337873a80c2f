package telemetry

import (
	"testing"
	"time"
)

// seriesCounterSum totals one counter's deltas across every window (closed
// and open) of a snapshot.
func seriesCounterSum(snap SeriesSnapshot, name string) int64 {
	var sum int64
	for _, w := range snap.Windows {
		for _, cv := range w.Counters {
			if cv.Name == name {
				sum += cv.Value
			}
		}
	}
	return sum
}

func TestSeriesWindowBoundaryAlignment(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	sc := NewSeriesCollector(r, time.Minute, 0)

	sc.Tick(0)
	c.Add(3)
	sc.Tick(30 * time.Second) // same window: no roll
	c.Add(2)
	sc.Tick(90 * time.Second) // crosses the 60s boundary: closes window 0
	c.Add(4)

	snap := sc.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("windows = %d, want 2 (one closed, one open): %+v", len(snap.Windows), snap.Windows)
	}
	w0, w1 := snap.Windows[0], snap.Windows[1]
	if w0.Index != 0 || w0.StartNs != 0 || w0.EndNs != time.Minute || w0.Open {
		t.Errorf("closed window malformed: %+v", w0)
	}
	// Everything recorded before the boundary-crossing tick lands in window 0.
	if len(w0.Counters) != 1 || w0.Counters[0].Value != 5 {
		t.Errorf("window 0 counters = %+v, want one delta of 5", w0.Counters)
	}
	if w1.Index != 1 || !w1.Open || w1.StartNs != time.Minute || w1.EndNs != 90*time.Second {
		t.Errorf("open window malformed: %+v", w1)
	}
	if len(w1.Counters) != 1 || w1.Counters[0].Value != 4 {
		t.Errorf("open window counters = %+v, want one delta of 4", w1.Counters)
	}
}

func TestSeriesEmptyWindowsOnJump(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	sc := NewSeriesCollector(r, time.Minute, 0)
	sc.Tick(0)
	c.Inc()
	sc.Tick(5 * time.Minute) // skips windows 1..4 entirely

	snap := sc.Snapshot()
	if len(snap.Windows) != 6 {
		t.Fatalf("windows = %d, want 6 (indices 0-5)", len(snap.Windows))
	}
	for i, w := range snap.Windows[1:5] {
		if len(w.Counters) != 0 || len(w.Histograms) != 0 {
			t.Errorf("skipped window %d not empty: %+v", i+1, w)
		}
		if w.Index != int64(i+1) || w.StartNs != time.Duration(i+1)*time.Minute {
			t.Errorf("skipped window %d misaligned: %+v", i+1, w)
		}
	}
	if snap.Windows[0].Counters[0].Value != 1 {
		t.Errorf("window 0 = %+v, want the pre-jump increment", snap.Windows[0])
	}
}

// TestSeriesDeltasSumToAggregate pins the collector's core invariant: summing
// a counter's per-window deltas (including the open window) reproduces the
// end-of-run aggregate exactly, even across backwards ticks and a baseline
// predating the collector.
func TestSeriesDeltasSumToAggregate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Add(10) // pre-collector activity must not leak into the windows
	sc := NewSeriesCollector(r, time.Minute, 0)

	sc.Tick(0)
	times := []time.Duration{
		20 * time.Second, 70 * time.Second, 3 * time.Minute,
		0, // a later experiment restarting its cursor: folds into the open window
		45 * time.Second, 6 * time.Minute,
	}
	var added int64
	for i, at := range times {
		n := int64(i + 1)
		c.Add(n)
		added += n
		sc.Tick(at)
	}
	c.Add(100) // post-last-tick activity belongs to the open window
	added += 100

	snap := sc.Snapshot()
	if got := seriesCounterSum(snap, "reqs_total"); got != added {
		t.Fatalf("sum of window deltas = %d, want %d (aggregate %d minus baseline 10)",
			got, added, c.Value())
	}
	if c.Value() != added+10 {
		t.Fatalf("aggregate = %d, want %d", c.Value(), added+10)
	}
}

func TestSeriesWindowedHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt_ms", LatencyBucketsMs)
	sc := NewSeriesCollector(r, time.Minute, 0)

	sc.Tick(0)
	for i := 0; i < 100; i++ {
		h.Observe(4) // fast window
	}
	sc.Tick(90 * time.Second)
	for i := 0; i < 100; i++ {
		h.Observe(180) // slow window
	}

	snap := sc.Snapshot()
	if len(snap.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(snap.Windows))
	}
	var fast, slow WindowedHistogram
	if n := len(snap.Windows[0].Histograms); n != 1 {
		t.Fatalf("window 0 histograms = %d, want 1", n)
	}
	fast = snap.Windows[0].Histograms[0]
	slow = snap.Windows[1].Histograms[0]
	if fast.Count != 100 || slow.Count != 100 {
		t.Fatalf("window counts = %d/%d, want 100/100", fast.Count, slow.Count)
	}
	// Per-window quantiles come from the window's own bucket deltas: the fast
	// window's p99 must sit at or below the 5ms bucket edge while the slow
	// window's p50 clears 100ms — the cumulative histogram would blur both.
	if fast.P99 > 5 {
		t.Errorf("fast window p99 = %v, want <= 5 (bucket edge)", fast.P99)
	}
	if slow.P50 < 100 {
		t.Errorf("slow window p50 = %v, want >= 100", slow.P50)
	}
	if fast.Sum != 400 || slow.Sum != 18000 {
		t.Errorf("window sums = %v/%v, want 400/18000", fast.Sum, slow.Sum)
	}
	// Summed per-window counts reproduce the aggregate.
	if total := fast.Count + slow.Count; total != h.Count() {
		t.Errorf("summed window counts %d != aggregate %d", total, h.Count())
	}
}

// TestSeriesLateRegisteredInstrument: an instrument registered after the
// collector's baseline capture has an implicit zero baseline, so its deltas
// still account exactly.
func TestSeriesLateRegisteredInstrument(t *testing.T) {
	r := NewRegistry()
	sc := NewSeriesCollector(r, time.Minute, 0)
	sc.Tick(0)
	c := r.Counter("late_total")
	c.Add(7)
	h := r.Histogram("late_ms", LatencyBucketsMs)
	h.Observe(4)
	sc.Tick(2 * time.Minute)

	snap := sc.Snapshot()
	if got := seriesCounterSum(snap, "late_total"); got != 7 {
		t.Errorf("late counter window sum = %d, want 7", got)
	}
	var histCount int64
	for _, w := range snap.Windows {
		for _, wh := range w.Histograms {
			if wh.Name == "late_ms" {
				histCount += wh.Count
			}
		}
	}
	if histCount != 1 {
		t.Errorf("late histogram window count = %d, want 1", histCount)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	sc := NewSeriesCollector(r, time.Minute, 2)
	sc.Tick(0)
	for i := 1; i <= 5; i++ {
		c.Inc()
		sc.Tick(time.Duration(i) * time.Minute)
	}
	snap := sc.Snapshot()
	if snap.DroppedWindows != 3 {
		t.Errorf("dropped = %d, want 3", snap.DroppedWindows)
	}
	// 2 retained closed windows plus the open one.
	if len(snap.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(snap.Windows))
	}
	if snap.Windows[0].Index != 3 || snap.Windows[1].Index != 4 {
		t.Errorf("retained windows = %d,%d, want 3,4 (oldest evicted first)",
			snap.Windows[0].Index, snap.Windows[1].Index)
	}
}

func TestSeriesNilSafety(t *testing.T) {
	var sc *SeriesCollector
	sc.Tick(time.Minute)
	if snap := sc.Snapshot(); len(snap.Windows) != 0 || snap.WindowNs != 0 {
		t.Errorf("nil collector snapshot = %+v, want zero", snap)
	}
	if sc.Window() != 0 {
		t.Errorf("nil collector window = %v", sc.Window())
	}
	if NewSeriesCollector(nil, time.Minute, 0) != nil {
		t.Error("nil registry must yield a nil (no-op) collector")
	}
}

func TestSeriesDefaultClamps(t *testing.T) {
	sc := NewSeriesCollector(NewRegistry(), 0, -1)
	if sc.Window() != DefaultSeriesWindow {
		t.Errorf("window = %v, want default %v", sc.Window(), DefaultSeriesWindow)
	}
	if sc.max != DefaultMaxWindows {
		t.Errorf("max = %d, want default %d", sc.max, DefaultMaxWindows)
	}
}
