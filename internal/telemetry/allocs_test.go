package telemetry

import (
	"testing"
	"time"
)

// The disabled-telemetry fast path is a nil-receiver call chain; it must not
// allocate, or "telemetry off" would still tax million-request runs.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var sink *TraceSink
	var sc *SeriesCollector
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		h.Observe(3)
		h.Observe(1)
		sc.Tick(time.Minute)
		if _, ok := sink.Sample(); ok {
			t.Fatal("nil sink sampled")
		}
	}); n != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", n)
	}
}

// A series tick that stays inside the open window (the overwhelmingly common
// case — many AdvanceTo calls per window) is a mutex-guarded comparison only.
func TestSeriesSameWindowTickZeroAllocs(t *testing.T) {
	sc := NewSeriesCollector(NewRegistry(), time.Minute, 0)
	sc.Tick(0)
	if n := testing.AllocsPerRun(1000, func() {
		sc.Tick(30 * time.Second)
	}); n != 0 {
		t.Fatalf("same-window tick allocates %v per op, want 0", n)
	}
}

// Enabled instruments on the unsampled path (the common case at 1% tracing)
// must also stay allocation-free: atomics only.
func TestEnabledUnsampledPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("depth")
	h := r.Histogram("lat_ms", LatencyBucketsMs)
	sink := NewTraceSink(0.0001, 8)
	sink.Sample() // consume the always-sampled first request
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Observe(12.5)
		if _, ok := sink.Sample(); ok {
			t.Fatal("unexpected sample inside measured window")
		}
	}); n != 0 {
		t.Fatalf("enabled unsampled path allocates %v per op, want 0", n)
	}
}
