package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "source", "isl")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "source", "isl"); again != c {
		t.Error("same name+labels must return the same counter handle")
	}
	if other := r.Counter("requests_total", "source", "ground"); other == c {
		t.Error("different labels must return a different counter")
	}

	g := r.Gauge("used_bytes")
	g.Set(10.5)
	g.Add(2)
	if got := g.Value(); math.Abs(got-12.5) > 1e-9 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Error("label order must not distinguish instruments")
	}
	defer func() {
		if recover() == nil {
			t.Error("odd label list must panic")
		}
	}()
	r.Counter("m", "only-key")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 50, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i)) // uniform 1..100
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5050) > 1e-6 {
		t.Fatalf("sum = %v", got)
	}
	// Uniform over 1..100: p50 ~ 50, p95 ~ 95, p99 ~ 99 (within a bucket).
	for _, tc := range []struct{ q, lo, hi float64 }{
		{0.50, 40, 60},
		{0.95, 85, 100},
		{0.99, 90, 100},
	} {
		got := h.Quantile(tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("q%.0f = %v, want in [%v,%v]", tc.q*100, got, tc.lo, tc.hi)
		}
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(1000) // overflow bucket
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want last finite bound 2", got)
	}
	h.Observe(1.5) // 1.5 ms -> second bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v must panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tel *Telemetry
	var sink *TraceSink
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.Observe(1000)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments must read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", HopBuckets) != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	r.RegisterCollector(func() {})
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if tel.Registry() != nil || tel.Traces() != nil {
		t.Error("nil telemetry must expose nil parts")
	}
	if _, ok := sink.Sample(); ok {
		t.Error("nil sink must never sample")
	}
	sink.Add(RequestTrace{})
	if sink.Traces() != nil || sink.Seen() != 0 || sink.Sampled() != 0 {
		t.Error("nil sink must read empty")
	}
}

// TestRegistryConcurrency exercises the registry under the race detector:
// concurrent handle lookups, updates, and expositions.
func TestRegistryConcurrency(t *testing.T) {
	tel := New(0.5)
	r := tel.Registry()
	r.RegisterCollector(func() { r.Gauge("collected").Set(1) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			c := r.Counter("ops_total", "src", "a")
			h := r.Histogram("lat_ms", LatencyBucketsMs)
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(float64(j % 100))
				r.Gauge("depth").Set(float64(j))
				if _, ok := tel.Traces().Sample(); ok {
					tel.Traces().Add(RequestTrace{Seq: uint64(j), Source: "a",
						Spans: []Span{{Kind: SpanUplink, Dur: time.Millisecond}}})
				}
				if j%100 == 0 {
					_ = tel.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := tel.Snapshot()
	cv, ok := snap.Counter("ops_total", map[string]string{"src": "a"})
	if !ok || cv.Value != 8*500 {
		t.Fatalf("ops_total = %+v, want 4000", cv)
	}
	hv, ok := snap.Histogram("lat_ms")
	if !ok || hv.Count != 8*500 {
		t.Fatalf("lat_ms count = %+v", hv)
	}
	if len(snap.Traces) == 0 {
		t.Error("expected sampled traces")
	}
}

func TestTelemetryBundle(t *testing.T) {
	tel := New(1)
	tel.Registry().Counter("a").Inc()
	tel.Traces().Add(RequestTrace{Seq: 1, Source: "overhead"})
	snap := tel.Snapshot()
	if len(snap.Counters) != 1 || len(snap.Traces) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
