package telemetry

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestStripedCounterHistogramExact: G goroutines × M updates through every
// entry point — hinted and caller-striped — read back as exactly G·M in the
// counter, in Count, in each bucket and in Sum. Observed values are small
// integers, so the float sum is exact in any order.
func TestStripedCounterHistogramExact(t *testing.T) {
	const goroutines, updates = 8, 4000
	r := NewRegistry()
	c := r.Counter("ops_total")
	bounds := []float64{0, 1, 2}
	h := r.Histogram("v", bounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				v := float64(i % 4) // buckets 0, 1, 2 and overflow, evenly
				if i%2 == 0 {
					c.Inc()
					h.Observe(v)
				} else {
					c.AddAt(g, 1)
					h.ObserveAt(g, v)
				}
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * updates
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	for i, n := range h.buckets() {
		if n != total/4 {
			t.Errorf("bucket %d = %d, want %d", i, n, total/4)
		}
	}
	if got, want := h.Sum(), float64(total/4*(0+1+2+3)); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	hv, _ := r.Snapshot().Histogram("v")
	if hv.Count != total || hv.Buckets[len(hv.Buckets)-1].Count != total {
		t.Errorf("snapshot count %d / +Inf bucket %d, want %d", hv.Count, hv.Buckets[len(hv.Buckets)-1].Count, total)
	}
}

// TestHistogramScrapeMonotoneUnderWrites: a WritePrometheus racing the
// writers never reports a counter, a cumulative bucket or a _count lower
// than the previous scrape did, and within one scrape _count equals the
// +Inf bucket.
func TestHistogramScrapeMonotoneUnderWrites(t *testing.T) {
	const goroutines, updates = 4, 20000
	r := NewRegistry()
	c := r.Counter("ops_total")
	h := r.Histogram("lat_ms", WallBucketsMs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				c.AddAt(g, 1)
				h.ObserveAt(g, float64(i%1000)/100)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := map[string]int64{}
	for scrapes := 0; ; scrapes++ {
		finished := false
		select {
		case <-done:
			finished = true // one more scrape, after the writers quiesced
		default:
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		seen := map[string]int64{}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "lat_ms_sum") {
				continue
			}
			series, val, _ := strings.Cut(line, " ")
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("scrape line %q: %v", line, err)
			}
			if n < last[series] {
				t.Fatalf("scrape %d: %s went down, %d after %d", scrapes, series, n, last[series])
			}
			seen[series] = n
		}
		if seen[`lat_ms_bucket{le="+Inf"}`] != seen["lat_ms_count"] {
			t.Fatalf("scrape %d: +Inf bucket %d != _count %d", scrapes, seen[`lat_ms_bucket{le="+Inf"}`], seen["lat_ms_count"])
		}
		last = seen
		if finished {
			break
		}
	}
	if last["ops_total"] != goroutines*updates || last["lat_ms_count"] != goroutines*updates {
		t.Fatalf("final scrape: ops_total %d, lat_ms_count %d, want %d", last["ops_total"], last["lat_ms_count"], goroutines*updates)
	}
}

// TestWallBucketsResolveMicroseconds: the wall-clock bounds put a
// few-microsecond request in a bucket of its own scale.
func TestWallBucketsResolveMicroseconds(t *testing.T) {
	if lo, hi := WallBucketsMs[0], WallBucketsMs[len(WallBucketsMs)-1]; lo != 0.001 || hi != 1000 {
		t.Fatalf("wall buckets span [%v, %v] ms, want [0.001, 1000]", lo, hi)
	}
	h := NewHistogram(WallBucketsMs)
	for i := 0; i < 1000; i++ {
		h.Observe(0.003) // 3 µs
	}
	if p50 := h.Quantile(0.5); p50 < 0.002 || p50 > 0.005 {
		t.Fatalf("p50 of 3 µs observations = %v ms, want within (0.002, 0.005]", p50)
	}
}
