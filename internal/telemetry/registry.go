package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spacecdn/internal/parallel"
)

// Counter is a monotonically increasing metric, striped so that cores
// counting at once write different cache lines (parallel.Striped): Value sums
// the stripes and is exact whichever stripe each Add hit. The zero value is
// ready to use; a nil *Counter is a valid no-op receiver.
type Counter struct {
	v parallel.Striped
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative deltas are ignored — counters
// only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.AddAt(parallel.StripeHint(), n)
	}
}

// AddAt is Add for a caller that owns a stripe index — per-goroutine state
// such as a serve.Scratch or a batch shard — and so skips the hint.
func (c *Counter) AddAt(stripe int, n int64) {
	if c != nil && n >= 0 {
		c.v.Add(stripe, n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric. The zero value is ready to use; a nil
// *Gauge is a valid no-op receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// addFloat adds delta to the float64 whose bits the word holds.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Default bucket bounds, chosen for the units this simulator measures in.
var (
	// LatencyBucketsMs spans client-observed (simulated) RTTs: sub-millisecond
	// ISL legs through bufferbloat-inflated sub-second round trips.
	LatencyBucketsMs = []float64{0.5, 1, 2.5, 5, 10, 15, 25, 40, 60, 80, 100, 150, 200, 300, 500, 1000}
	// WallBucketsMs spans wall-clock timings of the program itself, in
	// milliseconds: 1-2-5 steps from 1 µs (a served request is a few) to 1 s
	// (an epoch build is tens of ms at mega-constellation scale).
	WallBucketsMs = []float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
		1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
	}
	// ComputeBucketsUs spans path-computation wall times (microseconds): a
	// ground path priced over warm path trees takes 1–2 µs, a cold one
	// (trees settled from scratch) about 10 µs, a mega-constellation epoch's
	// worst case tens of milliseconds.
	ComputeBucketsUs = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
	// HopBuckets spans ISL hop counts.
	HopBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 15}
)

// Histogram is a fixed-bucket histogram with an overflow bucket, tracking
// count and sum for mean/rate math and estimating quantiles by linear
// interpolation within buckets. A nil *Histogram is a valid no-op receiver.
//
// Like Counter it is striped: each stripe is a private run of words — one
// count per bucket, then the bits of the stripe's float sum — so an Observe
// writes two words of one stripe and nothing process-wide. Readers merge:
// a bucket's count is its sum over stripes, Count the sum over buckets (there
// is no separate total to drift from them), Sum the sum of the stripe sums.
// Every word only grows, so successive reads never see a count go down.
type Histogram struct {
	bounds []float64       // ascending upper bounds; observations above fall in overflow
	stride int             // words from one stripe to the next
	cells  []atomic.Uint64 // parallel.Stripes runs of len(bounds)+1 counts and a sum
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics on empty or unsorted bounds (a construction bug).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	// Eight spare words (one cache line) after each stripe's used words keep
	// two stripes off one line wherever the allocator aligns the slice.
	stride := len(b) + 2 + 8
	return &Histogram{bounds: b, stride: stride, cells: make([]atomic.Uint64, parallel.Stripes*stride)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.ObserveAt(parallel.StripeHint(), v)
	}
}

// ObserveAt is Observe for a caller that owns a stripe index (see
// Counter.AddAt).
func (h *Histogram) ObserveAt(stripe int, v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	base := int(uint(stripe)%parallel.Stripes) * h.stride
	h.cells[base+i].Add(1)
	addFloat(&h.cells[base+len(h.bounds)+1], v)
}

// buckets returns the merged per-bucket counts: len(bounds) buckets plus the
// overflow slot.
func (h *Histogram) buckets() []int64 {
	out := make([]int64, len(h.bounds)+1)
	for s := 0; s < parallel.Stripes; s++ {
		for i := range out {
			out[i] += int64(h.cells[s*h.stride+i].Load())
		}
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	total := int64(0)
	for _, n := range h.buckets() {
		total += n
	}
	return total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	sum := 0.0
	for s := 0; s < parallel.Stripes; s++ {
		sum += math.Float64frombits(h.cells[s*h.stride+len(h.bounds)+1].Load())
	}
	return sum
}

// Quantile estimates the q-quantile (0..1) by linear interpolation within
// the bucket containing it. Observations in the overflow bucket report the
// last finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return quantileFromCounts(h.bounds, h.buckets(), q)
}

// quantileFromCounts is Quantile over explicit per-bucket counts (len(bounds)
// buckets plus one overflow slot) — the form the windowed series collector
// uses on counter deltas, sharing the live histogram's interpolation exactly.
func quantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := q * float64(total)
	cum := int64(0)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target && i < len(bounds) {
			// Interpolate inside bucket i, from the bound below it.
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := math.Max((target-float64(cum))/float64(n), 0)
			return lo + (bounds[i]-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// Label is one metric dimension, e.g. {Key: "source", Value: "isl"}.
type Label struct {
	Key, Value string
}

// metricKey uniquely identifies an instrument in a registry.
type metricKey struct {
	name   string
	labels string // canonical `k="v",k2="v2"` rendering, sorted by key
}

// Registry holds named instruments and hands out stable handles: requesting
// the same name and labels twice returns the same instrument. It is safe for
// concurrent use; a nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	hists      map[metricKey]*Histogram
	keys       []metricKind // registration order for deterministic exposition
	collectors []func()
}

type metricKind struct {
	key    metricKey
	labels []Label
	kind   int // 0 counter, 1 gauge, 2 histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
	}
}

// labelsOf canonicalizes alternating key/value pairs. It panics on an odd
// count (a wiring bug, caught in tests).
func labelsOf(kv []string) ([]Label, string) {
	if len(kv) == 0 {
		return nil, ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label key/value list %q", kv))
	}
	ls := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return ls, b.String()
}

// sortedKeysLocked returns the registry's instruments ordered by (name,
// canonical labels). Expositions iterate this instead of registration order,
// so two runs that register the same instruments — in whatever order their
// goroutines happened to interleave — produce byte-identical artifacts.
// Callers must hold r.mu.
func (r *Registry) sortedKeysLocked() []metricKind {
	out := make([]metricKind, len(r.keys))
	copy(out, r.keys)
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.name != out[j].key.name {
			return out[i].key.name < out[j].key.name
		}
		return out[i].key.labels < out[j].key.labels
	})
	return out
}

// Counter returns the counter registered under name and label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	ls, rendered := labelsOf(kv)
	k := metricKey{name: name, labels: rendered}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[k]; ok {
		return c
	}
	c := &Counter{}
	r.counters[k] = c
	r.keys = append(r.keys, metricKind{key: k, labels: ls, kind: 0})
	return c
}

// Gauge returns the gauge registered under name and label pairs, creating it
// on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	ls, rendered := labelsOf(kv)
	k := metricKey{name: name, labels: rendered}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[k]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[k] = g
	r.keys = append(r.keys, metricKind{key: k, labels: ls, kind: 1})
	return g
}

// Histogram returns the histogram registered under name and label pairs,
// creating it with the given bucket bounds on first use (later bounds are
// ignored — the first registration wins).
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls, rendered := labelsOf(kv)
	k := metricKey{name: name, labels: rendered}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[k]; ok {
		return h
	}
	h := NewHistogram(bounds)
	r.hists[k] = h
	r.keys = append(r.keys, metricKind{key: k, labels: ls, kind: 2})
	return h
}

// RegisterCollector adds a callback invoked before every exposition
// (Snapshot or WritePrometheus) so point-in-time sources — cache stats,
// routing op counts — can refresh their gauges lazily instead of on every
// update.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// collect runs the registered collectors outside the registry lock (they
// typically call back into Counter/Gauge).
func (r *Registry) collect() {
	r.mu.Lock()
	fns := make([]func(), len(r.collectors))
	copy(fns, r.collectors)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}
