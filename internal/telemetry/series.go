package telemetry

import (
	"sync"
	"time"
)

// The windowed series collector turns the registry's cumulative counters and
// histograms into a time-resolved view: a ring of fixed-size windows keyed by
// simulation time, each carrying the counter deltas and per-window histogram
// quantiles accumulated while the sim clock was inside it. It rides the sweep
// cursor — consumers call Tick with the cursor's sim time after every
// advance — so a diurnal traffic dip or a fault-epoch p99 spike shows up in
// the window where it happened instead of vanishing into end-of-run
// aggregates.
//
// Attribution semantics: all registry activity observed between two ticks is
// attributed to the window containing the *earlier* tick's sim time, because
// requests resolved against a snapshot at time t happen "at" t no matter how
// long the wall-clock batch takes. Ticks that move backwards (a later
// experiment restarting its cursor at time zero) fold into the open window
// rather than rewinding, so the invariant that per-window deltas sum exactly
// to the aggregate counters holds across a whole multi-experiment run.

// Defaults for NewSeriesCollector; non-positive arguments clamp to these.
const (
	// DefaultSeriesWindow is the sim-time width of one window.
	DefaultSeriesWindow = time.Minute
	// DefaultMaxWindows bounds the window ring.
	DefaultMaxWindows = 512
)

// SeriesWindow is one closed (or still-open) window of metric deltas.
type SeriesWindow struct {
	// Index is the window's ordinal: floor(simTime / window width).
	Index int64 `json:"index"`
	// StartNs/EndNs bound the window in sim time. An open window's EndNs is
	// the last tick observed, not the window's nominal right edge.
	StartNs time.Duration `json:"startNs"`
	EndNs   time.Duration `json:"endNs"`
	// Open marks the trailing partially-filled window of a live snapshot.
	Open bool `json:"open,omitempty"`
	// Counters holds the per-window counter deltas; zero deltas are omitted,
	// so an empty window carries no entries at all.
	Counters []CounterValue `json:"counters,omitempty"`
	// Histograms holds per-window histogram activity with quantiles computed
	// from the window's own bucket deltas, not the cumulative state.
	Histograms []WindowedHistogram `json:"histograms,omitempty"`
}

// WindowedHistogram is one histogram's activity within a single window.
type WindowedHistogram struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
	P50    float64           `json:"p50"`
	P95    float64           `json:"p95"`
	P99    float64           `json:"p99"`
}

// SeriesSnapshot is the JSON form of the collector's state.
type SeriesSnapshot struct {
	WindowNs time.Duration `json:"windowNs"`
	// DroppedWindows counts windows evicted from the ring; when non-zero the
	// sum-of-deltas-equals-aggregate invariant no longer covers the artifact.
	DroppedWindows int            `json:"droppedWindows,omitempty"`
	Windows        []SeriesWindow `json:"windows"`
}

// histCapture is one histogram's state at a capture point.
type histCapture struct {
	bounds []float64 // shared with the live histogram; never written
	counts []int64
	sum    float64
}

// seriesCapture is a point-in-time copy of every counter and histogram,
// keyed so deltas survive instruments registered between captures (an
// instrument missing from the base capture has an implicit zero baseline).
type seriesCapture struct {
	keys     []metricKind
	counters map[metricKey]int64
	hists    map[metricKey]histCapture
}

// captureSeries copies the registry's counter values and histogram bucket
// states under the registry lock, in sorted order. Gauges are skipped:
// deltas of point-in-time values are not meaningful, and the live gauge
// surface is already served by /metrics.
func (r *Registry) captureSeries() seriesCapture {
	if r == nil {
		return seriesCapture{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := seriesCapture{
		keys:     r.sortedKeysLocked(),
		counters: make(map[metricKey]int64),
		hists:    make(map[metricKey]histCapture),
	}
	for _, mk := range c.keys {
		switch mk.kind {
		case 0:
			c.counters[mk.key] = r.counters[mk.key].Value()
		case 2:
			h := r.hists[mk.key]
			c.hists[mk.key] = histCapture{bounds: h.bounds, counts: h.buckets(), sum: h.Sum()}
		}
	}
	return c
}

// SeriesCollector accumulates windowed metric deltas; see the package-level
// discussion above. A nil *SeriesCollector is a valid no-op receiver, so
// consumers tick unconditionally. Safe for concurrent use — the introspection
// server snapshots it while a sweep is still advancing.
type SeriesCollector struct {
	reg    *Registry
	window time.Duration
	max    int

	mu      sync.Mutex
	started bool
	curT    time.Duration // sim time of the last tick
	baseIdx int64         // index of the open window
	base    seriesCapture // registry state when the open window started
	windows []SeriesWindow
	dropped int
}

// NewSeriesCollector creates a collector over a registry. Non-positive
// window or maxWindows clamp to the defaults. The baseline capture happens
// here, so for exact delta accounting the collector should be created before
// the run's first request — cmd/spacecdn wires it right after telemetry.New.
// Returns nil (a valid no-op collector) for a nil registry.
func NewSeriesCollector(reg *Registry, window time.Duration, maxWindows int) *SeriesCollector {
	if reg == nil {
		return nil
	}
	if window <= 0 {
		window = DefaultSeriesWindow
	}
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	return &SeriesCollector{
		reg:    reg,
		window: window,
		max:    maxWindows,
		base:   reg.captureSeries(),
	}
}

// Window returns the configured window width (0 for a nil collector).
func (sc *SeriesCollector) Window() time.Duration {
	if sc == nil {
		return 0
	}
	return sc.window
}

// Tick reports the cursor's sim time after an advance. The first tick aligns
// the open window; later ticks that cross one or more window boundaries close
// the open window (attributing all activity since its start), emit empty
// windows for any fully-skipped indices, and start a new open window. A tick
// at or before the current time folds into the open window.
func (sc *SeriesCollector) Tick(t time.Duration) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.started {
		sc.started = true
		sc.curT = t
		sc.baseIdx = int64(t / sc.window)
		return
	}
	if t <= sc.curT {
		return
	}
	if idx := int64(t / sc.window); idx > sc.baseIdx {
		sc.rollLocked(idx)
	}
	sc.curT = t
}

// rollLocked closes the open window against a fresh capture, emits empty
// windows for skipped indices, and re-bases at newIdx.
func (sc *SeriesCollector) rollLocked(newIdx int64) {
	now := sc.reg.captureSeries()
	closed := sc.deltaWindowLocked(now)
	closed.EndNs = time.Duration(sc.baseIdx+1) * sc.window
	sc.appendLocked(closed)
	for idx := sc.baseIdx + 1; idx < newIdx; idx++ {
		sc.appendLocked(SeriesWindow{
			Index:   idx,
			StartNs: time.Duration(idx) * sc.window,
			EndNs:   time.Duration(idx+1) * sc.window,
		})
	}
	sc.base = now
	sc.baseIdx = newIdx
}

// appendLocked pushes a closed window, evicting the oldest past the cap.
func (sc *SeriesCollector) appendLocked(w SeriesWindow) {
	if len(sc.windows) >= sc.max {
		n := copy(sc.windows, sc.windows[1:])
		sc.windows = sc.windows[:n]
		sc.dropped++
	}
	sc.windows = append(sc.windows, w)
}

// deltaWindowLocked builds the open window's content: now minus base, for
// every instrument now registered (instruments absent from base started at
// zero). Zero-delta entries are omitted.
func (sc *SeriesCollector) deltaWindowLocked(now seriesCapture) SeriesWindow {
	w := SeriesWindow{
		Index:   sc.baseIdx,
		StartNs: time.Duration(sc.baseIdx) * sc.window,
	}
	for _, mk := range now.keys {
		switch mk.kind {
		case 0:
			d := now.counters[mk.key] - sc.base.counters[mk.key]
			if d == 0 {
				continue
			}
			w.Counters = append(w.Counters, CounterValue{
				Name: mk.key.name, Labels: labelMap(mk.labels), Value: d,
			})
		case 2:
			hc := now.hists[mk.key]
			basec := sc.base.hists[mk.key] // zero value when newly registered
			deltas := make([]int64, len(hc.counts))
			count := int64(0)
			for i, n := range hc.counts {
				d := n
				if i < len(basec.counts) {
					d -= basec.counts[i]
				}
				deltas[i] = d
				count += d
			}
			if count == 0 {
				continue
			}
			w.Histograms = append(w.Histograms, WindowedHistogram{
				Name:   mk.key.name,
				Labels: labelMap(mk.labels),
				Count:  count,
				Sum:    hc.sum - basec.sum,
				P50:    quantileFromCounts(hc.bounds, deltas, 0.50),
				P95:    quantileFromCounts(hc.bounds, deltas, 0.95),
				P99:    quantileFromCounts(hc.bounds, deltas, 0.99),
			})
		}
	}
	return w
}

// Snapshot returns the closed windows plus the current open window (computed
// against a fresh capture, without advancing the collector), oldest first.
// Safe to call while ticks are still arriving.
func (sc *SeriesCollector) Snapshot() SeriesSnapshot {
	if sc == nil {
		return SeriesSnapshot{}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := SeriesSnapshot{
		WindowNs:       sc.window,
		DroppedWindows: sc.dropped,
		Windows:        append([]SeriesWindow(nil), sc.windows...),
	}
	if sc.started {
		open := sc.deltaWindowLocked(sc.reg.captureSeries())
		open.EndNs = sc.curT
		open.Open = true
		out.Windows = append(out.Windows, open)
	}
	return out
}
