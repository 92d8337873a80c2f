// Package telemetry is the simulator's observability core: a zero-dependency,
// concurrency-safe metrics registry (counters, gauges, fixed-bucket latency
// histograms with quantile estimation) plus lightweight per-request tracing
// (typed spans retained in a sampled ring buffer), with two exposition
// formats — Prometheus-style text and a JSON snapshot.
//
// The package is built for hot paths that must stay fast when observed and
// free when not:
//
//   - every receiver is nil-safe: a nil *Counter, *Histogram, *TraceSink or
//     *Telemetry is a valid no-op, so call sites need no enable/disable
//     branches beyond holding a nil handle;
//   - metric handles are looked up once at wiring time and then updated with
//     atomics only — no map lookups, locks or allocations per observation;
//   - trace spans are only materialized for sampled requests.
//
// Wiring follows the handle pattern: a subsystem receives a *Telemetry,
// resolves its named instruments from the Registry once, and keeps the
// returned pointers. See spacecdn.System.SetTelemetry for the canonical use.
package telemetry

import (
	"io"
	"os"
	"strings"
	"sync/atomic"
)

// Telemetry bundles a metrics registry with a trace sink — the unit a
// subsystem accepts to become observable — plus an optional windowed series
// collector, attached by the consumer driving a sim-time cursor. A nil
// *Telemetry disables everything it would instrument.
type Telemetry struct {
	reg  *Registry
	sink *TraceSink

	series atomic.Pointer[SeriesCollector]
}

// DefaultTraceCapacity is the ring-buffer size used by New.
const DefaultTraceCapacity = 512

// New creates a Telemetry with a fresh registry and a trace sink sampling
// the given fraction of requests (0 disables tracing, 1 traces every
// request) into a DefaultTraceCapacity ring.
func New(sampleRate float64) *Telemetry {
	return &Telemetry{
		reg:  NewRegistry(),
		sink: NewTraceSink(sampleRate, DefaultTraceCapacity),
	}
}

// Registry returns the metrics registry (nil for a nil Telemetry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Traces returns the trace sink (nil for a nil Telemetry).
func (t *Telemetry) Traces() *TraceSink {
	if t == nil {
		return nil
	}
	return t.sink
}

// SetSeries attaches a windowed series collector to the bundle; sweep-driven
// consumers discover it through Series and tick it on every cursor advance.
func (t *Telemetry) SetSeries(sc *SeriesCollector) {
	if t == nil {
		return
	}
	t.series.Store(sc)
}

// Series returns the attached series collector (nil when none, or for a nil
// Telemetry) — and a nil *SeriesCollector is itself a valid no-op.
func (t *Telemetry) Series() *SeriesCollector {
	if t == nil {
		return nil
	}
	return t.series.Load()
}

// WriteSeriesJSON writes the windowed series snapshot as indented JSON, the
// content of TELEMETRY_series.json and /series.
func (t *Telemetry) WriteSeriesJSON(w io.Writer) error {
	return writeJSON(w, t.Series().Snapshot())
}

// Snapshot captures the registry and the sampled traces as one JSON-ready
// artifact.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	snap := t.reg.Snapshot()
	snap.Traces = t.sink.Traces()
	return snap
}

// WriteJSON writes the full snapshot (metrics and traces) as indented JSON.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	return writeJSON(w, t.Snapshot())
}

// WritePrometheus writes the registry in Prometheus text exposition format.
// Traces have no Prometheus representation and are omitted.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return t.Registry().WritePrometheus(w)
}

// WriteFile exports the telemetry to path, choosing the format from the file
// extension: Prometheus text for .prom/.txt, the JSON snapshot otherwise.
func (t *Telemetry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".prom"), strings.HasSuffix(path, ".txt"):
		err = t.WritePrometheus(f)
	default:
		err = t.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
