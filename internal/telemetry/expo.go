package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is the JSON exposition form: every registered instrument's
// current value plus the sampled traces. Values are plain Go types so the
// artifact round-trips through encoding/json without custom decoders.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Traces     []RequestTrace   `json:"traces,omitempty"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketCount is one cumulative histogram bucket. LE is the upper bound
// rendered as a string ("+Inf" for the overflow bucket) because JSON has no
// infinity literal.
type BucketCount struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramValue is one histogram's snapshot, with pre-computed latency
// quantiles.
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets []BucketCount     `json:"buckets"`
}

// Counter returns the named counter's snapshot, matching labels as a subset
// (an empty want matches the first counter with the name).
func (s Snapshot) Counter(name string, want map[string]string) (CounterValue, bool) {
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		if labelsMatch(c.Labels, want) {
			return c, true
		}
	}
	return CounterValue{}, false
}

// Histogram returns the named histogram's snapshot.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures every instrument in sorted (name, labels) order, so two
// runs registering the same instruments produce byte-identical artifacts
// regardless of registration interleaving.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	for _, mk := range r.sortedKeysLocked() {
		labels := labelMap(mk.labels)
		switch mk.kind {
		case 0:
			snap.Counters = append(snap.Counters, CounterValue{
				Name: mk.key.name, Labels: labels, Value: r.counters[mk.key].Value(),
			})
		case 1:
			snap.Gauges = append(snap.Gauges, GaugeValue{
				Name: mk.key.name, Labels: labels, Value: r.gauges[mk.key].Value(),
			})
		case 2:
			// One merged read feeds the count, the buckets and the quantiles,
			// so they agree with each other even while observers run.
			h := r.hists[mk.key]
			counts := h.buckets()
			hv := HistogramValue{
				Name: mk.key.name, Labels: labels, Sum: h.Sum(),
				P50: quantileFromCounts(h.bounds, counts, 0.50),
				P95: quantileFromCounts(h.bounds, counts, 0.95),
				P99: quantileFromCounts(h.bounds, counts, 0.99),
			}
			for i, n := range counts {
				hv.Count += n
				hv.Buckets = append(hv.Buckets, BucketCount{LE: h.le(i), Count: hv.Count})
			}
			snap.Histograms = append(snap.Histograms, hv)
		}
	}
	return snap
}

// WriteJSON writes the registry snapshot (without traces) as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return writeJSON(w, r.Snapshot())
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WritePrometheus writes every instrument in the Prometheus text exposition
// format (counters, gauges, and histograms with cumulative le buckets, _sum
// and _count series), in sorted (name, labels) order so scrapes and artifact
// diffs are byte-stable across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	typed := map[string]bool{} // one # TYPE line per metric name
	for _, mk := range r.sortedKeysLocked() {
		name, labels := mk.key.name, promLabels(mk.labels)
		switch mk.kind {
		case 0:
			if err := typeLine(w, typed, name, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name, labels), r.counters[mk.key].Value()); err != nil {
				return err
			}
		case 1:
			if err := typeLine(w, typed, name, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %v\n", seriesName(name, labels), r.gauges[mk.key].Value()); err != nil {
				return err
			}
		case 2:
			if err := typeLine(w, typed, name, "histogram"); err != nil {
				return err
			}
			// _count is the last cumulative bucket of the same merged read, so
			// a scrape racing observers still satisfies +Inf == _count.
			h := r.hists[mk.key]
			cum := int64(0)
			for i, n := range h.buckets() {
				cum += n
				bl := fmt.Sprintf("le=%q", h.le(i))
				if labels != "" {
					bl = labels + "," + bl
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, bl, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %v\n", seriesName(name+"_sum", labels), h.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// le renders bucket i's upper bound as an exposition label ("+Inf" for the
// overflow bucket).
func (h *Histogram) le(i int) string {
	if i >= len(h.bounds) {
		return "+Inf"
	}
	return strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
}

func typeLine(w io.Writer, typed map[string]bool, name, kind string) error {
	if typed[name] {
		return nil
	}
	typed[name] = true
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// promLabels renders a label set for the text exposition. Values are escaped
// per the exposition format — backslash, double-quote and newline only. Go's
// %q (used for the registry's internal canonical key) escapes more (tabs,
// non-ASCII), which a Prometheus scraper would un-escape incorrectly, so the
// wire rendering is built here instead of reusing the key string.
func promLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes the three characters the Prometheus text format
// reserves in label values: backslash, double-quote and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
