//go:build ignore

// Command checkmetrics asserts the telemetry artifacts written by
// cmd/spacecdn are well-formed.
//
//	go run ./scripts/checkmetrics.go [-lifecycle] [-serve] METRICS.json [SERIES.json]
//
// METRICS.json (from -metrics-out) must parse as a telemetry.Snapshot with
// non-zero per-source request counters, an RTT histogram with ordered
// quantiles, and traces whose spans sum to their RTT within a microsecond.
//
// With -lifecycle, METRICS.json must additionally carry the content
// lifecycle counters: freshness-labelled serves (fresh and miss non-zero),
// a non-zero coalescing counter, and a purge propagation histogram with
// observations and ordered quantiles.
//
// With -serve, METRICS.json must additionally carry the spacecdnd daemon
// counters: non-zero serve_requests_total and serve_epoch_swaps_total, a
// balanced error/stale accounting, and a request-latency histogram with
// observations and ordered quantiles.
//
// SERIES.json (from -series-out), when given, must parse as a
// telemetry.SeriesSnapshot whose per-window counter deltas and histogram
// counts sum exactly to the aggregates in METRICS.json (skipped with a notice
// when windows were evicted from the ring). Used by scripts/verify.sh as the
// smoke and observe stages.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"spacecdn/internal/telemetry"
)

func main() {
	args := os.Args[1:]
	lifecycle, serve := false, false
	for len(args) > 0 {
		switch args[0] {
		case "-lifecycle":
			lifecycle = true
		case "-serve":
			serve = true
		default:
			goto parsed
		}
		args = args[1:]
	}
parsed:
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: checkmetrics [-lifecycle] [-serve] METRICS.json [SERIES.json]")
		os.Exit(2)
	}
	snap := checkMetrics(args[0])
	if lifecycle {
		checkLifecycle(snap)
	}
	if serve {
		checkServe(snap)
	}
	if len(args) > 1 {
		checkSeries(args[1], snap)
	}
}

// checkLifecycle asserts the content-lifecycle counters the lifecycle
// experiment must populate: freshness-labelled serves, coalescing, and the
// purge propagation histogram.
func checkLifecycle(snap telemetry.Snapshot) {
	serves := map[string]int64{}
	coalesced := int64(-1)
	for _, c := range snap.Counters {
		switch c.Name {
		case "lifecycle_serve_total":
			serves[c.Labels["freshness"]] = c.Value
		case "lifecycle_coalesced_total":
			coalesced = c.Value
		}
	}
	for _, want := range []string{"fresh", "miss"} {
		if serves[want] <= 0 {
			fail("lifecycle_serve_total{freshness=%s} = %d, want > 0", want, serves[want])
		}
	}
	if coalesced <= 0 {
		fail("lifecycle_coalesced_total = %d, want > 0", coalesced)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name != "lifecycle_purge_propagation_ms" {
			continue
		}
		found = true
		if h.Count <= 0 {
			fail("purge propagation histogram has no observations")
		}
		if !(h.P50 > 0 && h.P50 <= h.P95 && h.P95 <= h.P99) {
			fail("purge propagation quantiles malformed: p50=%v p95=%v p99=%v", h.P50, h.P95, h.P99)
		}
	}
	if !found {
		fail("missing histogram lifecycle_purge_propagation_ms")
	}
	fmt.Printf("checkmetrics: lifecycle OK (serves fresh=%d miss=%d stale=%d expired=%d, coalesced=%d)\n",
		serves["fresh"], serves["miss"], serves["stale-revalidate"], serves["expired"], coalesced)
}

// checkServe asserts the daemon counters the spacecdnd burst must populate:
// served requests, epoch swaps, and the request-latency histogram whose
// count accounts for every successful request.
func checkServe(snap telemetry.Snapshot) {
	vals := map[string]int64{}
	for _, c := range snap.Counters {
		if len(c.Labels) == 0 {
			vals[c.Name] = c.Value
		}
	}
	if vals["serve_requests_total"] <= 0 {
		fail("serve_requests_total = %d, want > 0", vals["serve_requests_total"])
	}
	if vals["serve_epoch_swaps_total"] <= 0 {
		fail("serve_epoch_swaps_total = %d, want > 0", vals["serve_epoch_swaps_total"])
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name != "serve_request_latency_ms" {
			continue
		}
		found = true
		if h.Count != vals["serve_requests_total"] {
			fail("serve latency histogram counts %d requests, counter says %d", h.Count, vals["serve_requests_total"])
		}
		if !(h.P50 >= 0 && h.P50 <= h.P95 && h.P95 <= h.P99) {
			fail("serve latency quantiles malformed: p50=%v p95=%v p99=%v", h.P50, h.P95, h.P99)
		}
	}
	if !found {
		fail("missing histogram serve_request_latency_ms")
	}
	fmt.Printf("checkmetrics: serve OK (%d requests, %d errors, %d epoch swaps, %d stale-epoch serves)\n",
		vals["serve_requests_total"], vals["serve_errors_total"],
		vals["serve_epoch_swaps_total"], vals["serve_stale_epoch_total"])
}

func checkMetrics(path string) telemetry.Snapshot {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("read: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fail("parse: %v", err)
	}

	for _, source := range []string{"overhead", "isl", "ground"} {
		found := false
		for _, c := range snap.Counters {
			if c.Name == "spacecdn_resolve_requests_total" && c.Labels["source"] == source {
				found = true
				if c.Value <= 0 {
					fail("requests{source=%s} = %d, want > 0", source, c.Value)
				}
			}
		}
		if !found {
			fail("missing counter spacecdn_resolve_requests_total{source=%s}", source)
		}
	}

	gotRTT := false
	for _, h := range snap.Histograms {
		if h.Name != "spacecdn_resolve_rtt_ms" {
			continue
		}
		gotRTT = true
		if h.Count <= 0 {
			fail("rtt histogram has no observations")
		}
		if !(h.P50 > 0 && h.P50 <= h.P95 && h.P95 <= h.P99) {
			fail("rtt quantiles malformed: p50=%v p95=%v p99=%v", h.P50, h.P95, h.P99)
		}
	}
	if !gotRTT {
		fail("missing histogram spacecdn_resolve_rtt_ms")
	}

	if len(snap.Traces) == 0 {
		fail("no traces sampled")
	}
	for _, tr := range snap.Traces {
		d := tr.SpanSum() - tr.RTT
		if d < -time.Microsecond || d > time.Microsecond {
			fail("trace %d: span sum off RTT by %v", tr.Seq, d)
		}
	}
	fmt.Printf("checkmetrics: OK (%d counters, %d histograms, %d traces)\n",
		len(snap.Counters), len(snap.Histograms), len(snap.Traces))
	return snap
}

// seriesKey renders a metric identity deterministically for delta/aggregate
// matching.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := name
	for _, k := range keys {
		s += fmt.Sprintf("|%s=%s", k, labels[k])
	}
	return s
}

func checkSeries(path string, snap telemetry.Snapshot) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("series read: %v", err)
	}
	var series telemetry.SeriesSnapshot
	if err := json.Unmarshal(data, &series); err != nil {
		fail("series parse: %v", err)
	}
	if series.WindowNs <= 0 {
		fail("series windowNs = %v, want > 0", series.WindowNs)
	}
	if len(series.Windows) == 0 {
		fail("series has no windows")
	}

	counterSums := map[string]int64{}
	histSums := map[string]int64{}
	for _, w := range series.Windows {
		for _, cv := range w.Counters {
			counterSums[seriesKey(cv.Name, cv.Labels)] += cv.Value
		}
		for _, wh := range w.Histograms {
			histSums[seriesKey(wh.Name, wh.Labels)] += wh.Count
		}
	}
	if series.DroppedWindows > 0 {
		// Evicted windows took their deltas with them; the exact-sum check
		// no longer applies, but presence checks above still ran.
		fmt.Printf("checkmetrics: series OK (%d windows, %d dropped — delta sums not checked)\n",
			len(series.Windows), series.DroppedWindows)
		return
	}
	for _, cv := range snap.Counters {
		if got := counterSums[seriesKey(cv.Name, cv.Labels)]; got != cv.Value {
			fail("counter %s: window deltas sum to %d, aggregate %d",
				seriesKey(cv.Name, cv.Labels), got, cv.Value)
		}
	}
	for _, hv := range snap.Histograms {
		if got := histSums[seriesKey(hv.Name, hv.Labels)]; got != hv.Count {
			fail("histogram %s: window counts sum to %d, aggregate %d",
				seriesKey(hv.Name, hv.Labels), got, hv.Count)
		}
	}
	fmt.Printf("checkmetrics: series OK (%d windows, deltas match aggregates)\n", len(series.Windows))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkmetrics: "+format+"\n", args...)
	os.Exit(1)
}
