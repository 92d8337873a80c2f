package experiments

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"spacecdn/internal/telemetry"
)

// labelKey renders a label map deterministically for cross-checking window
// deltas against aggregates.
func labelKey(name string, labels map[string]string) string {
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

// TestResolveWorkloadSeries runs the resolve workload with the windowed
// series attached and checks the end-to-end invariants: per-window counter
// deltas sum exactly to the aggregate counters, and windowed histogram counts
// sum to the aggregate count.
func TestResolveWorkloadSeries(t *testing.T) {
	s := testSuite(t)
	tel := telemetry.New(0.05)
	sc := telemetry.NewSeriesCollector(tel.Registry(), time.Minute, 0)
	tel.SetSeries(sc)
	s.SetTelemetry(tel)
	defer func() { s.SetTelemetry(nil); s.Env.LSN.SetTelemetry(nil) }()

	res, err := s.ResolveWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("workload resolved nothing")
	}

	series := sc.Snapshot()
	if len(series.Windows) < 2 {
		t.Fatalf("windows = %d, want at least two (the workload spans sim minutes)", len(series.Windows))
	}
	if series.DroppedWindows != 0 {
		t.Fatalf("dropped windows = %d; the invariant check needs the full ring", series.DroppedWindows)
	}

	// Sum every counter's window deltas and compare against the aggregates.
	counterSums := map[string]int64{}
	histSums := map[string]int64{}
	for _, w := range series.Windows {
		for _, cv := range w.Counters {
			counterSums[labelKey(cv.Name, cv.Labels)] += cv.Value
		}
		for _, wh := range w.Histograms {
			histSums[labelKey(wh.Name, wh.Labels)] += wh.Count
			if wh.Count > 0 && (wh.P50 < 0 || wh.P99 < wh.P50) {
				t.Errorf("window %d %s quantiles malformed: %+v", w.Index, wh.Name, wh)
			}
		}
	}
	agg := tel.Snapshot()
	for _, cv := range agg.Counters {
		if got := counterSums[labelKey(cv.Name, cv.Labels)]; got != cv.Value {
			t.Errorf("counter %s: window deltas sum to %d, aggregate %d",
				labelKey(cv.Name, cv.Labels), got, cv.Value)
		}
	}
	for _, hv := range agg.Histograms {
		if got := histSums[labelKey(hv.Name, hv.Labels)]; got != hv.Count {
			t.Errorf("histogram %s: window counts sum to %d, aggregate %d",
				labelKey(hv.Name, hv.Labels), got, hv.Count)
		}
	}
}
