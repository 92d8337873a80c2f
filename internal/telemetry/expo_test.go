package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func exampleTelemetry() *Telemetry {
	tel := New(1)
	r := tel.Registry()
	r.Counter("resolve_requests_total", "source", "overhead").Add(3)
	r.Counter("resolve_requests_total", "source", "ground").Add(1)
	r.Gauge("cache_used_bytes").Set(1 << 20)
	h := r.Histogram("resolve_rtt_ms", LatencyBucketsMs)
	for _, v := range []float64{4, 9, 22, 31, 180} {
		h.Observe(v)
	}
	tel.Traces().Add(RequestTrace{
		Seq: 1, Source: "overhead", Sat: 7, RTT: 9 * time.Millisecond,
		Spans: []Span{
			{Kind: SpanUplink, Dur: 6 * time.Millisecond},
			{Kind: SpanSched, Dur: 3 * time.Millisecond},
		},
	})
	return tel
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := exampleTelemetry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	cv, ok := snap.Counter("resolve_requests_total", map[string]string{"source": "overhead"})
	if !ok || cv.Value != 3 {
		t.Fatalf("overhead counter = %+v", cv)
	}
	hv, ok := snap.Histogram("resolve_rtt_ms")
	if !ok {
		t.Fatal("missing histogram")
	}
	if hv.Count != 5 || hv.P50 <= 0 || hv.P95 <= hv.P50 || hv.P99 < hv.P95 {
		t.Fatalf("histogram quantiles malformed: %+v", hv)
	}
	if hv.Buckets[len(hv.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket le = %q", hv.Buckets[len(hv.Buckets)-1].LE)
	}
	if len(snap.Traces) != 1 || snap.Traces[0].SpanSum() != snap.Traces[0].RTT {
		t.Fatalf("trace malformed: %+v", snap.Traces)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	tel := exampleTelemetry()
	a := tel.Snapshot()
	b := tel.Snapshot()
	for i := range a.Counters {
		if a.Counters[i].Name != b.Counters[i].Name {
			t.Fatal("counter order must be stable across snapshots")
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := exampleTelemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE resolve_requests_total counter",
		`resolve_requests_total{source="overhead"} 3`,
		"# TYPE cache_used_bytes gauge",
		"# TYPE resolve_rtt_ms histogram",
		`resolve_rtt_ms_bucket{le="+Inf"} 5`,
		"resolve_rtt_ms_count 5",
		"resolve_rtt_ms_sum 246",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per metric name even with several label sets.
	if n := strings.Count(out, "# TYPE resolve_requests_total"); n != 1 {
		t.Errorf("TYPE line repeated %d times", n)
	}
	// Buckets are cumulative and monotonically non-decreasing.
	if !strings.Contains(out, `resolve_rtt_ms_bucket{le="5"} 1`) {
		t.Errorf("cumulative bucket wrong:\n%s", out)
	}
}

// TestExpositionSortedOrder: artifacts are byte-stable across registration
// orders — two registries with the same instruments registered in opposite
// orders expose identical bytes, and the order is sorted (name, labels).
func TestExpositionSortedOrder(t *testing.T) {
	build := func(reverse bool) *Telemetry {
		tel := New(0)
		r := tel.Registry()
		names := [][2]string{{"zeta_total", "b"}, {"zeta_total", "a"}, {"alpha_total", "x"}}
		if reverse {
			names = [][2]string{{"alpha_total", "x"}, {"zeta_total", "a"}, {"zeta_total", "b"}}
		}
		for _, n := range names {
			r.Counter(n[0], "k", n[1]).Inc()
		}
		return tel
	}
	var fwd, rev bytes.Buffer
	if err := build(false).WritePrometheus(&fwd); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WritePrometheus(&rev); err != nil {
		t.Fatal(err)
	}
	if fwd.String() != rev.String() {
		t.Fatalf("exposition depends on registration order:\n--- fwd\n%s--- rev\n%s", fwd.String(), rev.String())
	}
	if a, z := strings.Index(fwd.String(), "alpha_total"), strings.Index(fwd.String(), "zeta_total"); a > z {
		t.Error("names not sorted")
	}
	snap := build(false).Snapshot()
	if snap.Counters[0].Name != "alpha_total" ||
		snap.Counters[1].Labels["k"] != "a" || snap.Counters[2].Labels["k"] != "b" {
		t.Fatalf("snapshot order wrong: %+v", snap.Counters)
	}
}

// TestPrometheusLabelEscaping: backslash, double quote and newline in label
// values must escape per the text exposition format, or a hostile object ID
// used as a label corrupts every scrape.
func TestPrometheusLabelEscaping(t *testing.T) {
	tel := New(0)
	tel.Registry().Counter("hostile_total", "path", "a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `hostile_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped exposition missing %q:\n%s", want, out)
	}
	// The raw newline must not survive into the value position: every line
	// is either a comment or ends in a number.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("exposition line split by unescaped newline: %q", line)
		}
	}
}

func TestCollectorRunsOnExposition(t *testing.T) {
	tel := New(0)
	r := tel.Registry()
	calls := 0
	r.RegisterCollector(func() {
		calls++
		r.Gauge("lazy").Set(float64(calls))
	})
	snap := tel.Snapshot()
	if calls != 1 {
		t.Fatalf("collector ran %d times", calls)
	}
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "lazy" && g.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("collector-set gauge missing: %+v", snap.Gauges)
	}
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("collector must run per exposition, got %d", calls)
	}
}

// TestWriteFileChoosesFormatByExtension: .prom and .txt get the Prometheus
// exposition byte for byte, any other extension the JSON snapshot.
func TestWriteFileChoosesFormatByExtension(t *testing.T) {
	tel := exampleTelemetry()
	var prom, js bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		want []byte
	}{
		{"m.prom", prom.Bytes()},
		{"m.txt", prom.Bytes()},
		{"m.json", js.Bytes()},
	} {
		path := filepath.Join(dir, tc.name)
		if err := tel.WriteFile(path); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: wrote\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
	if err := tel.WriteFile(filepath.Join(dir, "missing", "m.json")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
