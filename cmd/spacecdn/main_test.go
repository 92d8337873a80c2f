package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spacecdn/internal/telemetry"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "capacity", Fast: true, Seed: 1, TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "storage arithmetic") || !strings.Contains(out, "6000") {
		t.Errorf("capacity output wrong: %q", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "nope", Fast: true, Seed: 1, TraceSample: 0.01}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCommaSeparated(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "table1, fig2", Fast: true, Seed: 1, TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") {
		t.Error("missing table1 output")
	}
	if !strings.Contains(out, "Figure 2") {
		t.Error("missing fig2 output")
	}
	// The paper's Table 1 countries appear.
	for _, name := range []string{"Mozambique", "Spain", "Japan"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s row", name)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "table1", Fast: true, Seed: 1, JSON: true, TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(rows) != 11 {
		t.Errorf("JSON rows = %d", len(rows))
	}
	if _, ok := rows[0]["StarMinRTT"]; !ok {
		t.Errorf("row missing StarMinRTT: %v", rows[0])
	}
}

func TestRunFig3CustomCity(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "fig3", Fast: true, Seed: 1, City: "Nairobi", TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Nairobi") {
		t.Error("custom city not honored")
	}
}

func TestRunExtensions(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "geoblock,wormhole,rtt-series", Fast: true, Seed: 1, TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "spurious geo-blocking") {
		t.Error("missing geoblock output")
	}
	if !strings.Contains(out, "wormholing") {
		t.Error("missing wormhole output")
	}
	if !strings.Contains(out, "RTT time series") || !strings.Contains(out, "handover rate") {
		t.Error("missing rtt-series output")
	}
}

// TestMetricsOutSmoke runs the workload experiment with -metrics-out and
// asserts the JSON snapshot parses, carries non-zero per-source request
// counters, an RTT histogram with quantiles, and at least one sampled trace
// whose span durations sum to its RTT within a microsecond.
func TestMetricsOutSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "workload", Fast: true, Seed: 1, MetricsOut: out, TraceSample: 0.01}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "telemetry written to") {
		t.Error("missing telemetry confirmation line")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	wantSources := map[string]bool{"overhead": false, "isl": false, "ground": false}
	for _, c := range snap.Counters {
		if c.Name != "spacecdn_resolve_requests_total" {
			continue
		}
		src := c.Labels["source"]
		if _, ok := wantSources[src]; ok && c.Value > 0 {
			wantSources[src] = true
		}
	}
	for src, seen := range wantSources {
		if !seen {
			t.Errorf("no requests counted for source %q", src)
		}
	}

	rtt, ok := snap.Histogram("spacecdn_resolve_rtt_ms")
	if !ok || rtt.Count == 0 {
		t.Fatalf("rtt histogram missing or empty: %+v", rtt)
	}
	if !(rtt.P50 > 0 && rtt.P50 <= rtt.P95 && rtt.P95 <= rtt.P99) {
		t.Errorf("rtt quantiles malformed: p50=%v p95=%v p99=%v", rtt.P50, rtt.P95, rtt.P99)
	}

	if len(snap.Traces) == 0 {
		t.Fatal("no sampled traces at rate 0.01")
	}
	for _, tr := range snap.Traces {
		diff := tr.SpanSum() - tr.RTT
		if diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("trace %d (%s): span sum off by %v", tr.Seq, tr.Source, diff)
		}
	}
}

// TestMetricsOutPrometheus checks the .prom extension switches to text
// exposition format.
func TestMetricsOutPrometheus(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.prom")
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "workload", Fast: true, Seed: 1, MetricsOut: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE spacecdn_resolve_requests_total counter",
		`spacecdn_resolve_requests_total{source="ground"}`,
		"# TYPE spacecdn_resolve_rtt_ms histogram",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestParseFlagsDefaults: no arguments yields the documented defaults.
func TestParseFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("spacecdn", flag.ContinueOnError)
	opts, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		Exp: "all", Seed: 42, TraceSample: 0.01, FaultISLs: -1, FaultPoPs: -1,
		SeriesWindow: telemetry.DefaultSeriesWindow,
	}
	if opts != want {
		t.Errorf("defaults = %+v, want %+v", opts, want)
	}
}

// TestParseFlagsRoundTrip: every flag lands in its options field.
func TestParseFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("spacecdn", flag.ContinueOnError)
	opts, err := parseFlags(fs, []string{
		"-exp", "workload", "-fast", "-seed", "7", "-json",
		"-city", "Nairobi", "-metrics-out", "m.prom",
		"-trace-sample", "0.5", "-workers", "4", "-list",
		"-series-out", "s.json", "-series-window", "30s",
		"-serve", "127.0.0.1:0", "-serve-linger", "2s",
		"-fault-isls", "0.25", "-fault-pops", "0.125", "-fault-seed", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		Exp: "workload", Fast: true, Seed: 7, JSON: true,
		City: "Nairobi", MetricsOut: "m.prom", TraceSample: 0.5, Workers: 4,
		List: true, FaultISLs: 0.25, FaultPoPs: 0.125, FaultSeed: 9,
		SeriesOut: "s.json", SeriesWindow: 30 * time.Second,
		Serve: "127.0.0.1:0", ServeLinger: 2 * time.Second,
	}
	if opts != want {
		t.Errorf("parsed = %+v, want %+v", opts, want)
	}
}

func TestParseFlagsRejectsUnknown(t *testing.T) {
	fs := flag.NewFlagSet("spacecdn", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseFlags(fs, []string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRegistryWellFormed: ids are unique and non-empty, every entry has a
// description and a runner, and "all" expands to the registry's inAll subset
// in declaration order.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry() {
		if e.id == "" || e.desc == "" || e.run == nil {
			t.Errorf("malformed registry entry: %+v", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	for _, id := range []string{"table1", "workload", "resilience", "traffic", "lifecycle", "scale-bench"} {
		if !seen[id] {
			t.Errorf("registry missing %q", id)
		}
	}
}

// TestRunList: -list prints every registered id with its description and runs
// no experiment (it completes instantly, without building a suite).
func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{List: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range registry() {
		if !strings.Contains(out, e.id) || !strings.Contains(out, e.desc) {
			t.Errorf("list output missing %q", e.id)
		}
	}
	if !strings.Contains(out, `not in "all"`) {
		t.Error("list output does not mark benchmark-only experiments")
	}
}

// TestRunResilienceJSON: resilience with -json emits a
// parseable sweep whose zero-fault row proves the fault-free identity.
func TestRunResilienceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{Exp: "resilience", Fast: true, Seed: 1, JSON: true, FaultISLs: -1, FaultPoPs: -1}); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Rows []struct {
			SatFraction  float64
			Requests     int
			Availability float64
			P99Ms        float64
		}
		ZeroFaultIdentical bool
	}
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(res.Rows) < 3 {
		t.Fatalf("sweep rows = %d", len(res.Rows))
	}
	if !res.ZeroFaultIdentical {
		t.Error("zero-fault row not identical to the plan-free pipeline")
	}
	if res.Rows[0].SatFraction != 0 || res.Rows[0].Availability != 1 {
		t.Errorf("baseline row malformed: %+v", res.Rows[0])
	}
	for i, r := range res.Rows {
		if r.Requests == 0 || r.P99Ms <= 0 {
			t.Errorf("row %d malformed: %+v", i, r)
		}
	}
}

// TestRunWorkersFlag: the workload experiment honors -workers and produces
// the same report text at 1 and 4 workers (determinism through the CLI).
func TestRunWorkersFlag(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run(&seq, options{Exp: "workload", Fast: true, Seed: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, options{Exp: "workload", Fast: true, Seed: 3, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("workload output differs between -workers 1 and 4:\n%s\n---\n%s", seq.String(), par.String())
	}
}
