package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/telemetry"
)

// syncBuffer lets the test read run()'s output while run is still writing —
// the introspection address line appears before the experiments start.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`introspection listening on (http://\S+)`)

// TestRunObservability drives the full observability surface through run():
// the series artifact on disk, plus a live introspection endpoint
// scraped while the process is still serving (the linger window).
func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	seriesOut := filepath.Join(dir, "series.json")
	opts := options{
		Exp: "workload", Fast: true, Seed: 1, TraceSample: 1,
		SeriesOut: seriesOut, SeriesWindow: time.Minute,
		Serve: "127.0.0.1:0", ServeLinger: 3 * time.Second,
		FaultISLs: -1, FaultPoPs: -1,
	}
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(&out, opts) }()

	// Wait for the address line, then scrape the live endpoint.
	var base string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("no introspection address printed:\n%s", out.String())
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// /metrics and /series answer whether the workload has finished or not;
	// scraping mid-run is the point of the endpoint.
	if code, _ := get("/metrics"); code != 200 {
		t.Errorf("/metrics = %d", code)
	}
	if code, _ := get("/series"); code != 200 {
		t.Errorf("/series = %d", code)
	}
	code, body := get("/traces")
	var traces []telemetry.RequestTrace
	if err := json.Unmarshal([]byte(body), &traces); code != 200 || err != nil {
		t.Errorf("/traces = %d, parse error %v", code, err)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The series artifact: windows present, resolve counters in them, and
	// deltas summing to a positive request count.
	raw, err := os.ReadFile(seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	var series telemetry.SeriesSnapshot
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatalf("series artifact does not parse: %v", err)
	}
	if series.WindowNs != time.Minute {
		t.Errorf("windowNs = %v, want 1m", series.WindowNs)
	}
	if len(series.Windows) < 2 {
		t.Fatalf("series windows = %d, want the workload's sim span", len(series.Windows))
	}
	var resolved int64
	for _, w := range series.Windows {
		for _, cv := range w.Counters {
			if cv.Name == "spacecdn_resolve_requests_total" {
				resolved += cv.Value
			}
		}
	}
	if resolved == 0 {
		t.Error("no resolve request deltas in any window")
	}
	for _, want := range []string{"series written to", "lingering"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}
