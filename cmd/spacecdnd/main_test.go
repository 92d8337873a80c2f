package main

import (
	"bytes"
	"encoding/json"
	"flag"
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

func TestParseFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("spacecdnd", flag.ContinueOnError)
	opts, err := parseFlags(fs, []string{
		"-addr", "127.0.0.1:0", "-seed", "7", "-step", "30s", "-interval", "2ms",
		"-cities", "6", "-replay-seed", "99", "-trace-sample", "0.5",
		"-metrics-out", "m.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		Addr: "127.0.0.1:0", Seed: 7, Step: 30 * time.Second, Interval: 2 * time.Millisecond,
		Cities: 6, ReplaySeed: 99, TraceSample: 0.5,
		MetricsOut: "m.json",
	}
	if opts != want {
		t.Fatalf("parsed %+v, want %+v", opts, want)
	}
	if def := defaultOptions(); def.Interval <= 0 || def.Addr == "" {
		t.Fatalf("implausible defaults %+v", def)
	}
}

// lockedBuffer lets a test read run()'s output while run is still writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`spacecdnd serving on (http://\S+)`)

// TestRunServesHTTP is the end-to-end daemon test: boot run() with a live
// sweeper, issue real HTTP GETs at the address it printed, stop it, and
// require the exported telemetry to account for exactly those requests.
func TestRunServesHTTP(t *testing.T) {
	const n = 40
	metrics := filepath.Join(t.TempDir(), "METRICS.json")
	var out lockedBuffer
	opts := defaultOptions()
	opts.Addr = "127.0.0.1:0"
	opts.Interval = 2 * time.Millisecond
	opts.Cities = 6
	opts.TraceSample = 0.05
	opts.MetricsOut = metrics
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(&out, opts, stop) }()

	var base string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := servingLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serving line within 30s:\n%s", out.String())
		}
	}
	objs := []string{"srv-hot", "srv-warm", "srv-cold"}
	for i := 0; i < n; i++ {
		// Maputo: covered by Shell 1 at every instant the sweeper reaches.
		resp, err := http.Get(base + "/resolve?lat=-25.97&lon=32.57&iso2=MZ&obj=" + objs[i%len(objs)])
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after stop")
	}
	for _, want := range []string{"shutting down", "telemetry written to"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics artifact not a telemetry snapshot: %v", err)
	}
	var served, swaps int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "serve_requests_total":
			served = c.Value
		case "serve_epoch_swaps_total":
			swaps = c.Value
		}
	}
	if served != n || swaps < 1 {
		t.Fatalf("exported serve counters: requests=%d swaps=%d, want %d and >= 1", served, swaps, n)
	}
}

// TestServeUntilStop covers the daemon's long-running mode: it serves until
// the stop channel fires, then drains and exits.
func TestServeUntilStop(t *testing.T) {
	var out bytes.Buffer
	opts := defaultOptions()
	opts.Addr = "127.0.0.1:0"
	opts.Interval = 2 * time.Millisecond
	opts.Cities = 4
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run(&out, opts, stop) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after stop")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("output missing shutdown notice:\n%s", out.String())
	}
}
