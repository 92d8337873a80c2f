package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestIntrospectionEndpoints(t *testing.T) {
	tel := exampleTelemetry()
	sc := NewSeriesCollector(tel.Registry(), time.Minute, 0)
	tel.SetSeries(sc)
	sc.Tick(0)
	sc.Tick(90 * time.Second)

	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := scrape(t, base, "/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := scrape(t, base, "/metrics"); code != 200 ||
		!strings.Contains(body, `resolve_requests_total{source="overhead"} 3`) {
		t.Errorf("/metrics = %d, missing counter:\n%s", code, body)
	}
	code, body := scrape(t, base, "/series")
	if code != 200 {
		t.Fatalf("/series = %d", code)
	}
	var series SeriesSnapshot
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series does not parse: %v", err)
	}
	if len(series.Windows) == 0 {
		t.Errorf("/series snapshot incomplete: %+v", series)
	}
	code, body = scrape(t, base, "/traces")
	if code != 200 {
		t.Fatalf("/traces = %d", code)
	}
	var traces []RequestTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces does not parse: %v", err)
	}
	if len(traces) != 1 || traces[0].Sat != 7 || traces[0].SpanSum() != traces[0].RTT {
		t.Errorf("/traces = %+v, want the one sampled trace with spans summing to its RTT", traces)
	}
	if code, body := scrape(t, base, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// TestIntrospectionConcurrentScrapes hammers every endpoint while writers are
// still mutating the registry, the series collector and the trace sink —
// the live-scrape-during-a-sweep contract, checked under -race by verify.
func TestIntrospectionConcurrentScrapes(t *testing.T) {
	tel := New(1)
	reg := tel.Registry()
	sc := NewSeriesCollector(reg, time.Minute, 0)
	tel.SetSeries(sc)

	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const writers, scrapers, iters = 4, 4, 50
	var wg sync.WaitGroup
	for wID := 0; wID < writers; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			c := reg.Counter("load_total", "w", fmt.Sprint(wID))
			h := reg.Histogram("load_ms", LatencyBucketsMs)
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i % 40))
				sc.Tick(time.Duration(i) * 10 * time.Second)
				if _, ok := tel.Traces().Sample(); ok {
					tel.Traces().Add(RequestTrace{Seq: uint64(i), Source: "isl"})
				}
			}
		}(wID)
	}
	for sID := 0; sID < scrapers; sID++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/metrics", "/series", "/traces", "/healthz"}
			for i := 0; i < iters; i++ {
				resp, err := http.Get(base + paths[i%len(paths)])
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("scrape %s = %d", paths[i%len(paths)], resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", New(0))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == "" {
		t.Error("bound address empty")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("closed server still accepting connections")
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Error("nil server must no-op")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bogus", New(0)); err == nil {
		t.Fatal("invalid address must error")
	}
}

// TestServerGracefulShutdown: a /series scrape still in flight when Close
// begins must run to completion — Close drains via http.Server.Shutdown
// instead of cutting connections. The scrapeDelay hook parks the handler
// until the test has Close underway.
func TestServerGracefulShutdown(t *testing.T) {
	tel := exampleTelemetry()
	sc := NewSeriesCollector(tel.Registry(), time.Minute, 0)
	tel.SetSeries(sc)
	sc.Tick(0)
	sc.Tick(90 * time.Second)

	entered := make(chan struct{})
	release := make(chan struct{})
	scrapeDelay = func() {
		close(entered)
		<-release
	}
	defer func() { scrapeDelay = nil }()

	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	type scrapeResult struct {
		code int
		body string
		err  error
	}
	got := make(chan scrapeResult, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/series")
		if err != nil {
			got <- scrapeResult{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- scrapeResult{code: resp.StatusCode, body: string(body), err: err}
	}()
	<-entered // the scrape is inside the handler now

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a scrape still parked in the handler", err)
	case <-time.After(50 * time.Millisecond):
		// Close is draining, as it should be.
	}
	close(release)

	res := <-got
	if res.err != nil {
		t.Fatalf("in-flight scrape failed during shutdown: %v", res.err)
	}
	if res.code != 200 {
		t.Fatalf("in-flight scrape status %d during shutdown", res.code)
	}
	var series SeriesSnapshot
	if err := json.Unmarshal([]byte(res.body), &series); err != nil {
		t.Fatalf("drained scrape body truncated: %v", err)
	}
	if len(series.Windows) == 0 {
		t.Fatalf("drained scrape snapshot incomplete: %+v", series)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	// The listener is down: new scrapes must be refused.
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
}
