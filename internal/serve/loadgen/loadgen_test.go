package loadgen

import (
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
)

var (
	testConst = constellation.MustNew(constellation.DefaultConfig())
	testLSN   = lsn.NewModel(testConst, groundseg.NewCatalog(), lsn.DefaultConfig())
)

func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Workload) {
	t.Helper()
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), testConst, testLSN)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := srv.PlaceWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	return srv, wl
}

func TestLoadgenInProcess(t *testing.T) {
	srv, wl := newServer(t, serve.Config{Seed: 11})
	defer srv.Close()
	const n = 200
	res, err := Run(srv, wl, Config{Workers: 4, Requests: n})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 || res.Requests != n || res.Errors != 0 {
		t.Fatalf("result %+v, want %d clean requests on 4 workers", res, n)
	}
	if res.ReqPerSec <= 0 || res.Wall <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if res.P50Ms < 0 || res.P50Ms > res.P95Ms || res.P95Ms > res.P99Ms {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v", res.P50Ms, res.P95Ms, res.P99Ms)
	}
	if got := srv.Stats().Requests; got != n {
		t.Fatalf("server saw %d requests, want %d", got, n)
	}
}

func TestLoadgenHTTP(t *testing.T) {
	srv, wl := newServer(t, serve.Config{Seed: 12, Addr: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 60
	res, err := Run(srv, wl, Config{Workers: 2, Requests: n, Mode: HTTP, BaseURL: "http://" + srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != n || res.Errors != 0 {
		t.Fatalf("HTTP run %+v, want %d clean requests", res, n)
	}
	if got := srv.Stats().Requests; got != n {
		t.Fatalf("server saw %d requests over HTTP, want %d", got, n)
	}
}

func TestLoadgenConfigErrors(t *testing.T) {
	srv, wl := newServer(t, serve.Config{Seed: 13})
	defer srv.Close()
	if _, err := Run(srv, wl, Config{Workers: 1}); err == nil {
		t.Fatal("zero request budget accepted")
	}
	if _, err := Run(srv, wl, Config{Workers: 1, Requests: 5, Mode: HTTP}); err == nil {
		t.Fatal("HTTP mode without BaseURL accepted")
	}
}

func TestMeasureAllocsSteadyZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	srv, wl := newServer(t, serve.Config{Seed: 14})
	defer srv.Close()
	sc := srv.AcquireScratch()
	var steady []spacecdn.Request
	for i := 0; i < 120; i++ {
		req := wl.Request(uint64(i))
		res, err := srv.ResolveOnce(req, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Res.Source != spacecdn.SourceGround {
			steady = append(steady, req)
		}
	}
	srv.ReleaseScratch(sc)
	if len(steady) == 0 {
		t.Fatal("no space-served requests in workload")
	}
	perReq, err := MeasureAllocs(srv, steady)
	if err != nil {
		t.Fatal(err)
	}
	if perReq != 0 {
		t.Errorf("steady-state allocations = %v/req, want 0", perReq)
	}
	if _, err := MeasureAllocs(srv, nil); err == nil {
		t.Fatal("empty steady set accepted")
	}
}
