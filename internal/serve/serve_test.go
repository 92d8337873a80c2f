package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

var (
	testConst = constellation.MustNew(constellation.DefaultConfig())
	testLSN   = lsn.NewModel(testConst, groundseg.NewCatalog(), lsn.DefaultConfig())
)

// newTestServer builds a server (and its workload) over a fresh system.
func newTestServer(t testing.TB, cfg Config) (*Server, *Workload) {
	t.Helper()
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), testConst, testLSN)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := srv.PlaceWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	return srv, wl
}

func TestServeInProcess(t *testing.T) {
	srv, wl := newTestServer(t, Config{Seed: 1})
	defer srv.Close()
	if got := srv.Stats().Epochs; got != 1 {
		t.Fatalf("initial epochs = %d, want 1 (New publishes the first epoch)", got)
	}
	sc := srv.AcquireScratch()
	defer srv.ReleaseScratch(sc)
	const n = 60
	for i := 0; i < n; i++ {
		res, err := srv.ResolveOnce(wl.Request(uint64(i)), sc)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if res.Epoch != 1 || res.SimTime != 0 || res.Stale {
			t.Fatalf("req %d: pinned-epoch result %+v, want epoch 1 t=0 fresh", i, res)
		}
	}
	st := srv.Stats()
	if st.Requests != n || st.Errors != 0 || st.StaleServed != 0 {
		t.Fatalf("stats = %+v, want %d clean requests", st, n)
	}
	// Telemetry counters track the always-on stats exactly.
	reg := srv.Telemetry().Registry()
	if v := reg.Counter("serve_requests_total").Value(); v != n {
		t.Fatalf("serve_requests_total = %d, want %d", v, n)
	}
	if v := reg.Counter("serve_epoch_swaps_total").Value(); v != 1 {
		t.Fatalf("serve_epoch_swaps_total = %d, want 1", v)
	}
	if c := reg.Histogram("serve_request_latency_ms", nil).Count(); c != n {
		t.Fatalf("latency histogram count = %d, want %d", c, n)
	}
	// The workload mix reached space: hot requests must not all fall to
	// ground.
	res, err := srv.ResolveOnce(wl.Request(0), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.Source == spacecdn.SourceGround {
		t.Fatalf("hot request served from ground: %+v", res)
	}
}

func TestServeSweeperAdvances(t *testing.T) {
	srv, wl := newTestServer(t, Config{Seed: 2, Step: 15 * time.Second, Interval: time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	sc := srv.AcquireScratch()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Epochs < 4 && time.Now().Before(deadline) {
		if _, err := srv.ResolveOnce(wl.Request(0), sc); err != nil {
			t.Fatal(err)
		}
	}
	srv.ReleaseScratch(sc)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Epochs < 4 {
		t.Fatalf("sweeper published %d epochs, want >= 4", st.Epochs)
	}
	if ep := srv.Epoch(); ep.Time() != time.Duration(ep.Seq()-1)*15*time.Second {
		t.Fatalf("epoch %d pins t=%v, want lockstep with seq", ep.Seq(), ep.Time())
	}
	if st.SwapP99Ms <= 0 {
		t.Fatalf("swap latency p99 = %v, want positive", st.SwapP99Ms)
	}
	// Close is idempotent and the sweeper must have stopped.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	epochs := srv.Stats().Epochs
	time.Sleep(5 * time.Millisecond)
	if got := srv.Stats().Epochs; got != epochs {
		t.Fatalf("sweeper still publishing after Close: %d -> %d", epochs, got)
	}
}

func TestServeHTTP(t *testing.T) {
	srv, wl := newTestServer(t, Config{Seed: 3, Addr: "127.0.0.1:0", Interval: 5 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	city := wl.Cities[0]

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := get("/resolve?lat=" + floatQ(city.Loc.LatDeg) + "&lon=" + floatQ(city.Loc.LonDeg) +
		"&iso2=" + city.Country + "&obj=" + string(wl.Hot.ID))
	if code != http.StatusOK {
		t.Fatalf("/resolve status %d: %s", code, body)
	}
	var decoded struct {
		Epoch  uint64 `json:"epoch"`
		TMs    int64  `json:"t_ms"`
		Source string `json:"source"`
		Sat    int    `json:"sat"`
		Hops   int    `json:"hops"`
		RTTUs  int64  `json:"rtt_us"`
	}
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, body)
	}
	if decoded.Epoch == 0 || decoded.RTTUs <= 0 {
		t.Fatalf("implausible response %+v", decoded)
	}
	if _, ok := spacecdn.SourceFromString(decoded.Source); !ok {
		t.Fatalf("unknown source %q", decoded.Source)
	}

	if code, _ := get("/resolve?lat=x&lon=0&iso2=MZ&obj=" + string(wl.Hot.ID)); code != http.StatusBadRequest {
		t.Fatalf("bad lat: status %d, want 400", code)
	}
	if code, _ := get("/resolve?lat=0&lon=0&iso2=MZ&obj=no-such-object"); code != http.StatusNotFound {
		t.Fatalf("unknown object: status %d, want 404", code)
	}

	// The telemetry introspection surface is mounted next to /resolve.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "serve_requests_total") {
		t.Fatalf("/metrics missing serve counters: %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
}

// TestSeriesNeedsCollector: /series is 404 on a server whose telemetry has
// no series collector, and serves the windowed series through the same
// handler once one is attached.
func TestSeriesNeedsCollector(t *testing.T) {
	srv, _ := newTestServer(t, Config{Seed: 4})
	h := srv.handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/series", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusNotFound {
		t.Fatalf("/series without a collector: %d %q, want 404", rec.Code, rec.Body.String())
	}
	tel := srv.Telemetry()
	tel.SetSeries(telemetry.NewSeriesCollector(tel.Registry(), time.Minute, 0))
	if rec := get(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"windowNs"`) {
		t.Fatalf("/series with a collector: %d %q", rec.Code, rec.Body.String())
	}
}

// TestCloseDropsSilentConnection: a client that connects and never sends a
// request must not fail the shutdown or keep its socket. http.Server.Shutdown
// waits five seconds before it counts such a connection idle, which is also
// the default ShutdownTimeout, so Close has to finish the job itself.
func TestCloseDropsSilentConnection(t *testing.T) {
	srv, _ := newTestServer(t, Config{Seed: 6, Addr: "127.0.0.1:0", Interval: 5 * time.Millisecond, ShutdownTimeout: 50 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A served request proves the accept loop is past the silent connection.
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	begin := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close with a silent connection open: %v", err)
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Fatalf("Close took %v with a 50ms drain deadline", d)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection after Close: read %d bytes, err %v; want EOF", n, err)
	}
	epochs := srv.Stats().Epochs
	time.Sleep(20 * time.Millisecond)
	if got := srv.Stats().Epochs; got != epochs {
		t.Fatalf("sweeper still publishing after Close: %d -> %d", epochs, got)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestResolveRejectsBadCoordinates closes the door strconv.ParseFloat leaves
// open: it parses "NaN", "Inf" and any magnitude, and none of those is a
// place a client can be. The handler validates coordinates before it looks
// the object up, so a request for an unknown object tells the two apart: 400
// for a malformed location, 404 once the location was accepted.
func TestResolveRejectsBadCoordinates(t *testing.T) {
	srv, _ := newTestServer(t, Config{Seed: 5})
	cases := []struct {
		lat, lon string
		want     int
	}{
		{"NaN", "10", http.StatusBadRequest},
		{"10", "nan", http.StatusBadRequest},
		{"Inf", "10", http.StatusBadRequest},
		{"10", "+Inf", http.StatusBadRequest},
		{"-Inf", "10", http.StatusBadRequest},
		{"10", "-Inf", http.StatusBadRequest},
		{"91", "10", http.StatusBadRequest},
		{"-90.0001", "10", http.StatusBadRequest},
		{"1e400", "10", http.StatusBadRequest}, // ParseFloat: out of range
		{"", "10", http.StatusBadRequest},
		{"10", "", http.StatusBadRequest},
		{"90", "10", http.StatusNotFound},
		{"-90", "10", http.StatusNotFound},
		{"10", "-180", http.StatusNotFound},
		{"10", "359", http.StatusNotFound},
		{"10", "-725.5", http.StatusNotFound}, // finite longitudes wrap
	}
	for _, tc := range cases {
		q := url.Values{"lat": {tc.lat}, "lon": {tc.lon}, "iso2": {"MZ"}, "obj": {"no-such-object"}}
		rec := httptest.NewRecorder()
		srv.handleResolve(rec, httptest.NewRequest(http.MethodGet, "/resolve?"+q.Encode(), nil))
		if rec.Code != tc.want {
			t.Errorf("lat=%q lon=%q: status %d, want %d", tc.lat, tc.lon, rec.Code, tc.want)
		}
	}
	if pt, ok := parseClient([]byte("-90"), []byte("359")); !ok || pt != geo.NewPoint(-90, -1) {
		t.Errorf("lat=-90 lon=359 parsed to %v, %v", pt, ok)
	}
}

func floatQ(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// TestReplayDeterministic is the replay acceptance bar: same seed + same
// recorded request log => byte-identical response stream, regardless of
// serving concurrency.
func TestReplayDeterministic(t *testing.T) {
	cfg := Config{Seed: 4, ReplaySeed: 99}
	srv, wl := newTestServer(t, cfg)
	defer srv.Close()
	log := wl.Log(240)
	base, err := srv.Replay(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(base, []byte("\n")); n != len(log) {
		t.Fatalf("replay emitted %d lines, want %d", n, len(log))
	}
	for _, workers := range []int{2, 8} {
		got, err := srv.Replay(log, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("workers=%d replay diverged from sequential stream", workers)
		}
	}
	// A live single-connection client sees the same bytes: arrival order is
	// log order, so the per-request-index streams line up with Replay's.
	srv2, wl2 := newTestServer(t, cfg)
	defer srv2.Close()
	sc := srv2.AcquireScratch()
	defer srv2.ReleaseScratch(sc)
	var live []byte
	for i := range log {
		res, err := srv2.ResolveOnce(wl2.Request(uint64(i)), sc)
		if err != nil {
			t.Fatalf("live req %d: %v", i, err)
		}
		live = appendResponse(live, res)
	}
	if !bytes.Equal(live, base) {
		t.Fatal("sequential live serving diverged from replay stream")
	}
	// Replay demands a replay seed.
	srv3, wl3 := newTestServer(t, Config{Seed: 4})
	defer srv3.Close()
	if _, err := srv3.Replay(wl3.Log(3), 1); err == nil {
		t.Fatal("replay without ReplaySeed must error")
	}
}

// TestServeSteadyAllocsFree pins the allocation contract: on a pinned epoch
// the in-process request path allocates nothing at steady state (warmed
// pools, memos and path trees, telemetry attached with trace sampling off) —
// neither for requests served from space nor for those that fall through to
// the ground stage, whose station list is the catalog's shared slice and
// whose candidate list lives on the stack.
func TestServeSteadyAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	srv, wl := newTestServer(t, Config{Seed: 5})
	defer srv.Close()
	sc := srv.AcquireScratch()
	defer srv.ReleaseScratch(sc)
	// Classify by where the pinned epoch serves each request; this pass also
	// warms everything a repeat of the request touches.
	var space, ground []spacecdn.Request
	for i := 0; i < 120; i++ {
		req := wl.Request(uint64(i))
		res, err := srv.ResolveOnce(req, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Res.Source == spacecdn.SourceGround {
			ground = append(ground, req)
		} else {
			space = append(space, req)
		}
	}
	for _, class := range []struct {
		name string
		reqs []spacecdn.Request
	}{{"space-served", space}, {"ground-served", ground}} {
		if len(class.reqs) == 0 {
			t.Fatalf("no %s requests in workload", class.name)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for _, r := range class.reqs {
				if _, err := srv.ResolveOnce(r, sc); err != nil {
					t.Fatal(err)
				}
			}
		})
		if perReq := allocs / float64(len(class.reqs)); perReq != 0 {
			t.Errorf("%s steady-state allocations = %v/req, want 0", class.name, perReq)
		}
	}
}

// TestServeLatencyHistogramResolvesThePath: the wall-clock latency histogram
// has buckets at the scale of the path it times. With the simulated-RTT
// bounds (first bucket 0.5 ms) every few-microsecond request landed in
// bucket 0 and the exported p50 read 0.25 ms whatever the path cost.
func TestServeLatencyHistogramResolvesThePath(t *testing.T) {
	srv, wl := newTestServer(t, Config{Seed: 6})
	defer srv.Close()
	sc := srv.AcquireScratch()
	defer srv.ReleaseScratch(sc)
	for i := 0; i < 1000; i++ {
		if _, err := srv.ResolveOnce(wl.Request(uint64(i)), sc); err != nil {
			t.Fatal(err)
		}
	}
	hv, ok := srv.Telemetry().Snapshot().Histogram("serve_request_latency_ms")
	if !ok || hv.Count != 1000 {
		t.Fatalf("serve_request_latency_ms = %+v, want 1000 observations", hv)
	}
	if hv.P50 <= 0 || hv.P50 >= 0.1 {
		t.Fatalf("exported p50 = %v ms for an in-process request, want below 0.1 ms", hv.P50)
	}
}

// TestSwapDurationsBounded: the daemon publishes ten epochs a second for as
// long as it is up, so the swap-latency record Stats summarizes is the
// fixed-bucket serve_epoch_swap_ms histogram, not a log, and it counts
// every swap.
func TestSwapDurationsBounded(t *testing.T) {
	const swaps = 10240
	srv, _ := newTestServer(t, Config{Seed: 9})
	defer srv.Close()
	for i := 0; i < swaps; i++ {
		srv.advance()
	}
	if got := srv.swapMs.Count(); got != swaps+1 {
		t.Fatalf("swap histogram holds %d durations after %d swaps", got, swaps+1)
	}
	st := srv.Stats()
	if st.Epochs != swaps+1 {
		t.Fatalf("epochs = %d, want %d", st.Epochs, swaps+1)
	}
	if st.SwapP50Ms <= 0 || st.SwapP99Ms < st.SwapP50Ms {
		t.Fatalf("swap quantiles p50=%v p99=%v, want positive and ordered", st.SwapP50Ms, st.SwapP99Ms)
	}
}

// TestResolveErrorsTyped drives the three ways a resolution can fail through
// Resolve and through GET /resolve: each surfaces as its own sentinel, and
// the handler tells "we do not cover you" (503) from "the ground behind the
// satellite failed" (502).
func TestResolveErrorsTyped(t *testing.T) {
	maputo := geo.NewPoint(-25.9692, 32.5732)
	cold := content.Object{ID: "typed-cold", Bytes: 1 << 20}
	var blackout []faults.Outage
	for _, pop := range groundseg.NewCatalog().PoPs() {
		blackout = append(blackout, faults.Outage{Kind: faults.KindPoP, PoP: pop.Name, Start: 0, End: time.Hour})
	}
	cases := []struct {
		name   string
		ground *lsn.Model
		plan   *faults.Plan
		client geo.Point
		want   error
		status int
	}{
		// Shell 1 is inclined 53°: nothing rises over a polar terminal.
		{name: "polar client", ground: testLSN, client: geo.NewPoint(89, 0),
			want: spacecdn.ErrNoVisibleSatellite, status: http.StatusServiceUnavailable},
		{name: "no ground model", client: maputo,
			want: spacecdn.ErrObjectNotInSpace, status: http.StatusBadGateway},
		{name: "every PoP blacked out", ground: testLSN, plan: faults.NewPlanFromOutages(testConst.Total(), blackout), client: maputo,
			want: spacecdn.ErrNoGroundPath, status: http.StatusBadGateway},
	}
	sentinels := []error{spacecdn.ErrNoVisibleSatellite, spacecdn.ErrObjectNotInSpace, spacecdn.ErrNoGroundPath}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), testConst, tc.ground)
			if err != nil {
				t.Fatal(err)
			}
			sys.SetFaultPlan(tc.plan)
			_, err = sys.Resolve(tc.client, "MZ", cold, testConst.Snapshot(0), stats.NewRand(1))
			for _, sentinel := range sentinels {
				if got, want := errors.Is(err, sentinel), sentinel == tc.want; got != want {
					t.Errorf("Resolve error %q: errors.Is(%q) = %v, want %v", err, sentinel, got, want)
				}
			}
			if tc.plan != nil && !strings.Contains(err.Error(), "lsn:") {
				t.Errorf("ground failure %q does not carry the lsn cause", err)
			}

			srv, err := New(sys, Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.RegisterObjects(cold)
			q := url.Values{"lat": {floatQ(tc.client.LatDeg)}, "lon": {floatQ(tc.client.LonDeg)}, "iso2": {"MZ"}, "obj": {string(cold.ID)}}
			rec := httptest.NewRecorder()
			srv.handleResolve(rec, httptest.NewRequest(http.MethodGet, "/resolve?"+q.Encode(), nil))
			if rec.Code != tc.status {
				t.Errorf("GET /resolve: status %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), tc.status)
			}
			if st := srv.Stats(); st.Errors != 1 || st.Requests != 0 {
				t.Errorf("stats %+v, want the one failed request counted as an error", st)
			}
		})
	}
}
