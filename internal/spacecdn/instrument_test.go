package spacecdn

import (
	"testing"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

func TestSourceStringRoundTrip(t *testing.T) {
	srcs := Sources()
	if len(srcs) != int(numSources) {
		t.Fatalf("Sources() = %d entries, want %d", len(srcs), numSources)
	}
	seen := map[string]bool{}
	for _, s := range srcs {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("source %d has empty or duplicate name %q", s, name)
		}
		seen[name] = true
		back, ok := SourceFromString(name)
		if !ok || back != s {
			t.Errorf("round trip %v -> %q -> %v (ok=%v)", s, name, back, ok)
		}
	}
	if got := Source(99).String(); got != "source(99)" {
		t.Errorf("out-of-range String = %q", got)
	}
	if _, ok := SourceFromString("nope"); ok {
		t.Error("unknown name must not resolve")
	}
}

// telemetryFixture stores one object overhead of the client, one 3 ISL hops
// away, and returns a cold one, so the three resolves below exercise every
// source.
func telemetryFixture(t *testing.T, s *System, snap *constellation.Snapshot, client geo.Point) (hot, warm, cold content.Object) {
	t.Helper()
	up, ok := snap.BestVisible(client)
	if !ok {
		t.Fatal("no visibility")
	}
	hot = testObject("tl-hot")
	s.Store(up.ID, hot)
	warm = testObject("tl-warm")
	placed := false
	for _, hr := range snap.ISLGraph().WithinHops(routing.NodeID(up.ID), 3) {
		if hr.Hops == 3 {
			s.Store(constellation.SatID(hr.Node), warm)
			placed = true
			break
		}
	}
	if !placed {
		t.Fatal("no 3-hop satellite for warm object")
	}
	return hot, warm, testObject("tl-cold")
}

// TestResolveTelemetry drives one request through each of the three sources
// with a sample-everything sink and checks counters, histograms, and the
// trace invariant: span durations sum to the resolution RTT exactly.
func TestResolveTelemetry(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	tel := telemetry.New(1)
	s.SetTelemetry(tel)
	t.Cleanup(func() { s.SetTelemetry(nil) }) // testLSN is shared across tests
	if s.Telemetry() != tel {
		t.Fatal("Telemetry() accessor broken")
	}
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	rng := stats.NewRand(7)
	hot, warm, cold := telemetryFixture(t, s, snap, maputo)

	want := map[content.ID]Source{
		hot.ID:  SourceOverhead,
		warm.ID: SourceISL,
		cold.ID: SourceGround,
	}
	bySeq := map[uint64]Resolution{}
	for _, o := range []content.Object{hot, warm, cold} {
		res, err := s.Resolve(maputo, "MZ", o, snap, rng)
		if err != nil {
			t.Fatalf("resolve %s: %v", o.ID, err)
		}
		if res.Source != want[o.ID] {
			t.Fatalf("%s served from %v, want %v", o.ID, res.Source, want[o.ID])
		}
		bySeq[uint64(len(bySeq)+1)] = res
	}

	snapshot := tel.Snapshot()
	for _, src := range Sources() {
		cv, ok := snapshot.Counter("spacecdn_resolve_requests_total",
			map[string]string{"source": src.String()})
		if !ok || cv.Value != 1 {
			t.Errorf("requests{source=%s} = %+v, want 1", src, cv)
		}
	}
	hv, ok := snapshot.Histogram("spacecdn_resolve_rtt_ms")
	if !ok || hv.Count != 3 {
		t.Fatalf("rtt histogram = %+v, want 3 observations", hv)
	}
	if hv.P50 <= 0 || hv.P99 < hv.P50 {
		t.Errorf("rtt quantiles malformed: p50=%v p99=%v", hv.P50, hv.P99)
	}
	if hopsHV, ok := snapshot.Histogram("spacecdn_resolve_isl_hops"); !ok || hopsHV.Count != 3 {
		t.Errorf("hops histogram = %+v, want 3 observations", hopsHV)
	}
	// The collector exports the fleet view at exposition time.
	if len(snapshot.Gauges) == 0 {
		t.Error("no gauges collected")
	}
	foundHits := false
	for _, g := range snapshot.Gauges {
		if g.Name == "spacecdn_cache_hits" && g.Value >= 2 {
			foundHits = true
		}
	}
	if !foundHits {
		t.Error("collector did not export fleet cache hits")
	}

	traces := tel.Traces().Traces()
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3 at sample rate 1", len(traces))
	}
	for _, tr := range traces {
		res, ok := bySeq[tr.Seq]
		if !ok {
			t.Fatalf("trace has unknown seq %d", tr.Seq)
		}
		if tr.Source != res.Source.String() || tr.RTT != res.RTT {
			t.Errorf("trace %d = {%s %v}, want {%s %v}", tr.Seq, tr.Source, tr.RTT, res.Source, res.RTT)
		}
		if got := tr.SpanSum(); got != tr.RTT {
			t.Errorf("trace %d (%s): span sum %v != RTT %v", tr.Seq, tr.Source, got, tr.RTT)
		}
		switch res.Source {
		case SourceOverhead:
			if tr.Sat != int(res.Sat) || tr.Hops != 0 {
				t.Errorf("overhead trace = %+v", tr)
			}
		case SourceISL:
			hopSpans := 0
			for _, sp := range tr.Spans {
				if sp.Kind == telemetry.SpanISLHop {
					hopSpans++
				}
			}
			if hopSpans != res.Hops || tr.Hops != res.Hops {
				t.Errorf("isl trace has %d hop spans / hops %d, want %d", hopSpans, tr.Hops, res.Hops)
			}
		case SourceGround:
			if tr.Sat != -1 {
				t.Errorf("ground trace sat = %d, want -1", tr.Sat)
			}
			hasGround := false
			for _, sp := range tr.Spans {
				if sp.Kind == telemetry.SpanGroundRTT {
					hasGround = true
				}
			}
			if !hasGround {
				t.Errorf("ground trace missing ground-rtt span: %+v", tr.Spans)
			}
		}
	}
}

func TestResolveTelemetryErrors(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	tel := telemetry.New(1)
	s.SetTelemetry(tel)
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	// Cold object with an unknown country: the ground fallback fails.
	if _, err := s.Resolve(maputo, "??", testObject("tl-err"), snap, stats.NewRand(1)); err == nil {
		t.Fatal("unknown country must fail")
	}
	snapshot := tel.Snapshot()
	cv, ok := snapshot.Counter("spacecdn_resolve_errors_total", nil)
	if !ok || cv.Value != 1 {
		t.Fatalf("errors counter = %+v, want 1", cv)
	}
	if hv, _ := snapshot.Histogram("spacecdn_resolve_rtt_ms"); hv.Count != 0 {
		t.Error("failed resolves must not observe an RTT")
	}

	// Detach: the resolve path reverts to uninstrumented.
	s.SetTelemetry(nil)
	if s.Telemetry() != nil {
		t.Fatal("detach left telemetry attached")
	}
	hot := testObject("tl-after")
	up, _ := snap.BestVisible(maputo)
	s.Store(up.ID, hot)
	if _, err := s.Resolve(maputo, "MZ", hot, snap, stats.NewRand(2)); err != nil {
		t.Fatal(err)
	}
	// Failed resolves never reach the sink, and neither do requests after
	// detach.
	if got := tel.Traces().Seen(); got != 0 {
		t.Errorf("sink saw %d requests, want 0 (errors and detached resolves bypass it)", got)
	}
}

// TestResolveDisabledPathAllocs pins the telemetry cost model: a detached
// system resolves with exactly the allocations of a never-instrumented one,
// an attached-but-unsampled request adds none on top (counters and
// histograms are pure atomics), and neither does a sampled one once the
// trace ring is full (its spans are built in a pooled buffer and copied into
// the ring slot's own array).
func TestResolveDisabledPathAllocs(t *testing.T) {
	snap := testConst.Snapshot(0)
	maputo := geo.NewPoint(-25.9692, 32.5732)
	up, ok := snap.BestVisible(maputo)
	if !ok {
		t.Fatal("no visibility")
	}
	hot := testObject("alloc-hot")

	run := func(s *System) float64 {
		rng := stats.NewRand(3)
		return testing.AllocsPerRun(200, func() {
			if _, err := s.Resolve(maputo, "MZ", hot, snap, rng); err != nil {
				t.Fatal(err)
			}
		})
	}

	base := newSystem(t, DefaultConfig())
	base.Store(up.ID, hot)
	baseAllocs := run(base)

	detached := newSystem(t, DefaultConfig())
	detached.Store(up.ID, hot)
	detached.SetTelemetry(telemetry.New(1))
	detached.SetTelemetry(nil)
	if got := run(detached); got != baseAllocs {
		t.Errorf("detached path allocates %v/op, baseline %v/op", got, baseAllocs)
	}

	unsampled := newSystem(t, DefaultConfig())
	unsampled.Store(up.ID, hot)
	unsampled.SetTelemetry(telemetry.New(0)) // metrics on, tracing off
	t.Cleanup(func() { unsampled.SetTelemetry(nil) })
	if got := run(unsampled); got != baseAllocs {
		t.Errorf("unsampled instrumented path allocates %v/op, baseline %v/op", got, baseAllocs)
	}

	if raceEnabled {
		return // the race detector's sync.Pool drops items at random
	}
	sampled := newSystem(t, DefaultConfig())
	sampled.Store(up.ID, hot)
	sampled.SetTelemetry(telemetry.New(1)) // every request traced
	t.Cleanup(func() { sampled.SetTelemetry(nil) })
	rng := stats.NewRand(4)
	for i := 0; i < telemetry.DefaultTraceCapacity; i++ {
		if _, err := sampled.Resolve(maputo, "MZ", hot, snap, rng); err != nil {
			t.Fatal(err)
		}
	}
	if got := run(sampled); got != baseAllocs {
		t.Errorf("sampled path with a full trace ring allocates %v/op, baseline %v/op", got, baseAllocs)
	}
}
