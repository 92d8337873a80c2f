package constellation

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
)

func small() *Constellation {
	// A reduced shell keeps geometry realistic but tests fast.
	return MustNew(Config{
		Walker: orbit.Walker{
			AltitudeKm: 550, InclinationDeg: 53,
			Planes: 12, SatsPerPlane: 10, PhasingF: 5,
		},
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Walker: orbit.Walker{}}); err == nil {
		t.Error("invalid walker accepted")
	}
	cfg := DefaultConfig()
	cfg.MinElevationDeg = 95
	if _, err := New(cfg); err == nil {
		t.Error("invalid elevation mask accepted")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestNewRejectsNonFiniteConfig: every range check fails a NaN (a
// comparison with NaN is false, so `x <= 0` lets one through), an infinite
// altitude is no orbit either, and each error names the field at fault —
// for the single-shell form and for a shell of a composite.
func TestNewRejectsNonFiniteConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	shell := func(alt, incl float64) orbit.Walker {
		return orbit.Walker{AltitudeKm: alt, InclinationDeg: incl, Planes: 12, SatsPerPlane: 10, PhasingF: 5}
	}
	for _, tc := range []struct {
		name  string
		alt   float64
		incl  float64
		mask  float64
		field string
	}{
		{"NaN altitude", nan, 53, 25, "altitude"},
		{"infinite altitude", inf, 53, 25, "altitude"},
		{"NaN inclination", 550, nan, 25, "inclination"},
		{"NaN elevation mask", 550, 53, nan, "elevation mask"},
		{"negative elevation mask", 550, 53, -1, "elevation mask"},
		{"infinite elevation mask", 550, 53, inf, "elevation mask"},
	} {
		for _, cfg := range []Config{
			{Walker: shell(tc.alt, tc.incl), MinElevationDeg: tc.mask},
			{Shells: []WalkerShell{shell(550, 53), shell(tc.alt, tc.incl)}, MinElevationDeg: tc.mask},
		} {
			c, err := New(cfg)
			if err == nil {
				t.Errorf("%s accepted (first satellite at %v)", tc.name, c.Snapshot(0).Position(0))
				continue
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s: error %q does not name the %s", tc.name, err, tc.field)
			}
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestIDMapping(t *testing.T) {
	c := small()
	for p := 0; p < c.Planes(); p++ {
		for k := 0; k < c.SatsPerPlane(); k++ {
			id := c.ID(p, k)
			if c.Plane(id) != p || c.Slot(id) != k {
				t.Fatalf("round trip failed for plane=%d slot=%d: id=%d", p, k, id)
			}
		}
	}
	if c.Total() != 120 {
		t.Errorf("Total = %d, want 120", c.Total())
	}
}

func TestISLNeighborsGrid(t *testing.T) {
	c := small()
	s := c.Snapshot(0)
	id := c.ID(3, 4)
	nbs := s.ISLNeighbors(id)
	if len(nbs) != 4 {
		t.Fatalf("expected 4 +grid neighbours, got %d", len(nbs))
	}
	want := map[SatID]bool{
		c.ID(3, 5): true, c.ID(3, 3): true,
		c.ID(4, 4): true, c.ID(2, 4): true,
	}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("unexpected neighbour %d (plane %d slot %d)", nb, c.Plane(nb), c.Slot(nb))
		}
	}
}

func TestISLNeighborsWrap(t *testing.T) {
	c := small()
	s := c.Snapshot(0)
	nbs := s.ISLNeighbors(c.ID(0, 0))
	// Intra-plane wraps to slot 9; cross-plane east pairs with the
	// phase-nearest slot in plane 1 (slot 0 at a 15 deg offset) and west
	// across the phasing seam with slot 5 in plane 11 (the seam offset is
	// F*(P-1)/P = 4.58 slots, rounding to 5).
	want := map[SatID]bool{
		c.ID(0, 1): true, c.ID(0, 9): true,
		c.ID(1, 0): true, c.ID(11, 5): true,
	}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("wrap neighbour wrong: plane %d slot %d", c.Plane(nb), c.Slot(nb))
		}
	}
	// Neighbour links must pair near-phase satellites. With only 12 planes
	// the seam spans 30 deg of RAAN so links are long, but a mispairing
	// (quarter-orbit offset) would exceed ~9,000 km.
	for _, nb := range nbs {
		if d := s.ISLDistanceKm(c.ID(0, 0), nb); d > 6000 {
			t.Errorf("neighbour %d is %v km away", nb, d)
		}
	}
}

func TestNoCrossPlaneISLs(t *testing.T) {
	cfg := Config{
		Walker:          orbit.Walker{AltitudeKm: 550, InclinationDeg: 53, Planes: 6, SatsPerPlane: 8},
		MinElevationDeg: 25,
	}
	c := MustNew(cfg)
	s := c.Snapshot(0)
	nbs := s.ISLNeighbors(c.ID(2, 3))
	if len(nbs) != 2 {
		t.Fatalf("expected 2 intra-plane neighbours, got %d", len(nbs))
	}
	for _, nb := range nbs {
		if c.Plane(nb) != 2 {
			t.Errorf("cross-plane neighbour present without CrossPlaneISLs: %d", nb)
		}
	}
}

func TestISLGraphShape(t *testing.T) {
	c := small()
	s := c.Snapshot(0)
	g := s.ISLGraph()
	if g.Len() != c.Total() {
		t.Fatalf("graph size %d != %d", g.Len(), c.Total())
	}
	// +grid: every node has degree 4 => directed edge count = 4*N.
	if got, want := g.EdgeCount(), 4*c.Total(); got != want {
		t.Errorf("edge count %d, want %d", got, want)
	}
	// The graph is cached.
	if s.ISLGraph() != g {
		t.Error("ISLGraph not cached")
	}
}

func TestISLGraphConnected(t *testing.T) {
	c := small()
	d := c.Snapshot(0).ISLGraph().ShortestPathsFrom(0)
	for i, v := range d {
		if math.IsInf(v, 1) {
			t.Fatalf("satellite %d unreachable over ISLs", i)
		}
	}
}

func TestISLDistancesPhysical(t *testing.T) {
	// Intra-plane ISL distances for Shell 1 are ~1,930 km (360/22 deg arc at
	// r=6921 km); cross-plane distances vary with latitude but stay below
	// ~2,000 km and above ~100 km.
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	intra := s.ISLDistanceKm(c.ID(0, 0), c.ID(0, 1))
	if intra < 1800 || intra > 2050 {
		t.Errorf("intra-plane ISL = %v km, want ~1930", intra)
	}
	for _, id := range []SatID{0, 500, 1000} {
		for _, nb := range s.ISLNeighbors(id) {
			d := s.ISLDistanceKm(id, nb)
			if d < 50 || d > 2100 {
				t.Errorf("ISL %d-%d distance %v km out of physical range", id, nb, d)
			}
		}
	}
}

func TestISLDelayMatchesDistance(t *testing.T) {
	c := small()
	s := c.Snapshot(0)
	a, b := c.ID(0, 0), c.ID(0, 1)
	wantMs := s.ISLDistanceKm(a, b) / orbit.LightSpeedKmPerSec * 1000
	gotMs := float64(s.ISLDelay(a, b)) / float64(time.Millisecond)
	if math.Abs(wantMs-gotMs) > 1e-6 {
		t.Errorf("ISLDelay = %v ms, want %v ms", gotMs, wantMs)
	}
}

func TestVisibleShell1(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	// Mid-latitude users always see several Shell 1 satellites.
	for _, loc := range []geo.Point{
		geo.NewPoint(50.1, 8.7),    // Frankfurt
		geo.NewPoint(-25.97, 32.6), // Maputo
		geo.NewPoint(40.7, -74.0),  // New York
	} {
		vis := s.Visible(loc)
		if len(vis) == 0 {
			t.Errorf("no visible satellite from %v", loc)
			continue
		}
		for i, v := range vis {
			if v.ElevationDeg < 25 {
				t.Errorf("satellite below mask returned: %+v", v)
			}
			if i > 0 && vis[i-1].ElevationDeg < v.ElevationDeg {
				t.Error("Visible not sorted by elevation")
			}
			maxSlant := geo.SlantRangeKm(550, 25)
			if v.SlantKm > maxSlant+1 {
				t.Errorf("slant %v exceeds max %v", v.SlantKm, maxSlant)
			}
		}
	}
}

func TestVisibleAtPole(t *testing.T) {
	// A 53-degree shell leaves the poles uncovered at a 25-degree mask.
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	if vis := s.Visible(geo.NewPoint(89.9, 0)); len(vis) != 0 {
		t.Errorf("pole should see no Shell 1 satellite above 25 deg, got %d", len(vis))
	}
	if _, ok := s.BestVisible(geo.NewPoint(89.9, 0)); ok {
		t.Error("BestVisible at pole should fail")
	}
}

func TestBestVisibleAgreesWithVisible(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Snapshot(13 * time.Minute)
	loc := geo.NewPoint(48.1, 11.6)
	vis := s.Visible(loc)
	best, ok := s.BestVisible(loc)
	if !ok || len(vis) == 0 {
		t.Fatal("expected visibility in Munich")
	}
	if best.ID != vis[0].ID {
		t.Errorf("BestVisible %d != Visible[0] %d", best.ID, vis[0].ID)
	}
}

// TestBestVisibleIsNearestVisible: on a single-altitude shell the highest
// satellite is also the closest one in view, and a point outside the
// shell's coverage has none.
func TestBestVisibleIsNearestVisible(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	if best, ok := s.BestVisible(geo.NewPoint(89.9, 0)); ok {
		t.Errorf("53 degree shell visible from the pole: %+v", best)
	}
	loc := geo.NewPoint(50.1, 8.7)
	vis := s.Visible(loc)
	if len(vis) == 0 {
		t.Fatal("no visibility from Frankfurt")
	}
	minSlant := math.Inf(1)
	for _, v := range vis {
		if v.SlantKm < minSlant {
			minSlant = v.SlantKm
		}
	}
	if best, _ := s.BestVisible(loc); best.SlantKm > minSlant+1e-9 {
		t.Errorf("BestVisible slant %v exceeds min visible slant %v", best.SlantKm, minSlant)
	}
}

func TestUpDownDelayPhysical(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	loc := geo.NewPoint(50.1, 8.7)
	best, ok := s.BestVisible(loc)
	if !ok {
		t.Fatal("no visible satellite")
	}
	d := s.UpDownDelay(loc, best.ID)
	// 550-1100 km slant => 1.8-3.8 ms one way.
	if d < 1500*time.Microsecond || d > 4*time.Millisecond {
		t.Errorf("up/down delay = %v, want ~2-4 ms", d)
	}
}

func TestSnapshotsDiffer(t *testing.T) {
	c := small()
	s0 := c.Snapshot(0)
	s1 := c.Snapshot(time.Minute)
	moved := s0.Position(0).Sub(s1.Position(0)).Norm()
	// 7.6 km/s * 60 s = ~456 km.
	if moved < 400 || moved > 500 {
		t.Errorf("satellite moved %v km in a minute, want ~456", moved)
	}
	if s0.Time() != 0 || s1.Time() != time.Minute {
		t.Error("snapshot times wrong")
	}
}

func TestOverheadWindows(t *testing.T) {
	c := MustNew(DefaultConfig())
	loc := geo.NewPoint(50.1, 8.7)
	wins := c.OverheadWindows(loc, 0, 30*time.Minute, 15*time.Second)
	if len(wins) < 2 {
		t.Fatalf("expected several serving windows in 30 min, got %d", len(wins))
	}
	var total time.Duration
	for i, w := range wins {
		if w.End <= w.Start {
			t.Errorf("window %d has non-positive span: %+v", i, w)
		}
		if i > 0 && w.Start < wins[i-1].End {
			t.Errorf("windows overlap: %+v then %+v", wins[i-1], w)
		}
		if i > 0 && wins[i-1].Sat == w.Sat && wins[i-1].End == w.Start {
			t.Errorf("adjacent windows for same satellite not merged: %+v %+v", wins[i-1], w)
		}
		dur := w.End - w.Start
		total += dur
		// The paper: satellites leave line-of-sight within 5-10 minutes.
		if dur > 12*time.Minute {
			t.Errorf("serving window too long: %v", dur)
		}
	}
	// Frankfurt is well covered: near-continuous service.
	if total < 25*time.Minute {
		t.Errorf("coverage gap too large: total served %v of 30m", total)
	}
}

func TestOverheadWindowsDegenerate(t *testing.T) {
	c := small()
	if w := c.OverheadWindows(geo.NewPoint(0, 0), 0, time.Minute, 0); w != nil {
		t.Error("zero step should return nil")
	}
	if w := c.OverheadWindows(geo.NewPoint(0, 0), time.Minute, 0, time.Second); w != nil {
		t.Error("empty interval should return nil")
	}
}

func TestISLGraphUsableWithRouting(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := c.Snapshot(0)
	g := s.ISLGraph()
	// Best ISL path between any visible satellite over Maputo and any over
	// Frankfurt. The +grid imposes a geometric stretch (ascending vs
	// descending sheets can be tens of planes apart), so the bound is loose:
	// the path can never beat light over the geodesic and should stay below
	// ~3x of it.
	maputo := geo.NewPoint(-25.97, 32.57)
	frankfurt := geo.NewPoint(50.11, 8.68)
	va := s.Visible(maputo)
	vb := s.Visible(frankfurt)
	if len(va) == 0 || len(vb) == 0 {
		t.Fatal("no visibility")
	}
	best := math.Inf(1)
	bestHops := 0
	for _, a := range va {
		dist := g.ShortestPathsFrom(routing.NodeID(a.ID))
		for _, b := range vb {
			if dist[b.ID] < best {
				best = dist[b.ID]
				p, ok := g.ShortestPath(routing.NodeID(a.ID), routing.NodeID(b.ID))
				if !ok {
					t.Fatalf("inconsistent reachability for %d->%d", a.ID, b.ID)
				}
				bestHops = p.Hops()
			}
		}
	}
	geodesicMs := geo.HaversineKm(maputo, frankfurt) / orbit.LightSpeedKmPerSec * 1000
	if best < geodesicMs {
		t.Errorf("ISL path cost %v ms beats light over the geodesic %v ms", best, geodesicMs)
	}
	if best > geodesicMs*3 {
		t.Errorf("ISL path cost %v ms too slow vs geodesic %v ms", best, geodesicMs)
	}
	if bestHops < 5 || bestHops > 25 {
		t.Errorf("hops = %d for an 8,800 km route, want ~10-20", bestHops)
	}
}

// TestISLGraphConcurrentBuild races many first callers at the lazy graph
// build; under -race this pins the sync.Once guard, and all callers must
// observe the identical shared graph.
func TestISLGraphConcurrentBuild(t *testing.T) {
	snap := small().Snapshot(90 * time.Second)
	const callers = 16
	graphs := make([]*routing.Graph, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = snap.ISLGraph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("caller %d saw a different graph instance", i)
		}
	}
	if graphs[0].EdgeCount() == 0 {
		t.Fatal("concurrently built graph is empty")
	}
}
