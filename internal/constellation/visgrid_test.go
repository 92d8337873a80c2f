package constellation

import (
	"math"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
)

// FuzzVisibility: for any Walker shell New accepts (at most 1,600
// satellites, optionally composed with the 53 degree shell of
// TestPolarShellGridMatchesScan), any instant and any ground point, the
// grid-backed Visible and BestVisible equal their full scans — on a
// fresh snapshot and on a sweep cursor that reached the same instant through
// one long AdvanceTo jump (the exact-recompute fallback) and several 15 s
// steps (the neighbour-cell migration).
func FuzzVisibility(f *testing.F) {
	type seed struct {
		planes, spp, phasing uint16
		incl, alt, mask      float64
		ms                   int64
		lat, lon             float64
		extraShell           bool
	}
	for _, s := range []seed{
		{72, 22, 17, 53, 550, 25, 7 * 60 * 1000, 40.7, -74, false}, // Starlink Shell 1
		{72, 22, 17, 53, 550, 25, 3600 * 1000, 90, 0, false},
		{72, 22, 17, 53, 550, 25, 3600 * 1000, -90, 0, false},
		{72, 22, 17, 53, 550, 25, 600 * 1000, 10, 180, false},
		{72, 22, 17, 53, 550, 25, 600 * 1000, -10, -180, false},
		{72, 22, 17, 53, 550, 25, 0, 20, 30, false}, // a cell corner of the 18x36 grid
		{72, 22, 17, 53, 550, 0, 900 * 1000, 51.5, -0.1, false},
		{12, 24, 3, 97.6, 560, 25, 23 * 60 * 1000, 84, 10, true},
		{12, 24, 3, 97.6, 560, 25, 23 * 60 * 1000, -78, -60, true},
		// Literals outside the normal ranges: the grid used to clamp the
		// longitude column instead of wrapping it.
		{72, 22, 17, 53, 550, 25, 0, 22, 200, false},
		{72, 22, 17, 53, 550, 25, 0, 22, 530, false},
		{72, 22, 17, 53, 550, 25, 0, 22, -470, false},
		{72, 22, 17, 53, 550, 25, 0, 100, 30, false},
		{72, 22, 17, 53, 550, 25, 0, -131, 1e6, false},
		{72, 22, 17, 53, 550, 25, 0, math.NaN(), 10, false},
		{72, 22, 17, 53, 550, 25, 0, 10, math.Inf(-1), false},
	} {
		f.Add(s.planes, s.spp, s.phasing, s.incl, s.alt, s.mask, s.ms, s.lat, s.lon, s.extraShell)
	}
	f.Fuzz(func(t *testing.T, planes, spp, phasing uint16, incl, alt, mask float64, ms int64, lat, lon float64, extraShell bool) {
		w := orbit.Walker{AltitudeKm: alt, InclinationDeg: incl, Planes: int(planes), SatsPerPlane: int(spp), PhasingF: int(phasing)}
		cfg := Config{Walker: w, MinElevationDeg: mask, CrossPlaneISLs: true}
		n := w.Planes * w.SatsPerPlane
		if extraShell {
			extra := WalkerShell{AltitudeKm: 550, InclinationDeg: 53, Planes: 18, SatsPerPlane: 20, PhasingF: 5}
			cfg.Walker, cfg.Shells = orbit.Walker{}, []WalkerShell{w, extra}
			n += extra.Planes * extra.SatsPerPlane
		}
		if n > 1600 {
			t.Skip("more than 1,600 satellites")
		}
		c, err := New(cfg)
		if err != nil {
			t.Skip(err)
		}
		const step = 15 * time.Second
		at := time.Duration(ms%(10*86400*1000)) * time.Millisecond
		if at < 0 {
			at = -at
		}
		// The raw literal, not geo.NewPoint: library callers may pass any
		// float, and the grid must answer what the scan answers.
		pt := geo.Point{LatDeg: lat, LonDeg: lon}
		assertGroundAnswersMatchScan(t, c.Snapshot(at), pt)

		sw := c.Sweep(0, 0)
		defer sw.Close()
		for k := 4; k >= 0; k-- {
			if to := at - time.Duration(k)*step; to >= sw.Time() {
				sw.AdvanceTo(to)
			}
		}
		assertGroundAnswersMatchScan(t, sw.At(), pt)
	})
}

// assertGridPlacesEverySatellite checks that each satellite sits in exactly
// the cell cellRC gives for its position, and in no other.
func assertGridPlacesEverySatellite(t *testing.T, s *Snapshot) {
	t.Helper()
	g := s.grid
	if g == nil {
		t.Fatalf("t=%v: snapshot handed out without its visibility grid", s.Time())
	}
	gm := g.geom
	seen := make([]int, len(s.pos))
	for cell, head := range g.head {
		for id := head; id >= 0; id = g.next[id] {
			seen[id]++
			pt := s.pos[id].ToPoint()
			if want := gm.cellIndex(pt.LatDeg, pt.LonDeg); cell != want {
				t.Fatalf("t=%v: satellite %d listed in cell %d, cellRC says %d", s.Time(), id, cell, want)
			}
		}
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("t=%v: satellite %d listed %d times", s.Time(), id, k)
		}
	}
}

// TestTopologiesBornFinished: a fresh snapshot carries its visibility grid
// before any query, a sweep cursor keeps its grid exact across advances, and
// a degraded masked view carries its masked ISL graph from the moment Masked
// returns — none of them is completed by its first reader.
func TestTopologiesBornFinished(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(7 * time.Minute)
	assertGridPlacesEverySatellite(t, snap)

	sw := c.Sweep(0, 15*time.Second)
	defer sw.Close()
	for i := 0; i < 3; i++ {
		sw.Advance()
	}
	assertGridPlacesEverySatellite(t, sw.At())

	dead := routing.NewBitset(c.Total())
	for _, id := range []int{0, 5, 700, c.Total() - 1} {
		dead.Set(id)
	}
	v := snap.Masked(1, dead, nil)
	if v.islGraph == nil {
		t.Fatal("a degraded view is handed out without its masked graph")
	}
	edges := 0
	for a := 0; a < v.islGraph.Len(); a++ {
		for _, e := range v.islGraph.Neighbors(routing.NodeID(a)) {
			edges++
			if dead.Test(a) || dead.Test(int(e.To)) {
				t.Fatalf("masked graph keeps edge %d-%d touching a dead satellite", a, e.To)
			}
		}
	}
	if edges == 0 {
		t.Fatal("masked graph has no edges; the test proves nothing")
	}
}
