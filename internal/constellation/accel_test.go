package constellation

import (
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
)

// randomPoints spreads test ground points over the sphere, biased to include
// the poles, the date line, and the equator — the grid's wraparound edges.
func randomPoints(rng *rand.Rand, n int) []geo.Point {
	pts := []geo.Point{
		geo.NewPoint(89.9, 10),
		geo.NewPoint(-89.9, -170),
		geo.NewPoint(0, 180),
		geo.NewPoint(0, -180),
		geo.NewPoint(53, 179.97),
		geo.NewPoint(-53, 0.01),
	}
	for len(pts) < n {
		pts = append(pts, geo.NewPoint(rng.Float64()*180-90, rng.Float64()*360-180))
	}
	return pts
}

func TestVisibleGridMatchesScan(t *testing.T) {
	c := MustNew(DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	for _, tm := range []time.Duration{0, 97 * time.Second, 31 * time.Minute} {
		snap := c.Snapshot(tm)
		for _, pt := range randomPoints(rng, 60) {
			want := snap.VisibleScan(pt)
			got := snap.Visible(pt)
			if len(got) != len(want) {
				t.Fatalf("t=%v %v: grid found %d sats, scan %d", tm, pt, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("t=%v %v sat %d: grid %+v != scan %+v", tm, pt, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBestVisibleGridMatchesScan(t *testing.T) {
	c := MustNew(DefaultConfig())
	rng := rand.New(rand.NewSource(43))
	snap := c.Snapshot(5 * time.Minute)
	for _, pt := range randomPoints(rng, 120) {
		want, wok := snap.BestVisibleScan(pt)
		got, gok := snap.BestVisible(pt)
		if wok != gok || got != want {
			t.Fatalf("%v: grid (%+v,%v) != scan (%+v,%v)", pt, got, gok, want, wok)
		}
	}
}

func TestBestVisibleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(40.7, -74)
	snap.BestVisible(pt) // build the grid outside the measurement
	allocs := testing.AllocsPerRun(100, func() {
		snap.BestVisible(pt)
	})
	if allocs != 0 {
		t.Fatalf("BestVisible allocs/op = %v, want 0", allocs)
	}
}

// islGraphReference is the pre-acceleration map-deduped build, retained
// verbatim as the order oracle: the production build must emit the same
// edges in the same order so downstream tie-breaking is unchanged.
func islGraphReference(s *Snapshot) *routing.Graph {
	g := routing.NewGraph(len(s.pos))
	type link struct{ a, b SatID }
	seen := make(map[link]bool, 2*len(s.pos))
	for id := 0; id < len(s.pos); id++ {
		for _, nb := range s.ISLNeighbors(SatID(id)) {
			a, b := SatID(id), nb
			if a > b {
				a, b = b, a
			}
			if a == b || seen[link{a, b}] {
				continue
			}
			seen[link{a, b}] = true
			w := s.ISLDistanceKm(a, b) / orbit.LightSpeedKmPerSec * 1000
			g.AddUndirected(routing.NodeID(a), routing.NodeID(b), w)
		}
	}
	return g
}

func assertGraphsIdentical(t *testing.T, got, want *routing.Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("graph shape: got %d nodes/%d edges, want %d/%d",
			got.Len(), got.EdgeCount(), want.Len(), want.EdgeCount())
	}
	for n := 0; n < want.Len(); n++ {
		ge, we := got.Neighbors(routing.NodeID(n)), want.Neighbors(routing.NodeID(n))
		if len(ge) != len(we) {
			t.Fatalf("node %d: %d edges, want %d", n, len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				t.Fatalf("node %d edge %d: got %+v, want %+v (order must match)", n, i, ge[i], we[i])
			}
		}
	}
}

func TestISLGraphMatchesMapReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"no-cross-plane", func() Config {
			cfg := DefaultConfig()
			cfg.CrossPlaneISLs = false
			return cfg
		}()},
		{"two-per-plane", Config{
			// SatsPerPlane=2 makes next-slot and prev-slot the same
			// neighbour — the in-list duplicate case.
			Walker: orbit.Walker{
				AltitudeKm: 550, InclinationDeg: 53,
				Planes: 6, SatsPerPlane: 2, PhasingF: 1,
			},
			MinElevationDeg: 25,
			CrossPlaneISLs:  true,
		}},
		{"asymmetric-phasing", Config{
			Walker: orbit.Walker{
				AltitudeKm: 550, InclinationDeg: 53,
				Planes: 5, SatsPerPlane: 7, PhasingF: 3,
			},
			MinElevationDeg: 25,
			CrossPlaneISLs:  true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(tc.cfg)
			for _, tm := range []time.Duration{0, 13 * time.Minute} {
				snap := c.Snapshot(tm)
				assertGraphsIdentical(t, snap.ISLGraph(), islGraphReference(snap))
			}
		})
	}
}

func TestPathTreeMemo(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	g := snap.ISLGraph()
	c.ResetPathMemoCounters()

	t1 := snap.PathTree(7)
	if h, m := c.PathMemoCounters(); h != 0 || m != 1 {
		t.Fatalf("after first build: hits=%d misses=%d, want 0/1", h, m)
	}
	t2 := snap.PathTree(7)
	if t1 != t2 {
		t.Fatal("second PathTree call must return the memoized tree")
	}
	if h, _ := c.PathMemoCounters(); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	// The memoized tree must agree with a direct Dijkstra.
	dist := g.ShortestPathsFrom(7)
	for n := 0; n < g.Len(); n++ {
		if t1.Dist(routing.NodeID(n)) != dist[n] {
			t.Fatalf("node %d: memo dist %v != dijkstra %v", n, t1.Dist(routing.NodeID(n)), dist[n])
		}
	}
	// A budgeted query on a cold tree leaves it partly settled; the same
	// memoized tree still answers for every node afterwards.
	t3 := snap.PathTree(9)
	if _, ok := t3.DistWithin(0, 1e-9); ok {
		t.Fatal("a nanosecond budget must not reach another satellite")
	}
	if snap.PathTree(9) != t3 || t3.Dist(0) != g.ShortestPathsFrom(9)[0] {
		t.Fatal("a partly settled tree must stay memoized and resume to the exact distance")
	}
	if snap.PathTree(-1) != nil || snap.PathTree(SatID(g.Len())) != nil {
		t.Fatal("out-of-range sources must return nil")
	}
}

func TestPathTreeZeroAllocOnHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	snap.PathTree(3) // warm
	allocs := testing.AllocsPerRun(100, func() {
		tr := snap.PathTree(3)
		if _, ok := tr.HopsTo(900); !ok {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PathTree allocs/op = %v, want 0", allocs)
	}
}

func TestVisGridCandidateWindowsAreConservative(t *testing.T) {
	// Every satellite within the slant-range prefilter must be yielded as a
	// candidate — otherwise grid results could silently miss satellites.
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(7 * time.Minute)
	vg := snap.grid
	maxSlant := geo.SlantRangeKm(c.cfg.Walker.AltitudeKm, c.cfg.MinElevationDeg)
	rng := rand.New(rand.NewSource(45))
	for _, pt := range randomPoints(rng, 40) {
		gv := pt.ToECEF()
		lam := vg.maxCentralAngleRad(gv.Norm(), maxSlant)
		inWindow := make(map[int32]bool)
		vg.forEachCandidate(pt.LatDeg, pt.LonDeg, lam, func(id int32) {
			if inWindow[id] {
				t.Fatalf("%v: satellite %d yielded twice", pt, id)
			}
			inWindow[id] = true
		})
		for id := range snap.pos {
			if snap.pos[id].Sub(gv).Norm() <= maxSlant && !inWindow[int32(id)] {
				t.Fatalf("%v: satellite %d within slant range but not a candidate", pt, id)
			}
		}
	}
}

func TestVisGridEmptyConstellationNearest(t *testing.T) {
	vg := newVisGrid(&Snapshot{c: &Constellation{geom: newGridGeom(0)}})
	if lam := vg.maxCentralAngleRad(geo.EarthRadiusKm, 1000); lam != 0 {
		t.Fatalf("empty grid central angle = %v, want 0", lam)
	}
}

func BenchmarkISLGraphBuild(b *testing.B) {
	c := MustNew(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := c.Snapshot(time.Duration(i) * time.Second)
		snap.ISLGraph()
	}
}

// BenchmarkBestVisibleGrid times the grid query itself — what a memo miss
// pays — by calling it under the memo (Snapshot.BestVisible would hit).
func BenchmarkBestVisibleGrid(b *testing.B) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(40.7, -74)
	grid := snap.grid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.bestVisible(snap, pt)
	}
}

func BenchmarkBestVisibleScan(b *testing.B) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(40.7, -74)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.BestVisibleScan(pt)
	}
}
