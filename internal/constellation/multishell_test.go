package constellation

import (
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
)

// Multi-shell composites: shell-offset id layout, per-shell topology, the
// adaptive visibility grid, and the scale-aware memo — proven against the
// same naive oracles as the single-shell forms.

// twoShellPhased is a small two-shell composite with non-default phasing in
// both shells and different plane sizes, so any arithmetic that assumes a
// global SatsPerPlane or phase factor fails loudly.
func twoShellPhased() Config {
	return Config{
		Shells: []WalkerShell{
			{AltitudeKm: 550, InclinationDeg: 53, Planes: 12, SatsPerPlane: 10, PhasingF: 7},
			{AltitudeKm: 620, InclinationDeg: 70, Planes: 9, SatsPerPlane: 16, PhasingF: 4},
		},
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	}
}

func TestMultiShellPresetShapes(t *testing.T) {
	gen2 := MustNew(StarlinkGen2Config())
	if gen2.Total() != 7500 || gen2.ShellCount() != 3 {
		t.Fatalf("Gen2: %d sats in %d shells, want 7500 in 3", gen2.Total(), gen2.ShellCount())
	}
	kuiper := MustNew(KuiperConfig())
	if kuiper.Total() != 3236 || kuiper.ShellCount() != 3 {
		t.Fatalf("Kuiper: %d sats in %d shells, want 3236 in 3", kuiper.Total(), kuiper.ShellCount())
	}
	// Shell ranges tile [0, Total) in order, and global plane counts add up.
	for _, c := range []*Constellation{gen2, kuiper} {
		next, planes := SatID(0), 0
		for i := 0; i < c.ShellCount(); i++ {
			first, count := c.ShellRange(i)
			if first != next {
				t.Fatalf("shell %d starts at %d, want %d", i, first, next)
			}
			next += SatID(count)
			planes += c.Shell(i).Planes
		}
		if int(next) != c.Total() || planes != c.Planes() {
			t.Fatalf("shells cover %d sats / %d planes, want %d / %d",
				next, planes, c.Total(), c.Planes())
		}
	}
}

func TestMultiShellConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shells = orbit.Kuiper()
	if _, err := New(cfg); err == nil {
		t.Fatal("Walker and Shells set together must be rejected")
	}
	bad := KuiperConfig()
	bad.Shells[1].SatsPerPlane = 0
	if _, err := New(bad); err == nil {
		t.Fatal("malformed shell must be rejected")
	}
}

func TestMultiShellIDRoundTrip(t *testing.T) {
	// Property: ID(Plane(id), Slot(id)) == id for every satellite, the slot
	// stays within its plane's size, and the id maps into the shell whose
	// range contains it — across presets and non-default phasing.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"shell1", DefaultConfig()},
		{"gen2", StarlinkGen2Config()},
		{"kuiper", KuiperConfig()},
		{"two-shell-phased", twoShellPhased()},
	} {
		c := MustNew(tc.cfg)
		slots := 0
		for plane := 0; plane < c.Planes(); plane++ {
			slots += c.PlaneSlots(plane)
		}
		if slots != c.Total() {
			t.Fatalf("%s: plane slots sum to %d, want %d", tc.name, slots, c.Total())
		}
		for id := SatID(0); int(id) < c.Total(); id++ {
			p, k := c.Plane(id), c.Slot(id)
			if back := c.ID(p, k); back != id {
				t.Fatalf("%s: ID(%d,%d) = %d, want %d", tc.name, p, k, back, id)
			}
			if k < 0 || k >= c.PlaneSlots(p) {
				t.Fatalf("%s: sat %d slot %d outside plane %d's %d slots",
					tc.name, id, k, p, c.PlaneSlots(p))
			}
			sh := c.ShellOf(id)
			first, count := c.ShellRange(sh)
			if id < first || int(id) >= int(first)+count {
				t.Fatalf("%s: sat %d attributed to shell %d [%d,%d)",
					tc.name, id, sh, first, int(first)+count)
			}
		}
	}
}

func TestMultiShellISLNeighborSymmetry(t *testing.T) {
	// The +grid symmetry property must survive the shell stitching, and no
	// neighbour may ever cross a shell boundary: ISLs are intra-shell.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"gen2", StarlinkGen2Config()},
		{"kuiper", KuiperConfig()},
		{"two-shell-phased", twoShellPhased()},
	} {
		c := MustNew(tc.cfg)
		s := c.Snapshot(0)
		asym := 0
		for id := 0; id < c.Total(); id++ {
			shell := c.ShellOf(SatID(id))
			for _, nb := range s.ISLNeighbors(SatID(id)) {
				if c.ShellOf(nb) != shell {
					t.Fatalf("%s: sat %d (shell %d) links to %d (shell %d)",
						tc.name, id, shell, nb, c.ShellOf(nb))
				}
				back := false
				for _, rev := range s.ISLNeighbors(nb) {
					if rev == SatID(id) {
						back = true
						break
					}
				}
				if !back {
					asym++
				}
			}
		}
		if asym > c.Total()/50 {
			t.Errorf("%s: %d asymmetric neighbour entries over %d sats",
				tc.name, asym, c.Total())
		}
	}
}

func TestMultiShellPositionsMatchElements(t *testing.T) {
	// Kuiper's three altitudes exercise the per-group mean motions of the
	// SoA engine; every shell's positions must match direct propagation.
	c := MustNew(KuiperConfig())
	for _, dt := range []time.Duration{0, 7 * time.Minute, time.Hour} {
		s := c.Snapshot(dt)
		for sh := 0; sh < c.ShellCount(); sh++ {
			first, count := c.ShellRange(sh)
			for _, off := range []int{0, count / 3, count - 1} {
				id := first + SatID(off)
				want := c.Elements(id).PositionECEF(dt)
				if got := s.Position(id); got.Sub(want).Norm() > 1e-9 {
					t.Fatalf("shell %d sat %d at %v: %v != %v", sh, id, dt, got, want)
				}
			}
		}
	}
}

// multiShellQueryPoints mixes random ground points with polar and dateline
// adversaries — the cap-merge and wraparound paths of the adaptive grid.
func multiShellQueryPoints(rng *rand.Rand) []geo.Point {
	pts := randomPoints(rng, 25)
	return append(pts,
		geo.Point{LatDeg: 89.9, LonDeg: 45},
		geo.Point{LatDeg: -89.9, LonDeg: -135},
		geo.Point{LatDeg: 72, LonDeg: -179.95},
		geo.Point{LatDeg: -71, LonDeg: 179.95},
		geo.Point{LatDeg: 55, LonDeg: 0},
	)
}

func TestMultiShellGridMatchesScan(t *testing.T) {
	// The adaptive grid (Kuiper: 21x42 cells) against the naive full-scan
	// oracles, over mixed-altitude shells.
	c := MustNew(KuiperConfig())
	rng := rand.New(rand.NewSource(91))
	pts := multiShellQueryPoints(rng)
	for _, dt := range []time.Duration{0, 11 * time.Minute, 3 * time.Hour} {
		s := c.Snapshot(dt)
		for _, pt := range pts {
			gv, wv := s.Visible(pt), s.VisibleScan(pt)
			if len(gv) != len(wv) {
				t.Fatalf("t=%v %+v: %d visible vs scan %d", dt, pt, len(gv), len(wv))
			}
			for i := range wv {
				if gv[i] != wv[i] {
					t.Fatalf("t=%v %+v visible[%d]: %+v != %+v", dt, pt, i, gv[i], wv[i])
				}
			}
			gb, gok := s.BestVisible(pt)
			wb, wok := s.BestVisibleScan(pt)
			if gok != wok || gb != wb {
				t.Fatalf("t=%v %+v best: %+v,%v != %+v,%v", dt, pt, gb, gok, wb, wok)
			}
		}
	}
}

func TestPolarShellGridMatchesScan(t *testing.T) {
	// A sun-synchronous-style polar shell drives satellites through the
	// merged cap rows every orbit; grid answers must still match the scan,
	// including for observers inside the caps.
	c := MustNew(Config{
		Shells: []WalkerShell{
			{AltitudeKm: 560, InclinationDeg: 97.6, Planes: 12, SatsPerPlane: 24, PhasingF: 3},
			{AltitudeKm: 550, InclinationDeg: 53, Planes: 18, SatsPerPlane: 20, PhasingF: 5},
		},
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	})
	rng := rand.New(rand.NewSource(17))
	pts := append(multiShellQueryPoints(rng),
		geo.Point{LatDeg: 84, LonDeg: 10},
		geo.Point{LatDeg: -78, LonDeg: -60},
	)
	for _, dt := range []time.Duration{0, 23 * time.Minute} {
		s := c.Snapshot(dt)
		for _, pt := range pts {
			gb, gok := s.BestVisible(pt)
			wb, wok := s.BestVisibleScan(pt)
			if gok != wok || gb != wb {
				t.Fatalf("t=%v %+v best: %+v,%v != %+v,%v", dt, pt, gb, gok, wb, wok)
			}
		}
	}
}

func TestMultiShellSweepMatchesScan(t *testing.T) {
	// The sweep cursor against the fresh-snapshot reference on a
	// multi-shell composite: positions, visibility, ISL graph and path trees
	// at every step, plus a long jump that migrates satellites across many
	// cells (and through the polar caps).
	c := MustNew(KuiperConfig())
	rng := rand.New(rand.NewSource(53))
	pts := randomPoints(rng, 8)

	const step = 15 * time.Second
	sw := c.Sweep(0, step)
	defer sw.Close()
	sc := c.SweepScan(0, step)

	assertSnapshotsEquivalent(t, sw.At(), sc.At(), pts)
	for i := 0; i < 10; i++ {
		assertSnapshotsEquivalent(t, sw.Advance(), sc.Advance(), pts)
	}
	jump := sw.Time() + 9*time.Minute
	assertSnapshotsEquivalent(t, sw.AdvanceTo(jump), sc.AdvanceTo(jump), pts)
}

func TestAdaptiveGridSizing(t *testing.T) {
	// The resolution rule: rows = max(18, ceil(sqrt(N/8))), cols = 2*rows,
	// with ~20 degree polar caps at any resolution. Shell 1 must keep the
	// original 18x36 grid so single-shell behaviour is unchanged.
	for _, tc := range []struct {
		n          int
		rows, caps int
	}{
		{0, 18, 2},
		{1584, 18, 2},
		{3236, 21, 2},
		{4820, 25, 2},
		{7500, 31, 3},
		{10736, 37, 4},
	} {
		gm := newGridGeom(tc.n)
		if gm.rows != tc.rows || gm.cols != 2*tc.rows || gm.capRows != tc.caps {
			t.Fatalf("n=%d: grid %dx%d caps %d, want %dx%d caps %d",
				tc.n, gm.rows, gm.cols, gm.capRows, tc.rows, 2*tc.rows, tc.caps)
		}
	}
}

func TestPerConstellationMemoCounters(t *testing.T) {
	// Two constellations in one process must account their memo traffic
	// independently — the gauge isolation the multi-shell experiments need.
	a := MustNew(DefaultConfig())
	b := MustNew(KuiperConfig())
	a.ResetPathMemoCounters()
	b.ResetPathMemoCounters()
	sa, sb := a.Snapshot(0), b.Snapshot(0)
	sa.PathTree(3)
	sa.PathTree(3)
	sb.PathTree(5)
	if h, m := a.PathMemoCounters(); h != 1 || m != 1 {
		t.Fatalf("constellation A counters %d/%d, want 1/1", h, m)
	}
	if h, m := b.PathMemoCounters(); h != 0 || m != 1 {
		t.Fatalf("constellation B counters %d/%d, want 0/1", h, m)
	}
}

func TestSweepAdvanceZeroAllocsGen2Scale(t *testing.T) {
	// The headline scale guarantee: at 10k+ satellites (Gen2 + Kuiper
	// composite) a steady-state sweep step still allocates nothing.
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if testing.Short() {
		t.Skip("10k-satellite constellation build in -short mode")
	}
	cfg := StarlinkGen2Config()
	cfg.Shells = append(cfg.Shells, orbit.Kuiper()...)
	c := MustNew(cfg)
	if c.Total() != 10736 {
		t.Fatalf("composite holds %d sats, want 10736", c.Total())
	}
	sw := c.Sweep(0, 15*time.Second)
	defer sw.Close()
	sw.At().ISLGraph()
	for i := 0; i < 20; i++ {
		sw.Advance()
	}
	if avg := testing.AllocsPerRun(50, func() { sw.Advance() }); avg != 0 {
		t.Fatalf("Gen2-scale sweep advance allocates %.1f objects/step, want 0", avg)
	}
}
