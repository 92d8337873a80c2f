package constellation

import (
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
)

// assertSnapshotsEquivalent proves a sweep snapshot indistinguishable from the
// naive reference at the same instant: bit-identical positions, identical
// visibility answers over a spread of ground points, an edge-for-edge
// identical ISL graph, and equal shortest-path distances.
func assertSnapshotsEquivalent(t *testing.T, got, want *Snapshot, pts []geo.Point) {
	t.Helper()
	if got.Time() != want.Time() {
		t.Fatalf("time mismatch: %v vs %v", got.Time(), want.Time())
	}
	for i := range want.pos {
		if got.pos[i] != want.pos[i] {
			t.Fatalf("t=%v sat %d position %v != %v", want.Time(), i, got.pos[i], want.pos[i])
		}
	}
	for _, p := range pts {
		gv, wv := got.Visible(p), want.Visible(p)
		if len(gv) != len(wv) {
			t.Fatalf("t=%v %+v: %d visible vs %d", want.Time(), p, len(gv), len(wv))
		}
		for i := range wv {
			if gv[i] != wv[i] {
				t.Fatalf("t=%v %+v visible[%d]: %+v != %+v", want.Time(), p, i, gv[i], wv[i])
			}
		}
		gb, gok := got.BestVisible(p)
		wb, wok := want.BestVisible(p)
		if gok != wok || gb != wb {
			t.Fatalf("t=%v %+v best: %+v,%v != %+v,%v", want.Time(), p, gb, gok, wb, wok)
		}
	}
	assertGraphsIdentical(t, got.ISLGraph(), want.ISLGraph())
	if gm, wm := got.ISLGraph().MaxEdgeWeight(), want.ISLGraph().MaxEdgeWeight(); gm != wm {
		t.Fatalf("t=%v max edge weight %v != %v", want.Time(), gm, wm)
	}
	for _, src := range []SatID{0, SatID(len(want.pos) / 3), SatID(len(want.pos) / 2)} {
		gt, wt := got.PathTree(src), want.PathTree(src)
		for n := 0; n < len(want.pos); n += 97 {
			if gd, wd := gt.Dist(routing.NodeID(n)), wt.Dist(routing.NodeID(n)); gd != wd {
				t.Fatalf("t=%v tree %d dist to %d: %v != %v", want.Time(), src, n, gd, wd)
			}
		}
	}
}

// TestSweepMatchesScanEveryStep is the tentpole equivalence proof: an
// incremental sweep and the fresh-snapshot reference walked in lockstep must
// be indistinguishable at every step, including after an irregular AdvanceTo
// jump that migrates many satellites at once.
func TestSweepMatchesScanEveryStep(t *testing.T) {
	c := MustNew(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 12)

	const step = 15 * time.Second
	sw := c.Sweep(0, step)
	defer sw.Close()
	sc := c.SweepScan(0, step)

	assertSnapshotsEquivalent(t, sw.At(), sc.At(), pts)
	for i := 0; i < 24; i++ {
		assertSnapshotsEquivalent(t, sw.Advance(), sc.Advance(), pts)
	}
	// A long jump crosses many cell boundaries in one advance.
	jump := sw.Time() + 11*time.Minute
	assertSnapshotsEquivalent(t, sw.AdvanceTo(jump), sc.AdvanceTo(jump), pts)
	for i := 0; i < 6; i++ {
		assertSnapshotsEquivalent(t, sw.Advance(), sc.Advance(), pts)
	}
	if sw.Step() != step || sc.Step() != step {
		t.Fatalf("step accessors: %v, %v, want %v", sw.Step(), sc.Step(), step)
	}
}

// TestSweepMatchesScanAcrossConfigs re-proves the equivalence on the
// degenerate Walker shells where the +grid dedupe and grid migration are
// easiest to get subtly wrong.
func TestSweepMatchesScanAcrossConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no-cross-plane", func() Config {
			cfg := DefaultConfig()
			cfg.CrossPlaneISLs = false
			return cfg
		}()},
		{"two-per-plane", Config{
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
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 8)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNew(tc.cfg)
			sw := c.Sweep(3*time.Minute, 30*time.Second)
			defer sw.Close()
			sc := c.SweepScan(3*time.Minute, 30*time.Second)
			assertSnapshotsEquivalent(t, sw.At(), sc.At(), pts)
			for i := 0; i < 10; i++ {
				assertSnapshotsEquivalent(t, sw.Advance(), sc.Advance(), pts)
			}
		})
	}
}

// TestSweepMaskedMatchesFresh proves fault-masked routing over a sweep
// snapshot identical to the same mask over a fresh snapshot, step after step:
// masked graph builds replay the shared topology's edge list, and the
// composite memo epoch keeps per-step degraded trees from leaking across
// advances.
func TestSweepMaskedMatchesFresh(t *testing.T) {
	c := MustNew(DefaultConfig())
	dead := routing.NewBitset(c.Total())
	dead.Set(17)
	dead.Set(400)
	links := []LinkID{NormalizedLink(3, SatID(c.SatsPerPlane()+3))}

	sw := c.Sweep(0, 15*time.Second)
	defer sw.Close()
	for i := 0; i < 8; i++ {
		snap := sw.Advance()
		fresh := c.Snapshot(snap.Time())
		gv := snap.Masked(9, dead, links)
		wv := fresh.Masked(9, dead, links)
		assertGraphsIdentical(t, gv.ISLGraph(), wv.ISLGraph())
		gt, wt := gv.PathTree(0), wv.PathTree(0)
		for n := 0; n < c.Total(); n += 131 {
			if gd, wd := gt.Dist(routing.NodeID(n)), wt.Dist(routing.NodeID(n)); gd != wd {
				t.Fatalf("step %d masked dist to %d: %v != %v", i, n, gd, wd)
			}
		}
		if gt.Reachable(17) || gt.Reachable(400) {
			t.Fatalf("step %d: masked tree reaches a dead satellite", i)
		}
	}
}

// TestSweepNeverServesATreeAcrossAdvance pins the lifetime of a lazy path
// tree under the sweep cursor: the advance refreshes the graph's weights in
// place, so a tree rooted before it — here only partly settled — would resume
// over the wrong weights. The memo must root a new one for the new step.
func TestSweepNeverServesATreeAcrossAdvance(t *testing.T) {
	c := MustNew(DefaultConfig())
	sw := c.Sweep(0, time.Minute)
	defer sw.Close()
	const src, near, far = 100, 101, 900

	before := sw.At().PathTree(src)
	before.Dist(near) // settles a handful of nodes and stops
	if sw.At().PathTree(src) != before {
		t.Fatal("within one step the memo must serve the same tree")
	}
	snap := sw.Advance()
	after := snap.PathTree(src)
	if after == before {
		t.Fatal("memo served a tree rooted before the advance")
	}
	want := c.Snapshot(time.Minute).ISLGraph().ShortestPathsFrom(src)
	for _, n := range []routing.NodeID{near, far} {
		if got := after.Dist(n); got != want[n] {
			t.Fatalf("dist to %d after the advance: %v, fresh snapshot says %v", n, got, want[n])
		}
	}
	// Masked views of the advanced snapshot root their own trees as well.
	dead := routing.NewBitset(c.Total())
	dead.Set(far)
	if mt := snap.Masked(3, dead, nil).PathTree(src); mt == after || mt == before || mt.Reachable(far) {
		t.Fatal("masked view must price off its own tree")
	}
}

// TestSweepContractViolationsPanic pins the cursor misuse contract: moving
// backwards, advancing a stepless cursor, and advancing after Close are all
// programming errors, not silently wrong answers.
func TestSweepContractViolationsPanic(t *testing.T) {
	c := MustNew(DefaultConfig())
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	sw := c.Sweep(time.Minute, 0)
	if got := sw.AdvanceTo(time.Minute); got != sw.At() {
		t.Fatal("AdvanceTo(current) must be a no-op returning the snapshot")
	}
	mustPanic("stepless Advance", func() { sw.Advance() })
	mustPanic("backwards AdvanceTo", func() { sw.AdvanceTo(30 * time.Second) })
	sw.Close()
	sw.Close() // idempotent
	mustPanic("AdvanceTo after Close", func() { sw.AdvanceTo(2 * time.Minute) })

	sc := c.SweepScan(time.Minute, 0)
	mustPanic("stepless scan Advance", func() { sc.Advance() })
	mustPanic("backwards scan AdvanceTo", func() { sc.AdvanceTo(0) })
}

// TestOverheadWindowsMatchesScan proves the incremental window sampler emits
// the same serving windows as the fresh-snapshot form.
func TestOverheadWindowsMatchesScan(t *testing.T) {
	c := MustNew(DefaultConfig())
	for _, p := range []geo.Point{
		{LatDeg: 47.6, LonDeg: -122.3},
		{LatDeg: -33.9, LonDeg: 151.2},
		{LatDeg: 78.2, LonDeg: 15.6}, // above the shell's coverage band
	} {
		got := c.OverheadWindows(p, 0, 20*time.Minute, 15*time.Second)
		want := c.OverheadWindowsScan(p, 0, 20*time.Minute, 15*time.Second)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d windows vs %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v window %d: %+v != %+v", p, i, got[i], want[i])
			}
		}
	}
}

// TestSweepAdvanceZeroAllocs is the steady-state guarantee: once the cursor is
// warm (grid lists built, CSR graph materialized), advancing the world —
// positions, grid migration, in-place weight refresh, memo retirement —
// performs zero allocations per step.
func TestSweepAdvanceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	c := MustNew(DefaultConfig())
	sw := c.Sweep(0, 15*time.Second)
	defer sw.Close()
	sw.At().ISLGraph()
	for i := 0; i < 20; i++ {
		sw.Advance()
	}
	if avg := testing.AllocsPerRun(100, func() { sw.Advance() }); avg != 0 {
		t.Fatalf("sweep advance allocates %.1f objects/step, want 0", avg)
	}
}

// TestCSRGraphRejectsAddEdge pins the guard that keeps the shared CSR backing
// array from being corrupted by incremental mutation.
func TestCSRGraphRejectsAddEdge(t *testing.T) {
	c := MustNew(DefaultConfig())
	g := c.Snapshot(0).ISLGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge on a CSR-built graph did not panic")
		}
	}()
	g.AddEdge(0, 1, 1.0)
}
