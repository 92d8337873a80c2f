package constellation

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/geo"
)

// coveredCityPoints returns the locations the traffic model pins its users
// to: the embedded cities of Starlink-covered countries.
func coveredCityPoints() []geo.Point {
	var pts []geo.Point
	for _, city := range geo.Cities() {
		if country, ok := geo.CountryByISO(city.Country); ok && country.Starlink {
			pts = append(pts, city.Loc)
		}
	}
	return pts
}

// distinctPoints is randomPoints without its one duplicate (NewPoint folds
// longitude -180 onto 180), for tests that count entries per point.
func distinctPoints(seed int64, n int) []geo.Point {
	seen := make(map[geo.Point]bool, n)
	pts := make([]geo.Point, 0, n)
	for _, pt := range randomPoints(rand.New(rand.NewSource(seed)), n+1) {
		if !seen[pt] && len(pts) < n {
			seen[pt] = true
			pts = append(pts, pt)
		}
	}
	return pts
}

// assertGroundAnswersMatchScan asks the memoized queries about one point and
// compares them field for field with the linear-scan references.
func assertGroundAnswersMatchScan(t *testing.T, snap *Snapshot, pt geo.Point) {
	t.Helper()
	wantBest, wantOK := snap.BestVisibleScan(pt)
	if best, ok := snap.BestVisible(pt); ok != wantOK || best != wantBest {
		t.Fatalf("t=%v %+v best: %+v,%v, scan says %+v,%v", snap.Time(), pt, best, ok, wantBest, wantOK)
	}
	want := snap.VisibleScan(pt)
	got := snap.VisibleShared(pt)
	if len(got) != len(want) {
		t.Fatalf("t=%v %+v: %d visible, scan says %d", snap.Time(), pt, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("t=%v %+v visible[%d]: %+v, scan says %+v", snap.Time(), pt, i, got[i], want[i])
		}
	}
}

// currentEntries counts the memo's entries of the snapshot's generation per
// key, plus every occupied slot.
func currentEntries(s *Snapshot) (perKey map[[2]uint64]int, occupied int) {
	perKey = make(map[[2]uint64]int)
	tab := s.ground.tab.Load()
	if tab == nil {
		return perKey, 0
	}
	for i := range tab {
		e := tab[i].Load()
		if e == nil {
			continue
		}
		occupied++
		if e.gen == s.memoGen {
			perKey[[2]uint64{e.lat, e.lon}]++
		}
	}
	return perKey, occupied
}

// TestGroundMemoMatchesScan is the memo's exactness proof: for every covered
// city at eight instants over one orbit, the memoized answers — asked twice,
// so both the electing miss and the hit are compared — equal the full scan,
// on fresh snapshots and on a sweep cursor carrying its table from step to
// step.
func TestGroundMemoMatchesScan(t *testing.T) {
	c := MustNew(DefaultConfig())
	pts := coveredCityPoints()
	if len(pts) < 100 {
		t.Fatalf("only %d covered cities", len(pts))
	}
	step := c.Elements(0).Period() / 8
	sw := c.Sweep(0, step)
	defer sw.Close()
	for k := 0; k < 8; k++ {
		at := time.Duration(k) * step
		for _, snap := range []*Snapshot{c.Snapshot(at), sw.AdvanceTo(at)} {
			for pass := 0; pass < 2; pass++ {
				for _, pt := range pts {
					assertGroundAnswersMatchScan(t, snap, pt)
				}
			}
			perKey, _ := currentEntries(snap)
			if len(perKey) != len(pts) {
				t.Fatalf("t=%v: %d points memoized, want all %d", at, len(perKey), len(pts))
			}
		}
	}
}

// TestSweepNeverServesVisibilityAcrossAdvance pins the memo's lifetime under
// the sweep cursor: the advance moves the satellites, so an answer elected
// before it — above all for a point whose best satellite changed across the
// step — must not be served after it. Entries carry the generation they were
// elected under and the advance bumps it.
func TestSweepNeverServesVisibilityAcrossAdvance(t *testing.T) {
	c := MustNew(DefaultConfig())
	pts := coveredCityPoints()
	sw := c.Sweep(0, time.Minute)
	defer sw.Close()
	before := make([]VisibleSat, len(pts))
	for i, pt := range pts {
		before[i], _ = sw.At().BestVisible(pt)
		sw.At().VisibleShared(pt)
	}
	snap := sw.Advance()
	fresh := c.Snapshot(time.Minute)
	changed := 0
	for i, pt := range pts {
		want, wantOK := fresh.BestVisible(pt)
		if got, ok := snap.BestVisible(pt); ok != wantOK || got != want {
			t.Fatalf("%+v after the advance: %+v,%v, fresh snapshot says %+v,%v", pt, got, ok, want, wantOK)
		}
		if want.ID != before[i].ID {
			changed++
		}
		assertGroundAnswersMatchScan(t, snap, pt)
	}
	if changed == 0 {
		t.Fatal("no city changed its best satellite across the step; the test proves nothing")
	}
}

// TestGroundMemoConcurrentVisibility hammers one snapshot's memo from eight
// goroutines, each walking the same 200 points in its own order, so first
// queries of a point race each other: every answer must equal the scan and
// the table must end up with exactly one entry per point. Run under -race
// (scripts/verify.sh repeats it at several GOMAXPROCS).
func TestGroundMemoConcurrentVisibility(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(7 * time.Minute)
	pts := distinctPoints(45, 200)
	type answer struct {
		best VisibleSat
		ok   bool
		vis  []VisibleSat
	}
	want := make([]answer, len(pts))
	for i, pt := range pts {
		want[i].best, want[i].ok = snap.BestVisibleScan(pt)
		want[i].vis = snap.VisibleScan(pt)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(pts))
			for round := 0; round < 3; round++ {
				for _, i := range order {
					best, ok := snap.BestVisible(pts[i])
					vis := snap.VisibleShared(pts[i])
					bad := ok != want[i].ok || best != want[i].best || len(vis) != len(want[i].vis)
					for j := 0; !bad && j < len(vis); j++ {
						bad = vis[j] != want[i].vis[j]
					}
					if bad {
						t.Errorf("concurrent answer for %v differs from the scan", pts[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	perKey, occupied := currentEntries(snap)
	if len(perKey) != len(pts) || occupied != len(pts) || int(snap.ground.n.Load()) != len(pts) {
		t.Fatalf("%d keys in %d slots (count %d), want %d of each", len(perKey), occupied, snap.ground.n.Load(), len(pts))
	}
	for key, n := range perKey {
		if n != 1 {
			t.Fatalf("key %x has %d entries", key, n)
		}
	}
}

// TestGroundMemoOverflowVisibility fills the memo past its cap: every point
// is still answered correctly, the table never holds more than visMemoCap
// entries, and the points that found it full are served unmemoized — without
// allocating, as BestVisible always was.
func TestGroundMemoOverflowVisibility(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(3 * time.Minute)
	pts := distinctPoints(46, visMemoCap+100)
	for i, pt := range pts {
		want, wantOK := snap.BestVisibleScan(pt)
		if got, ok := snap.BestVisible(pt); ok != wantOK || got != want {
			t.Fatalf("point %d %+v: %+v,%v, scan says %+v,%v", i, pt, got, ok, want, wantOK)
		}
		if _, occupied := currentEntries(snap); occupied != min(i+1, visMemoCap) {
			t.Fatalf("after %d points the memo holds %d entries (cap %d)", i+1, occupied, visMemoCap)
		}
	}
	for _, pt := range pts[visMemoCap:] {
		if snap.groundPoint(pt) != nil {
			t.Fatalf("%+v was memoized past the cap", pt)
		}
		assertGroundAnswersMatchScan(t, snap, pt)
	}
	if !raceEnabled {
		over := pts[len(pts)-1]
		if allocs := testing.AllocsPerRun(100, func() { snap.BestVisible(over) }); allocs != 0 {
			t.Fatalf("unmemoized BestVisible allocs/op = %v, want 0", allocs)
		}
	}
	// A sweep cursor in the same state overwrites past-generation entries
	// where they sit, so a full table keeps memoizing the points that hash
	// onto them instead of locking its first generation in forever.
	sw := c.Sweep(0, time.Minute)
	defer sw.Close()
	for _, pt := range pts {
		sw.At().BestVisible(pt)
	}
	cur := sw.Advance()
	for _, pt := range pts[:visMemoCap] {
		assertGroundAnswersMatchScan(t, cur, pt)
	}
	perKey, occupied := currentEntries(cur)
	if occupied != visMemoCap || len(perKey) != visMemoCap {
		t.Fatalf("after an advance: %d slots occupied (cap %d), %d current entries", occupied, visMemoCap, len(perKey))
	}
}

// TestGroundMemoKeysAreBitPatterns covers the keys float equality gets wrong:
// a NaN coordinate must hit its own entry instead of inserting a new one per
// query, and the two zeros are different keys.
func TestGroundMemoKeysAreBitPatterns(t *testing.T) {
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	nan := geo.Point{LatDeg: math.NaN(), LonDeg: 10}
	for i := 0; i < 5; i++ {
		if _, ok := snap.BestVisible(nan); ok {
			t.Fatal("a satellite is visible from latitude NaN")
		}
	}
	if n := snap.ground.n.Load(); n != 1 {
		t.Fatalf("five NaN queries left %d entries, want 1", n)
	}
	negZero := math.Copysign(0, -1)
	snap.BestVisible(geo.Point{LatDeg: 0, LonDeg: 0})
	snap.BestVisible(geo.Point{LatDeg: negZero, LonDeg: negZero})
	if n := snap.ground.n.Load(); n != 3 {
		t.Fatalf("0.0 and -0.0 share an entry: %d entries, want 3", n)
	}
}

// TestGroundMemoHitZeroAlloc holds the hit path to its contract: no
// allocation for a memoized BestVisible or VisibleShared.
func TestGroundMemoHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := MustNew(DefaultConfig())
	snap := c.Snapshot(0)
	pt := geo.NewPoint(48.86, 2.35)
	snap.BestVisible(pt)
	snap.VisibleShared(pt)
	if allocs := testing.AllocsPerRun(100, func() { snap.BestVisible(pt) }); allocs != 0 {
		t.Fatalf("BestVisible hit allocs/op = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = snap.VisibleShared(pt) }); allocs != 0 {
		t.Fatalf("VisibleShared hit allocs/op = %v, want 0", allocs)
	}
}
