package lsn

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
)

// healthyTopo is the healthy fault state of snap, its fields memoized in
// its point memo.
func healthyTopo(snap *constellation.Snapshot) groundTopo {
	return groundTopo{snap, snap, 0}
}

// memoizedFields returns the PoP fields the point's slot holds.
func memoizedFields(snap *constellation.Snapshot, loc geo.Point) []groundEntry {
	slot := snap.PointSlot(loc)
	if slot == nil {
		return nil
	}
	v := slot.Load()
	if v == nil {
		return nil
	}
	var fields []groundEntry
	for _, e := range (*v).([]groundEntry) {
		if e.field != nil {
			fields = append(fields, e)
		}
	}
	return fields
}

// assertMatchesReference resolves every covered city through get and
// requires the exhaustive reference's answer, error for error.
func assertMatchesReference(t *testing.T, name string, m *Model, ref topology, get func(city geo.City) (Path, error)) {
	t.Helper()
	resolved := 0
	for _, city := range coveredCities() {
		want, wantErr := m.ResolvePathReference(city.Loc, city.Country, ref)
		got, err := get(city)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s %s: error %v, reference says %v", name, city.Name, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s %s:\n got %+v\nwant %+v", name, city.Name, got, want)
		}
		if err == nil {
			resolved++
		}
	}
	if resolved < len(coveredCities())/2 {
		t.Fatalf("%s: only %d cities resolved; the comparison proves little", name, resolved)
	}
}

// TestGroundStageMatchesReference holds the field-guided ground stage to
// ResolvePathReference where its field lives differently: on a sweep cursor
// stepped forward (its slot dies with the step, so no stale field is
// served), on a masked view (over the masked graph, memoized under the
// fault epoch), on a snapshot whose ground memo is full (PointSlot nil:
// nothing memoized), and for two models with different catalogs on one
// snapshot (each its own field per PoP).
func TestGroundStageMatchesReference(t *testing.T) {
	m := testModel()
	t.Run("sweep", func(t *testing.T) {
		const step = 15 * time.Second
		sw := testConst.Sweep(3*time.Minute, step)
		defer sw.Close()
		for k := 0; k < 2; k++ {
			at := 3*time.Minute + time.Duration(k)*step
			snap := sw.AdvanceTo(at)
			assertMatchesReference(t, "sweep "+at.String(), m, testConst.Snapshot(at), func(city geo.City) (Path, error) {
				return m.ResolvePath(city.Loc, city.Country, snap)
			})
		}
	})
	t.Run("masked", func(t *testing.T) {
		at := 17 * time.Minute
		view := degraded(testConst.Snapshot(at))
		ref := degraded(testConst.Snapshot(at))
		topo := groundTopo{view, view.Snapshot(), view.Epoch()}
		for pass := 0; pass < 2; pass++ {
			assertMatchesReference(t, "masked", m, ref, func(city geo.City) (Path, error) {
				pop, _ := m.Ground.AssignPoPForClient(city.Country, city.Loc)
				return m.resolvePathVia(topo, city.Loc, pop)
			})
		}
		fra, _ := m.Ground.PoPByName("fra")
		if got := memoizedFields(view.Snapshot(), fra.Loc); len(got) != 1 || got[0].epoch != view.Epoch() {
			t.Fatalf("the Frankfurt slot holds fields %+v, want one under fault epoch %d", got, view.Epoch())
		}
	})
	t.Run("full memo", func(t *testing.T) {
		at := 23 * time.Minute
		snap := testConst.Snapshot(at)
		rng := rand.New(rand.NewSource(5))
		for snap.PointSlot(geo.Point{LatDeg: rng.Float64()*120 - 60, LonDeg: rng.Float64()*360 - 180}) != nil {
		}
		assertMatchesReference(t, "full memo", m, testConst.Snapshot(at), func(city geo.City) (Path, error) {
			if snap.PointSlot(city.Loc) != nil {
				t.Fatalf("%s found a slot in a full memo", city.Name)
			}
			return m.ResolvePath(city.Loc, city.Country, snap)
		})
	})
	t.Run("two models", func(t *testing.T) {
		at := 31 * time.Minute
		snap := testConst.Snapshot(at)
		base, expanded := testModel(), expandedModel()
		for _, mm := range []*Model{base, expanded} {
			assertMatchesReference(t, "two models", mm, testConst.Snapshot(at), func(city geo.City) (Path, error) {
				return mm.ResolvePath(city.Loc, city.Country, snap)
			})
		}
		fra, _ := base.Ground.PoPByName("fra")
		if n := len(memoizedFields(snap, fra.Loc)); n != 2 {
			t.Fatalf("the Frankfurt slot holds %d fields, want one per model", n)
		}
		mpm, _ := expanded.Ground.PoPByName("mpm")
		if got := memoizedFields(snap, mpm.Loc); len(got) != 1 || got[0].model != expanded {
			t.Fatalf("the Maputo slot holds fields %+v, want the expanded model's alone", got)
		}
	})
}

// TestGroundComputeAllocs: once a PoP's field exists, a ground computation
// for a client point the snapshot already knows allocates nothing but its
// slot publication (the grown list, its interface box and the pointer the
// slot stores): no tree, no search state. resolvePathVia itself, which
// publishes nothing, allocates nothing at all.
func TestGroundComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on alloc-free paths")
	}
	m := testModel()
	snap := testConst.Snapshot(7 * time.Minute)
	madrid := mustCity(t, "Madrid, ES")
	pop, _ := m.Ground.AssignPoPForClient("ES", madrid.Loc)
	if _, err := m.ResolvePath(madrid.Loc, "ES", snap); err != nil {
		t.Fatal(err)
	}
	// Points around Madrid, each with its memo entry and visible list in
	// place, so only the ground computation is measured.
	const runs = 20
	var pts []geo.Point
	for i := 0; i <= runs; i++ {
		p := geo.NewPoint(madrid.Loc.LatDeg+0.05*float64(i+1), madrid.Loc.LonDeg-0.03*float64(i+1))
		snap.VisibleShared(p)
		snap.PointSlot(p)
		pts = append(pts, p)
	}
	i := 0
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := m.resolvePathVia(healthyTopo(snap), pts[i%len(pts)], pop); err != nil {
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Errorf("resolvePathVia with the field built: %v allocs per computation, want 0", a)
	}
	i = 0
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := m.ResolvePath(pts[i], "ES", snap); err != nil {
			t.Fatal(err)
		}
		i++
	}); a > 3 {
		t.Errorf("ResolvePath on a new point: %v allocs per computation, want 3 (the slot publication)", a)
	}
}

// TestFieldPublishConcurrentFirstCallers races first callers of every
// PoP's field: eight goroutines per model, each walking the PoPs in its own
// order, on one fresh snapshot. All callers of one (model, PoP) must get
// the same field — a racer that loses the compare-and-swap adopts the
// winner's, so they share its settling — and each PoP's slot must end with
// exactly one field per model. Run under -race (scripts/verify.sh repeats
// it at several GOMAXPROCS).
func TestFieldPublishConcurrentFirstCallers(t *testing.T) {
	snap := testConst.Snapshot(13 * time.Minute)
	for mi, m := range []*Model{testModel(), expandedModel()} {
		pops := m.Ground.PoPs()
		got := make([][]*popField, 8)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]*popField, len(pops))
			wg.Add(1)
			go func(out []*popField, g int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(pops)) {
					if f, err := m.fieldFor(healthyTopo(snap), pops[i]); err == nil {
						f.tree.Dist(0) // settle the shared field concurrently too
						out[i] = f
					}
				}
			}(got[g], g)
		}
		wg.Wait()
		for i, pop := range pops {
			for g := range got {
				if got[g][i] != got[0][i] {
					t.Fatalf("model %d PoP %s: goroutines %d and 0 got different fields", mi, pop.Name, g)
				}
			}
			n := 0
			for _, e := range memoizedFields(snap, pop.Loc) {
				if e.model == m && e.key == pop.Name {
					n++
				}
			}
			want := 0
			if got[0][i] != nil {
				want = 1
			}
			if n != want {
				t.Fatalf("model %d PoP %s: slot holds %d fields, want %d", mi, pop.Name, n, want)
			}
		}
	}
}
