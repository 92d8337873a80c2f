package lsn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/routing"
	"spacecdn/internal/telemetry"
)

// coveredCities returns the embedded cities of Starlink-covered countries:
// the points the traffic model pins its users to.
func coveredCities() []geo.City {
	var out []geo.City
	for _, city := range geo.Cities() {
		if country, ok := geo.CountryByISO(city.Country); ok && country.Starlink {
			out = append(out, city)
		}
	}
	return out
}

// expandedModel is a second model over testConst whose catalog deploys a
// Maputo PoP and homes Mozambique on it, as the ground-expansion experiment
// does: the same snapshot and point resolve to another path through it.
func expandedModel() *Model {
	g := groundseg.NewCatalog(groundseg.WithPoP("mpm", "Maputo, MZ"), groundseg.WithAssignment("MZ", "mpm"))
	return NewModel(testConst, g, DefaultConfig())
}

// unmemoizedPath is the reference: the ground stage priced by
// resolvePathVia, which never reads or writes the path memo, on a snapshot
// the memoized side never touched. (TestGroundStageMatchesReference holds
// resolvePathVia itself to the exhaustive ResolvePathReference.)
func (m *Model) unmemoizedPath(fresh *constellation.Snapshot, client geo.Point, iso2 string) (Path, error) {
	pop, ok := m.Ground.AssignPoPForClient(iso2, client)
	if !ok {
		_, _, err := m.resolveGround(client, iso2, fresh, nil)
		return Path{}, err
	}
	return m.resolvePathVia(healthyTopo(fresh), client, pop)
}

// assertMemoizedPath asks ResolvePath twice — the miss that computes and
// publishes, then the hit — and compares both, field for field, with the
// unmemoized reference.
func assertMemoizedPath(t *testing.T, m *Model, snap, fresh *constellation.Snapshot, client geo.Point, iso2 string) {
	t.Helper()
	want, wantErr := m.unmemoizedPath(fresh, client, iso2)
	for pass := 0; pass < 2; pass++ {
		got, err := m.ResolvePath(client, iso2, snap)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("t=%v %v %s pass %d: error %v, reference says %v", snap.Time(), client, iso2, pass, err, wantErr)
		}
		if got != want {
			t.Fatalf("t=%v %v %s pass %d:\n got %+v\nwant %+v", snap.Time(), client, iso2, pass, got, want)
		}
	}
}

// memoizedPaths returns the ground paths the point's slot holds (not the
// fields of a PoP at the point).
func memoizedPaths(snap *constellation.Snapshot, client geo.Point) []groundEntry {
	slot := snap.PointSlot(client)
	if slot == nil {
		return nil
	}
	v := slot.Load()
	if v == nil {
		return nil
	}
	var paths []groundEntry
	for _, e := range (*v).([]groundEntry) {
		if e.field == nil {
			paths = append(paths, e)
		}
	}
	return paths
}

// TestGroundPathMemoMatchesUnmemoized is the memo's exactness proof: for
// every covered city and its country, at two instants, on fresh snapshots
// and on a sweep cursor that carries its ground memo — paths of the previous
// step included — from step to step, the memoized path equals
// resolvePathVia's on a fresh snapshot.
func TestGroundPathMemoMatchesUnmemoized(t *testing.T) {
	m := testModel()
	cities := coveredCities()
	if len(cities) < 100 {
		t.Fatalf("only %d covered cities", len(cities))
	}
	step := 5 * time.Minute
	sw := testConst.Sweep(0, step)
	defer sw.Close()
	errs := 0
	for k := 1; k <= 2; k++ {
		at := time.Duration(k) * step
		fresh := testConst.Snapshot(at)
		for _, snap := range []*constellation.Snapshot{testConst.Snapshot(at), sw.AdvanceTo(at)} {
			for _, city := range cities {
				assertMemoizedPath(t, m, snap, fresh, city.Loc, city.Country)
				if _, err := m.ResolvePath(city.Loc, city.Country, snap); err != nil {
					errs++
					if got := memoizedPaths(snap, city.Loc); len(got) != 0 {
						t.Fatalf("t=%v %s: an error was memoized as %+v", at, city.Name, got)
					}
				}
			}
		}
	}
	t.Logf("%d city resolutions were errors (not memoized)", errs)
}

// TestGroundPathMemoKeysOnModel: two models over one snapshot with
// different ground catalogs resolve the same point and country to different
// PoPs, and each is served its own path, whichever asked first.
func TestGroundPathMemoKeysOnModel(t *testing.T) {
	base, expanded := testModel(), expandedModel()
	maputo := mustCity(t, "Maputo, MZ")
	for k, first := range []*Model{base, expanded} {
		at := time.Duration(k) * time.Minute
		snap, fresh := testConst.Snapshot(at), testConst.Snapshot(at)
		second := expanded
		if first == expanded {
			second = base
		}
		for round := 0; round < 2; round++ {
			for _, m := range []*Model{first, second} {
				assertMemoizedPath(t, m, snap, fresh, maputo.Loc, "MZ")
			}
		}
		b, _ := base.ResolvePath(maputo.Loc, "MZ", snap)
		e, _ := expanded.ResolvePath(maputo.Loc, "MZ", snap)
		if b.PoP.Name != "fra" || e.PoP.Name != "mpm" {
			t.Fatalf("t=%v: PoPs %s and %s, want fra and mpm", at, b.PoP.Name, e.PoP.Name)
		}
		if n := len(memoizedPaths(snap, maputo.Loc)); n != 2 {
			t.Fatalf("t=%v: the Maputo slot holds %d paths, want one per model", at, n)
		}
	}
}

// TestGroundPathMemoConcurrentFirstCallers races first callers: eight
// goroutines, each walking every covered city in its own order through both
// models, on one fresh snapshot. Every answer must equal the reference, and
// each slot must end with exactly one path per (model, country) — a lost
// compare-and-swap retries, so no insert is dropped, and a racer that finds
// its key published adds no second copy. Run under -race (scripts/verify.sh
// repeats it at several GOMAXPROCS).
func TestGroundPathMemoConcurrentFirstCallers(t *testing.T) {
	models := []*Model{testModel(), expandedModel()}
	cities := coveredCities()
	const at = 9 * time.Minute
	fresh := testConst.Snapshot(at)
	type key struct {
		m    int
		city int
	}
	want := make(map[key]Path)
	wantKeys := make(map[geo.Point]int)
	for mi, m := range models {
		for ci, city := range cities {
			if p, err := m.unmemoizedPath(fresh, city.Loc, city.Country); err == nil {
				want[key{mi, ci}] = p
				wantKeys[city.Loc]++
			}
		}
	}
	snap := testConst.Snapshot(at)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(cities) * len(models))
			for round := 0; round < 2; round++ {
				for _, i := range order {
					k := key{i % len(models), i / len(models)}
					city := cities[k.city]
					got, err := models[k.m].ResolvePath(city.Loc, city.Country, snap)
					w, ok := want[k]
					if (err == nil) != ok || got != w {
						t.Errorf("model %d %s: %+v, %v; reference %+v, ok %v", k.m, city.Name, got, err, w, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for loc, n := range wantKeys {
		got := memoizedPaths(snap, loc)
		if len(got) != n {
			t.Fatalf("%v: slot holds %d paths, want %d", loc, len(got), n)
		}
		seen := make(map[groundEntry]bool)
		for _, e := range got {
			if seen[e] {
				t.Fatalf("%v: %s of one model memoized twice", loc, e.key)
			}
			seen[e] = true
		}
	}
}

// TestGroundPathMemoPublishUnderContention drives the slot's
// compare-and-swap with no path computation in between, so publishers
// collide constantly: eight goroutines publish 50 keys each, all their own,
// into one slot, and every key must land — a lost swap retries instead of
// dropping its insert. Then every goroutine publishes every key again, and
// the list must not grow: a key already published is not copied twice.
func TestGroundPathMemoPublishUnderContention(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(0)
	madrid := mustCity(t, "Madrid, ES")
	slot := snap.PointSlot(madrid.Loc)
	p, err := m.ResolvePath(madrid.Loc, "ES", snap)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	key := func(i int) string { return fmt.Sprintf("K%03d", i) }
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if round == 0 {
					for i := g * perG; i < (g+1)*perG; i++ {
						m.publish(slot, groundEntry{model: m, key: key(i), path: p})
					}
					return
				}
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(goroutines * perG) {
					m.publish(slot, groundEntry{model: m, key: key(i), path: p})
				}
			}(g)
		}
		wg.Wait()
		got := memoizedPaths(snap, madrid.Loc)
		if want := goroutines*perG + 1; len(got) != want {
			t.Fatalf("round %d: slot holds %d paths, want %d", round, len(got), want)
		}
		seen := make(map[string]bool)
		for _, e := range got {
			if seen[e.key] {
				t.Fatalf("round %d: key %s published twice", round, e.key)
			}
			seen[e.key] = true
		}
	}
}

// TestGroundPathMemoNeverServesDegraded: a healthy path memoized on a
// snapshot must not reach a degraded epoch of that snapshot. With the
// healthy path's downlink satellite dead, the degraded resolve routes around
// it — for every third covered city, each its own fault epoch — and the
// healthy memo stays as it was.
func TestGroundPathMemoNeverServesDegraded(t *testing.T) {
	m := testModel()
	snap := testConst.Snapshot(11 * time.Minute)
	epoch := uint64(0)
	cities := coveredCities()
	for i := 0; i < len(cities); i += 3 {
		city := cities[i]
		healthy, err := m.ResolvePath(city.Loc, city.Country, snap)
		if err != nil {
			continue
		}
		epoch++
		dead := routing.NewBitset(testConst.Total())
		dead.Set(int(healthy.DownSat))
		p, _, err := m.ResolveGround(city.Loc, city.Country, snap, &faults.View{Epoch: epoch, DeadSats: dead})
		if err == nil && (p.UpSat == healthy.DownSat || p.DownSat == healthy.DownSat) {
			t.Fatalf("%s: degraded path %+v uses dead satellite %d", city.Name, p, healthy.DownSat)
		}
		if again, _ := m.ResolvePath(city.Loc, city.Country, snap); again != healthy {
			t.Fatalf("%s: the healthy memo changed after a degraded resolve: %+v, was %+v", city.Name, again, healthy)
		}
	}
	if epoch == 0 {
		t.Fatal("no covered city resolved; the test proves nothing")
	}
}

// TestGroundPathMemoKeysOnFaultEpoch: the memo keys a ground path on the
// fault view's epoch, not on the masked view's. With only the assigned PoP
// dark no satellite is masked, so the masked view is the pass-through one
// (epoch 0) and a key taken from it would serve the healthy path to the dead
// PoP. Under the view the path fails over to another PoP, a repeat is a memo
// hit with the same path and flag, and the healthy path is untouched.
func TestGroundPathMemoKeysOnFaultEpoch(t *testing.T) {
	m := testModel()
	tel := telemetry.New(0)
	m.SetTelemetry(tel)
	t.Cleanup(func() { m.SetTelemetry(nil) })
	computed := func() int64 {
		hv, _ := tel.Snapshot().Histogram("lsn_path_compute_us")
		return hv.Count
	}
	snap := testConst.Snapshot(5 * time.Minute)
	madrid := mustCity(t, "Madrid, ES")
	healthy, err := m.ResolvePath(madrid.Loc, "ES", snap)
	if err != nil {
		t.Fatal(err)
	}
	fv := &faults.View{Epoch: 3, DeadPoPs: map[string]bool{healthy.PoP.Name: true}}
	if v := snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks); v.Epoch() != 0 {
		t.Fatalf("a PoP-only fault state masked to epoch %d, want the pass-through view", v.Epoch())
	}
	p, failover, err := m.ResolveGround(madrid.Loc, "ES", snap, fv)
	if err != nil {
		t.Fatal(err)
	}
	if !failover || p.PoP.Name == healthy.PoP.Name {
		t.Fatalf("dead PoP %s: served %s, failover %v", healthy.PoP.Name, p.PoP.Name, failover)
	}
	before := computed()
	again, againFO, err := m.ResolveGround(madrid.Loc, "ES", snap, fv)
	if err != nil || again != p || !againFO {
		t.Fatalf("repeat: %+v, failover %v, %v; first %+v", again, againFO, err, p)
	}
	if n := computed(); n != before {
		t.Fatalf("the repeat computed (%d computations, was %d): not a memo hit", n, before)
	}
	if got, _ := m.ResolvePath(madrid.Loc, "ES", snap); got != healthy {
		t.Fatalf("healthy path changed after a degraded resolve: %+v, was %+v", got, healthy)
	}
}
