package constellation_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/routing"
)

var (
	fuzzConst  = constellation.MustNew(constellation.DefaultConfig())
	fuzzModels = []*lsn.Model{
		lsn.NewModel(fuzzConst, groundseg.NewCatalog(), lsn.DefaultConfig()),
		lsn.NewModel(fuzzConst, groundseg.NewCatalog(groundseg.WithPoP("mpm", "Maputo, MZ"), groundseg.WithAssignment("MZ", "mpm")), lsn.DefaultConfig()),
	}
	fuzzISOs  = []string{"MZ", "ES", "US", "JP", "BR", "ZZ"}
	memoFixed = memoFixedPoints()
)

// memoFixedPoints are the points every run's pool holds: the covered cities
// and the ground stations — the memo's real working set — plus the keys
// float equality gets wrong (NaN, the two zeros) and a longitude literal
// past 180.
func memoFixedPoints() []geo.Point {
	var pts []geo.Point
	for _, city := range geo.Cities() {
		if country, ok := geo.CountryByISO(city.Country); ok && country.Starlink {
			pts = append(pts, city.Loc)
		}
	}
	for _, gs := range groundseg.NewCatalog().Stations() {
		pts = append(pts, gs.Loc)
	}
	negZero := math.Copysign(0, -1)
	return append(pts,
		geo.Point{LatDeg: math.NaN(), LonDeg: 10},
		geo.Point{LatDeg: 0, LonDeg: 0},
		geo.Point{LatDeg: negZero, LonDeg: negZero},
		geo.Point{LatDeg: 22, LonDeg: 200},
	)
}

// collidingPool returns up to 16 points whose home slots fall in the window
// of 8 slots from home (wrapping at the end of the table): the fixed points
// that land there, then random points drawn from rng until the pool is full
// — each followed by its twin with the longitude shifted by 360 degrees, a
// different key for the same place.
func collidingPool(fixed []geo.Point, home int, rng *rand.Rand) []geo.Point {
	inWindow := func(p geo.Point) bool {
		return (constellation.GroundHome(p)-home+constellation.GroundMemoSlots)%constellation.GroundMemoSlots < 8
	}
	var pool []geo.Point
	for _, p := range fixed {
		if inWindow(p) && len(pool) < 8 {
			pool = append(pool, p)
		}
	}
	for tries := 0; len(pool) < 16 && tries < 1<<16; tries++ {
		p := geo.Point{LatDeg: rng.Float64()*140 - 70, LonDeg: rng.Float64()*360 - 180}
		if inWindow(p) {
			pool = append(pool, p)
			if twin := (geo.Point{LatDeg: p.LatDeg, LonDeg: p.LonDeg + 360}); inWindow(twin) && len(pool) < 16 {
				pool = append(pool, twin)
			}
		}
	}
	return pool
}

// FuzzGroundMemo drives the ground-point memo with point sequences chosen to
// collide in its open-addressing table: a pool of points whose home slots
// share one 8-slot window, asked in the order the input gives, through two
// access models and several countries. In every order, on a fresh snapshot
// and on a sweep cursor whose table still holds the previous step's entries
// (and ground paths and PoP fields) along the probe chains, BestVisible
// equals BestVisibleScan and the memoized ResolvePath equals the exhaustive
// lsn.ResolvePathReference, which reads and writes neither paths nor fields.
//
// Each run also draws a fault state — 2*kill dead satellites and the
// non-zero fault epoch kill+1, so kill 0 is a pass-through masked view
// under a fault epoch — and asks ResolveGround under it twice per op, the
// second a memo hit. Where the reference over the masked view resolves the
// assigned PoP, both answers equal it without failover; where it fails, each
// answer is an error or a failover to another PoP.
func FuzzGroundMemo(f *testing.F) {
	// Each op byte is (combo << 4 | point): pairs asks a point for
	// Mozambique through one model and then the other (and the reverse),
	// combos walks four points through all twelve (country, model) pairs.
	var pairs, combos []byte
	for j := byte(0); j < 12; j++ {
		pairs = append(pairs, j, 6<<4|j, 6<<4|(j+4)%16, (j+4)%16)
	}
	for j := byte(0); j < 4; j++ {
		for k := byte(0); k < 12; k++ {
			combos = append(combos, k<<4|j)
		}
	}
	// Today's collisions: the home slots that two or more fixed points share.
	byHome := make(map[int]int)
	for _, p := range memoFixed {
		byHome[constellation.GroundHome(p)]++
	}
	seeded := 0
	for _, p := range memoFixed {
		if h := constellation.GroundHome(p); byHome[h] > 1 && seeded < 4 {
			byHome[h] = 0
			f.Add(uint32(7*60*1000), uint16(h), int64(seeded), pairs, uint8(40*seeded))
			f.Add(uint32(seeded*3600*1000), uint16(h), int64(seeded), combos, uint8(40*seeded+20))
			seeded++
		}
	}
	f.Add(uint32(0), uint16(constellation.GroundMemoSlots-3), int64(1), pairs, uint8(255)) // the window wraps
	f.Add(uint32(60*1000), uint16(constellation.GroundHome(geo.Point{LatDeg: 22, LonDeg: 200})), int64(2), combos, uint8(7))
	f.Fuzz(groundMemoCase)
}

func groundMemoCase(t *testing.T, ms uint32, home uint16, seed int64, ops []byte, kill uint8) {
	if len(ops) > 48 {
		ops = ops[:48]
	}
	at := time.Duration(ms%(86400*1000)) * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	pool := collidingPool(memoFixed, int(home)%constellation.GroundMemoSlots, rng)
	fv := &faults.View{Epoch: uint64(kill) + 1, DeadSats: routing.NewBitset(fuzzConst.Total())}
	for i := 0; i < 2*int(kill); i++ {
		fv.DeadSats.Set(rng.Intn(fuzzConst.Total()))
	}

	// The cursor's previous step memoizes the whole pool, and ground paths
	// for the first few points, so the probe chains of the step under test
	// run through past-generation entries.
	const step = 15 * time.Second
	sw := fuzzConst.Sweep(max(at-step, 0), step)
	defer sw.Close()
	for i, p := range pool {
		sw.At().BestVisible(p)
		if i < 8 {
			fuzzModels[0].ResolvePath(p, "ES", sw.At())
			fuzzModels[0].ResolveGround(p, "ES", sw.At(), fv)
		}
	}
	for _, snap := range []*constellation.Snapshot{fuzzConst.Snapshot(at), sw.AdvanceTo(at)} {
		for _, b := range ops {
			pt := pool[int(b&15)%len(pool)]
			combo := int(b >> 4)
			iso, m := fuzzISOs[combo%len(fuzzISOs)], fuzzModels[combo/len(fuzzISOs)%len(fuzzModels)]

			wantBest, wantOK := snap.BestVisibleScan(pt)
			if best, ok := snap.BestVisible(pt); ok != wantOK || best != wantBest {
				t.Fatalf("t=%v %+v best: %+v,%v, scan says %+v,%v", at, pt, best, ok, wantBest, wantOK)
			}
			want, wantErr := m.ResolvePathReference(pt, iso, snap)
			got, err := m.ResolvePath(pt, iso, snap)
			if (err != nil) != (wantErr != nil) || got != want {
				t.Fatalf("t=%v %+v %s:\n got %+v, %v\nwant %+v, %v", at, pt, iso, got, err, want, wantErr)
			}

			want, wantErr = m.ResolvePathReference(pt, iso, snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks))
			for pass := 0; pass < 2; pass++ {
				got, failover, err := m.ResolveGround(pt, iso, snap, fv)
				if wantErr == nil && (err != nil || failover || got != want) || wantErr != nil && err == nil && !failover {
					t.Fatalf("t=%v %+v %s fault epoch %d pass %d:\n got %+v, failover %v, %v\nwant %+v, %v",
						at, pt, iso, fv.Epoch, pass, got, failover, err, want, wantErr)
				}
			}
		}
	}
}
