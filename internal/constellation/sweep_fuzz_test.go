package constellation

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
)

// FuzzSweep: for any Walker shell, start, step and advance pattern, the ISL
// graph of a sweep cursor advanced in place equals the graph of a fresh
// Snapshot at the same instant — adjacency order and edge weights bit for bit
// — and so does a fault-masked view built from the cursor's snapshot against
// the same mask over the fresh one. The cursor is driven through
// ObserveCursor, which must tick its observer with the cursor's time after
// every advance.
//
// Each step of the pattern takes four bits: bit 0 picks Advance (one step)
// or AdvanceTo, bits 1–2 the AdvanceTo jump in steps (0 stays put), and bit
// 3 skips the comparison for that step, so the graph is sometimes first
// materialized after several advances and sometimes refreshed in place. The
// last step always compares, so its skip bit (the pattern's top bit) instead
// skips the comparison at the start position.
func FuzzSweep(f *testing.F) {
	type seed struct {
		planes, spp, phasing uint16
		incl, alt            float64
		crossPlane           bool
		startMs, stepMs      int64
		pattern              uint32
		deadSeed             int64
	}
	for _, s := range []seed{
		{72, 22, 17, 53, 550, true, 0, 15 * 1000, 0x00000000, 1},             // Starlink Shell 1, plain steps
		{72, 22, 17, 53, 550, true, 7 * 60 * 1000, 15 * 1000, 0x8f3a5c17, 2}, // mixed jumps, late first build
		{72, 22, 17, 53, 550, false, 0, 60 * 1000, 0x76543210, 3},            // no cross-plane links
		{6, 2, 1, 53, 550, true, 3 * 60 * 1000, 30 * 1000, 0x2222_2222, 4},   // next and prev slot coincide
		{5, 7, 3, 53, 550, true, 0, 1, 0xffff_ffff, 5},                       // 1 ms steps, no comparisons until the end
		{12, 24, 3, 97.6, 560, true, 86400 * 1000, 10 * 60 * 1000, 0x1357_9bdf, 6},
		{1, 1, 0, 53, 550, true, 0, 15 * 1000, 0x0f0f_0f0f, 7}, // one satellite: no edges
	} {
		f.Add(s.planes, s.spp, s.phasing, s.incl, s.alt, s.crossPlane, s.startMs, s.stepMs, s.pattern, s.deadSeed)
	}
	f.Fuzz(func(t *testing.T, planes, spp, phasing uint16, incl, alt float64, crossPlane bool, startMs, stepMs int64, pattern uint32, deadSeed int64) {
		w := orbit.Walker{AltitudeKm: alt, InclinationDeg: incl, Planes: int(planes), SatsPerPlane: int(spp), PhasingF: int(phasing)}
		if n := w.Planes * w.SatsPerPlane; n > 1600 {
			t.Skip("more than 1,600 satellites")
		}
		c, err := New(Config{Walker: w, MinElevationDeg: 25, CrossPlaneISLs: crossPlane})
		if err != nil {
			t.Skip(err)
		}
		start := time.Duration(uint64(startMs)%(10*86400*1000)) * time.Millisecond
		step := time.Duration(1+uint64(stepMs)%(30*60*1000)) * time.Millisecond

		// One fault state for the whole run, under one epoch: the cursor
		// must drop its cached view on every advance, or the masked graph
		// would keep the previous step's weights.
		rng := rand.New(rand.NewSource(deadSeed))
		dead := routing.NewBitset(c.Total())
		for k := rng.Intn(4); k > 0; k-- {
			dead.Set(rng.Intn(c.Total()))
		}
		var links []LinkID
		if edges := c.topology().edges; len(edges) > 0 {
			for k := rng.Intn(3); k > 0; k-- {
				links = append(links, edges[rng.Intn(len(edges))])
			}
		}
		var epoch uint64
		if dead.Any() || len(links) > 0 {
			epoch = 7
		}

		obs := &recordingObserver{}
		cur := ObserveCursor(c.Sweep(start, step), obs)
		defer cur.Close()
		check := func(label string, snap *Snapshot) {
			t.Helper()
			if last := obs.ticks[len(obs.ticks)-1]; last != cur.Time() {
				t.Fatalf("%s: observer last ticked %v, cursor at %v", label, last, cur.Time())
			}
			if snap.Time() != cur.Time() {
				t.Fatalf("%s: snapshot at %v, cursor at %v", label, snap.Time(), cur.Time())
			}
			fresh := c.Snapshot(snap.Time())
			assertGraphsBitIdentical(t, label+" healthy", snap.ISLGraph(), fresh.ISLGraph())
			assertGraphsBitIdentical(t, label+" masked",
				snap.Masked(epoch, dead, links).ISLGraph(), fresh.Masked(epoch, dead, links).ISLGraph())
		}
		if pattern>>31 == 0 {
			check("start", cur.At())
		}
		for i := 0; i < 8; i++ {
			op := pattern >> (4 * i) & 0xf
			var snap *Snapshot
			if op&1 == 0 {
				snap = cur.Advance()
			} else {
				snap = cur.AdvanceTo(cur.Time() + time.Duration(op>>1&3)*step)
			}
			if op&8 == 0 || i == 7 {
				check("step", snap)
			}
		}
		if want := 1 + 8; len(obs.ticks) != want {
			t.Fatalf("observer ticked %d times, want %d (the start and each advance)", len(obs.ticks), want)
		}
	})
}

// assertGraphsBitIdentical compares two graphs node by node: the same
// neighbours in the same order, with weights equal bit for bit, and the same
// maximum edge weight.
func assertGraphsBitIdentical(t *testing.T, label string, got, want *routing.Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("%s: %d nodes/%d edges, want %d/%d", label, got.Len(), got.EdgeCount(), want.Len(), want.EdgeCount())
	}
	for n := 0; n < want.Len(); n++ {
		ge, we := got.Neighbors(routing.NodeID(n)), want.Neighbors(routing.NodeID(n))
		if len(ge) != len(we) {
			t.Fatalf("%s node %d: %d edges, want %d", label, n, len(ge), len(we))
		}
		for i := range we {
			if ge[i].To != we[i].To || math.Float64bits(ge[i].Weight) != math.Float64bits(we[i].Weight) {
				t.Fatalf("%s node %d edge %d: %+v, want %+v", label, n, i, ge[i], we[i])
			}
		}
	}
	if gm, wm := got.MaxEdgeWeight(), want.MaxEdgeWeight(); math.Float64bits(gm) != math.Float64bits(wm) {
		t.Fatalf("%s: max edge weight %v, want %v", label, gm, wm)
	}
}
