package constellation

import (
	"math"
	"math/bits"
	"sync/atomic"

	"spacecdn/internal/geo"
)

const (
	// groundMemoSlots is the open-addressing table size: twice the cap, so
	// the load factor never passes one half and linear probes stay a slot or
	// two. A power of two — the hash takes the top groundMemoBits bits and
	// the probe wraps with a mask.
	groundMemoBits  = 10
	groundMemoSlots = 1 << groundMemoBits

	// visMemoCap bounds the per-snapshot ground-point memo. The working set
	// is the fixed ground segment plus the client cities — under two hundred
	// points at the default scale — so the cap only matters for pathological
	// query mixes, where excess points are simply served unmemoized. It also
	// sizes the table: 8 KB of slots, allocated on a snapshot's first
	// visibility query, small next to the position array and grid it sits
	// beside.
	visMemoCap = groundMemoSlots / 2
)

// groundPoint is one memo entry: everything the snapshot knows about one
// ground point at one sweep generation. The key is the bit pattern of the
// point's coordinates, not their float value: float equality calls -0.0 and
// 0.0 the same key and NaN a key that never equals itself, which would make
// a NaN query miss and re-insert forever. All fields but vis and aux are
// written before the entry is published and never after, so readers need no
// synchronisation beyond the slot's atomic load; vis and aux are their own
// publications.
type groundPoint struct {
	lat, lon uint64 // math.Float64bits of the query point
	gen      uint32 // Snapshot.memoGen the entry was elected under
	ok       bool   // false: nothing above the mask
	best     VisibleSat
	// vis is the elevation-sorted visible list, published by the first
	// VisibleShared of the point (most points — clients served from space —
	// are only ever asked for their best satellite).
	vis atomic.Pointer[[]VisibleSat]
	// aux is the caller-owned slot PointSlot hands out (the access model
	// keeps the point's ground paths there). It is retired with the entry.
	aux atomic.Pointer[any]
}

// groundMemo is the snapshot's ground-point memo: a fixed-capacity
// open-addressing table of immutable entries, read with no lock and
// published by compare-and-swap. Within one generation a slot only ever
// goes from not-current (empty, or holding an entry of a past generation) to
// current, and an inserter always claims the first not-current slot of its
// probe sequence, re-examining the slot when it loses the swap — so the
// slots between a point's home and its current entry all hold current
// entries of other points, a lookup may stop at the first not-current slot,
// and a point has at most one current entry.
type groundMemo struct {
	tab atomic.Pointer[[groundMemoSlots]atomic.Pointer[groundPoint]]
	n   atomic.Int32 // occupied slots, never above visMemoCap
}

// groundPoint returns the memo entry of the ground point at the snapshot's
// current generation, electing its best satellite with the grid query on a
// miss. Entries of past generations — a sweep cursor bumps memoGen on every
// advance — are never served and are overwritten where they sit, so an
// advance retires the whole memo without touching it; generations only grow
// over a cursor's lifetime, so an entry is never met again. Returns nil when
// the memo is full and the point is not in it; the caller then answers
// unmemoized.
func (s *Snapshot) groundPoint(ground geo.Point) *groundPoint {
	lat, lon := math.Float64bits(ground.LatDeg), math.Float64bits(ground.LonDeg)
	m := &s.ground
	tab := m.tab.Load()
	if tab == nil {
		m.tab.CompareAndSwap(nil, new([groundMemoSlots]atomic.Pointer[groundPoint]))
		tab = m.tab.Load()
	}
	gen := s.memoGen
	var fresh *groundPoint
	// At most visMemoCap of the slots are ever occupied, so the probe always
	// reaches an empty one.
	for i := groundHash(lat, lon); ; {
		slot := &tab[i]
		e := slot.Load()
		if e != nil && e.gen == gen {
			if e.lat == lat && e.lon == lon {
				return e
			}
			i = (i + 1) & (groundMemoSlots - 1)
			continue
		}
		// First not-current slot: the point is not memoized, and this is
		// where it goes. Only an empty slot counts against the cap.
		if e == nil && !m.reserve() {
			return nil
		}
		if fresh == nil {
			fresh = &groundPoint{lat: lat, lon: lon, gen: gen}
			fresh.best, fresh.ok = s.grid.bestVisible(s, ground)
		}
		if slot.CompareAndSwap(e, fresh) {
			return fresh
		}
		// Lost the slot to a concurrent insert; give the reservation back and
		// look at what landed here.
		if e == nil {
			m.n.Add(-1)
		}
	}
}

// reserve claims one of the visMemoCap entries for an empty slot. The load
// in front keeps a full memo's overflow queries from writing a shared word.
func (m *groundMemo) reserve() bool {
	if m.n.Load() >= visMemoCap {
		return false
	}
	if m.n.Add(1) > visMemoCap {
		m.n.Add(-1)
		return false
	}
	return true
}

// groundHash maps a point's coordinate bit patterns to its home slot. City
// and ground-station coordinates are short decimals whose bit patterns
// differ in a few mantissa bits; the odd-constant multiplies carry those up
// the word and the top bits index the table. (The default ground segment
// and the 144-city dataset — 163 distinct points — land on 149 distinct home
// slots, what a random function would give.)
func groundHash(lat, lon uint64) int {
	h := lat*0x9E3779B97F4A7C15 ^ bits.RotateLeft64(lon*0xC2B2AE3D27D4EB4F, 32)
	return int(h * 0x9E3779B97F4A7C15 >> (64 - groundMemoBits))
}

// BestVisible returns the highest-elevation visible satellite. ok is false
// when no satellite is above the mask (possible at extreme latitudes for an
// inclined shell). The answer is a pure function of (snapshot, point) and
// clients sit at a few hundred fixed points, so it is memoized per snapshot:
// a hit is a hash, a probe and a struct copy — no lock, no allocation — and a
// miss is the allocation-free grid query plus one entry. Results are those
// of the grid query bit for bit; the memo only remembers them.
func (s *Snapshot) BestVisible(ground geo.Point) (VisibleSat, bool) {
	if e := s.groundPoint(ground); e != nil {
		return e.best, e.ok
	}
	return s.grid.bestVisible(s, ground)
}

// VisibleShared returns the same elevation-sorted list as Visible, memoized
// per snapshot and query point in the ground-point memo. The returned slice
// is shared with every other caller of the same point — treat it as
// read-only. Ground stations and recurring clients resolve thousands of
// times against one snapshot, and the visible list's size grows with the
// constellation, so memoizing here is what keeps the ground-fallback resolve
// stage sub-linear in satellite count. When two first queries race, both
// enumerate and the first to publish wins; the lists are deterministic, so
// the loser's work is merely wasted.
func (s *Snapshot) VisibleShared(ground geo.Point) []VisibleSat {
	e := s.groundPoint(ground)
	if e == nil {
		return s.Visible(ground)
	}
	if vis := e.vis.Load(); vis != nil {
		return *vis
	}
	out := s.Visible(ground)
	if e.vis.CompareAndSwap(nil, &out) {
		return out
	}
	return *e.vis.Load()
}

// PointSlot returns the ground point's caller-owned slot in the memo entry
// of the snapshot's current generation, or nil when the memo is full and the
// point is not in it. The snapshot never reads the slot: a caller keeps in
// it what it derives from (snapshot, point) — whoever stores into it owns
// the stored type — and it dies with the entry, so a sweep advance retires
// it with the rest of the memo and nothing is ever cleared. A caller that
// gets nil computes instead, as VisibleShared does for a point that finds
// the memo full.
func (s *Snapshot) PointSlot(ground geo.Point) *atomic.Pointer[any] {
	if e := s.groundPoint(ground); e != nil {
		return &e.aux
	}
	return nil
}
