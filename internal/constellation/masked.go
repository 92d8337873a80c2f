package constellation

import (
	"fmt"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/routing"
)

// LinkID identifies an undirected inter-satellite link by its endpoints,
// normalized A < B.
type LinkID struct {
	A, B SatID
}

// NormalizedLink returns the LinkID for the pair in canonical order.
func NormalizedLink(a, b SatID) LinkID {
	if a > b {
		a, b = b, a
	}
	return LinkID{A: a, B: b}
}

// MaskedView is a fault-aware view of a Snapshot: the same geometry with a
// set of satellites and ISLs removed. Visibility queries skip dead
// satellites, the ISL graph drops every edge touching one (and every
// explicitly failed link), and path trees are kept in the view's own table,
// so degraded routing never corrupts — or collides with — the snapshot's
// healthy trees, and dies with the view.
//
// Views are cached per epoch on the snapshot and shared by all callers, so
// per-request resolution reuses one masked graph build per (snapshot, fault
// state). A degraded view is built together with its masked graph, so it is
// finished when handed out. Immutable and safe for concurrent use.
type MaskedView struct {
	snap      *Snapshot
	epoch     uint64
	deadSats  routing.Bitset
	deadLinks map[LinkID]bool

	islGraph *routing.Graph // masked graph; nil for a pass-through view
	trees    pathTrees      // trees over the masked graph; unused by a pass-through view
}

// Masked returns the fault-aware view of this snapshot for the given fault
// epoch. The first call for an epoch captures the masks; later calls return
// the cached view, so callers must pass the same masks for the same epoch —
// the epoch identifies a fault state, the masks describe it (faults.Plan
// maintains exactly this invariant). A degraded view's first call builds its
// masked ISL graph before returning, so every holder of the view reads a
// finished topology. Empty masks return a pass-through view that shares the
// healthy graph and path trees. A non-empty mask with epoch 0 is a caller
// bug — epoch 0 is reserved for the healthy topology — and panics rather
// than silently caching a degraded view under it.
func (s *Snapshot) Masked(epoch uint64, deadSats routing.Bitset, deadLinks []LinkID) *MaskedView {
	if !deadSats.Any() && len(deadLinks) == 0 {
		epoch = 0
	} else if epoch == 0 {
		panic(fmt.Sprintf("constellation: Masked with non-empty masks requires a non-zero epoch (%d dead sats, %d dead links)",
			deadSats.Count(), len(deadLinks)))
	}
	s.maskMu.Lock()
	defer s.maskMu.Unlock()
	if v, ok := s.masked[epoch]; ok {
		return v
	}
	v := &MaskedView{snap: s, epoch: epoch}
	if epoch != 0 {
		v.deadSats = deadSats
		if len(deadLinks) > 0 {
			v.deadLinks = make(map[LinkID]bool, len(deadLinks))
			for _, l := range deadLinks {
				v.deadLinks[NormalizedLink(l.A, l.B)] = true
			}
		}
		v.islGraph = s.buildISLGraph(func(lo, hi SatID) bool {
			return v.deadSats.Test(int(lo)) || v.deadSats.Test(int(hi)) || v.deadLinks[LinkID{A: lo, B: hi}]
		})
	}
	if s.masked == nil {
		s.masked = make(map[uint64]*MaskedView)
	}
	s.masked[epoch] = v
	return v
}

// Snapshot returns the underlying healthy snapshot.
func (v *MaskedView) Snapshot() *Snapshot { return v.snap }

// Time returns the snapshot's offset from the constellation epoch.
func (v *MaskedView) Time() time.Duration { return v.snap.t }

// Epoch returns the view's fault epoch (0 for a pass-through view).
func (v *MaskedView) Epoch() uint64 { return v.epoch }

// Alive reports whether the satellite survives in this view.
func (v *MaskedView) Alive(id SatID) bool { return !v.deadSats.Test(int(id)) }

// Visible returns the surviving satellites above the elevation mask, best
// first — the healthy visibility list with dead satellites filtered out.
func (v *MaskedView) Visible(ground geo.Point) []VisibleSat {
	vis := v.snap.Visible(ground)
	if v.epoch == 0 {
		return vis
	}
	// The healthy query allocates a fresh slice per call, so filtering in
	// place never disturbs another caller.
	out := vis[:0]
	for _, sat := range vis {
		if v.Alive(sat.ID) {
			out = append(out, sat)
		}
	}
	return out
}

// VisibleShared is the memo-backed form of Visible: the healthy list comes
// from the snapshot's ground-point memo, and a fault-epoch view filters it into
// a fresh slice (never in place — the memoized list is shared). Callers must
// treat the result as read-only, like Snapshot.VisibleShared.
func (v *MaskedView) VisibleShared(ground geo.Point) []VisibleSat {
	vis := v.snap.VisibleShared(ground)
	if v.epoch == 0 {
		return vis
	}
	out := make([]VisibleSat, 0, len(vis))
	for _, sat := range vis {
		if v.Alive(sat.ID) {
			out = append(out, sat)
		}
	}
	return out
}

// BestVisible returns the highest-elevation surviving satellite. When the
// healthy best is alive — the overwhelmingly common case — this costs one
// mask probe on top of the healthy query; the failover scan runs only when
// the serving satellite is actually down.
func (v *MaskedView) BestVisible(ground geo.Point) (VisibleSat, bool) {
	best, ok := v.snap.BestVisible(ground)
	if !ok {
		return VisibleSat{}, false
	}
	if v.Alive(best.ID) {
		return best, true
	}
	for _, sat := range v.snap.VisibleShared(ground) {
		if v.Alive(sat.ID) {
			return sat, true
		}
	}
	return VisibleSat{}, false
}

// ISLGraph returns the masked +grid topology: the healthy graph minus every
// edge with a dead endpoint or a failed link. Dead satellites keep their
// node ids (ids are positional across the whole codebase) but have no
// incident edges, so searches can never route through them. Built with the
// view (Masked) and shared; a pass-through view returns the snapshot's
// healthy graph.
func (v *MaskedView) ISLGraph() *routing.Graph {
	if v.epoch == 0 {
		return v.snap.ISLGraph()
	}
	return v.islGraph
}

// PathTree returns the shortest-path tree over the masked ISL graph rooted
// at src, from the view's table: every request routed through the same
// uplink in the same fault state shares one tree. A pass-through view
// serves the snapshot's healthy trees. Returns nil when src is out of range
// or dead — a dead satellite roots no routes.
func (v *MaskedView) PathTree(src SatID) *routing.SPTree {
	if src < 0 || int(src) >= len(v.snap.pos) || !v.Alive(src) {
		return nil
	}
	if v.epoch == 0 {
		return v.snap.PathTree(src)
	}
	return v.trees.tree(v.snap.c, v, src)
}
