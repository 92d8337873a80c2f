// Package constellation assembles orbital mechanics into a queryable LEO
// constellation: satellite identities, time-indexed position snapshots, the
// +grid inter-satellite-link (ISL) topology, and ground visibility queries.
//
// A Snapshot freezes the constellation at one instant; all geometric queries
// (visible satellites, nearest satellite, ISL graph) run against a snapshot
// so that concurrent readers never observe satellites "move".
package constellation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/parallel"
	"spacecdn/internal/routing"
)

// SatID identifies a satellite as a dense index in [0, Total). Within one
// shell ids are plane-major (local index = plane*SatsPerPlane + slot); in a
// multi-shell composite each shell owns a contiguous id range starting at its
// offset, in Config.Shells order.
type SatID int

// WalkerShell is one Walker-delta shell of a (possibly multi-shell)
// constellation: its own altitude, inclination, plane count, satellites per
// plane and phasing factor.
type WalkerShell = orbit.Walker

// Config describes the constellation and its link geometry.
type Config struct {
	// Walker is the single-shell form. Mutually exclusive with Shells.
	Walker orbit.Walker
	// Shells is the multi-shell composite form: each shell contributes a
	// contiguous SatID range and a contiguous global plane-index range, in
	// order. When non-empty, Walker must be the zero value.
	Shells []WalkerShell
	// MinElevationDeg is the user-terminal elevation mask. Starlink
	// terminals track satellites above 25 degrees.
	MinElevationDeg float64
	// CrossPlaneISLs enables the east-west links of the +grid topology.
	// When false only intra-plane (north-south) ISLs exist. ISLs never
	// cross shells: real deployments keep laser links within a shell, where
	// relative geometry is stationary.
	CrossPlaneISLs bool
}

// shellList returns the configured shells in id order — the single Walker as
// a one-element list, or Shells verbatim.
func (cfg *Config) shellList() []orbit.Walker {
	if len(cfg.Shells) > 0 {
		return cfg.Shells
	}
	return []orbit.Walker{cfg.Walker}
}

// DefaultConfig returns the paper's simulation setup: Starlink Shell 1 with
// a 25 degree elevation mask and full +grid ISLs.
func DefaultConfig() Config {
	return Config{
		Walker:          orbit.StarlinkShell1(),
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	}
}

// StarlinkGen2Config returns the three-shell Starlink Gen2 system (7,500
// satellites) with the default elevation mask and +grid ISLs.
func StarlinkGen2Config() Config {
	return Config{
		Shells:          orbit.StarlinkGen2(),
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	}
}

// KuiperConfig returns the three-shell Project Kuiper system (3,236
// satellites) with the default elevation mask and +grid ISLs.
func KuiperConfig() Config {
	return Config{
		Shells:          orbit.Kuiper(),
		MinElevationDeg: 25,
		CrossPlaneISLs:  true,
	}
}

// shellSpan is one shell's placement in the composite id space: its Walker
// geometry plus the first SatID and first global plane index it owns.
type shellSpan struct {
	w          orbit.Walker
	firstSat   SatID
	firstPlane int
}

// Constellation owns the satellite set. It is immutable after construction
// and safe for concurrent use; the lazily built ISL topology is an internal
// cache of immutable derived state.
type Constellation struct {
	cfg      Config
	shells   []shellSpan // always >= 1; single-shell configs normalize to one span
	elements []orbit.Elements
	eng      *posEngine

	maxSlantKm float64   // slant range at the mask for the highest shell
	geom       *gridGeom // visibility-grid geometry sized to the satellite count

	memoHits, memoMisses parallel.Striped // path-tree table effectiveness, per constellation

	topoOnce sync.Once
	topo     *islTopology // time-invariant +grid CSR structure, built once
}

// New builds a constellation from the configuration.
func New(cfg Config) (*Constellation, error) {
	if len(cfg.Shells) > 0 && cfg.Walker != (orbit.Walker{}) {
		return nil, fmt.Errorf("constellation: Config.Walker and Config.Shells are mutually exclusive")
	}
	ws := cfg.shellList()
	for i, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("constellation: shell %d: %w", i, err)
		}
	}
	if !(cfg.MinElevationDeg >= 0 && cfg.MinElevationDeg < 90) { // NaN fails too
		return nil, fmt.Errorf("constellation: elevation mask %v out of range [0,90)", cfg.MinElevationDeg)
	}
	c := &Constellation{cfg: cfg, shells: make([]shellSpan, 0, len(ws))}
	maxAlt := 0.0
	nextSat, nextPlane := SatID(0), 0
	for _, w := range ws {
		c.shells = append(c.shells, shellSpan{w: w, firstSat: nextSat, firstPlane: nextPlane})
		c.elements = append(c.elements, w.All()...)
		nextSat += SatID(w.Total())
		nextPlane += w.Planes
		if w.AltitudeKm > maxAlt {
			maxAlt = w.AltitudeKm
		}
	}
	c.maxSlantKm = geo.SlantRangeKm(maxAlt, cfg.MinElevationDeg)
	c.geom = newGridGeom(len(c.elements))
	c.eng = newPosEngine(c.elements)
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Constellation {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the constellation configuration.
func (c *Constellation) Config() Config { return c.cfg }

// Total returns the number of satellites.
func (c *Constellation) Total() int { return len(c.elements) }

// ShellCount returns the number of Walker shells.
func (c *Constellation) ShellCount() int { return len(c.shells) }

// Shell returns the Walker geometry of shell i.
func (c *Constellation) Shell(i int) WalkerShell { return c.shells[i].w }

// ShellRange returns the contiguous SatID range [first, first+count) owned
// by shell i.
func (c *Constellation) ShellRange(i int) (first SatID, count int) {
	return c.shells[i].firstSat, c.shells[i].w.Total()
}

// ShellOf returns the index of the shell owning the satellite.
func (c *Constellation) ShellOf(id SatID) int { return c.shellOf(id) }

// GridDims reports the visibility-grid resolution the adaptive sizing rule
// chose for this constellation's satellite count. Diagnostic — the
// scale-bench experiment prints it and TestScaleBench pins it.
func (c *Constellation) GridDims() (rows, cols int) { return c.geom.rows, c.geom.cols }

// shellOf locates id's shell by a reverse linear scan over the (at most a
// handful of) spans — faster than binary search at realistic shell counts
// and branch-free for the single-shell case.
func (c *Constellation) shellOf(id SatID) int {
	for i := len(c.shells) - 1; i > 0; i-- {
		if id >= c.shells[i].firstSat {
			return i
		}
	}
	return 0
}

// Planes returns the total number of orbital planes across all shells.
// Plane indices are global: shell 0 owns planes [0, P0), shell 1 owns
// [P0, P0+P1), and so on.
func (c *Constellation) Planes() int {
	last := c.shells[len(c.shells)-1]
	return last.firstPlane + last.w.Planes
}

// SatsPerPlane returns the number of satellites per plane of the first
// shell. Every plane of a single-shell constellation has this count;
// multi-shell callers should use PlaneSlots, which is exact per plane.
func (c *Constellation) SatsPerPlane() int { return c.shells[0].w.SatsPerPlane }

// PlaneSlots returns the number of satellites in the given global plane.
func (c *Constellation) PlaneSlots(plane int) int {
	return c.shells[c.shellOfPlane(plane)].w.SatsPerPlane
}

// shellOfPlane locates the shell owning a global plane index.
func (c *Constellation) shellOfPlane(plane int) int {
	for i := len(c.shells) - 1; i > 0; i-- {
		if plane >= c.shells[i].firstPlane {
			return i
		}
	}
	return 0
}

// Plane returns the global plane index of a satellite.
func (c *Constellation) Plane(id SatID) int {
	sh := &c.shells[c.shellOf(id)]
	return sh.firstPlane + (int(id)-int(sh.firstSat))/sh.w.SatsPerPlane
}

// Slot returns the in-plane slot index of a satellite.
func (c *Constellation) Slot(id SatID) int {
	sh := &c.shells[c.shellOf(id)]
	return (int(id) - int(sh.firstSat)) % sh.w.SatsPerPlane
}

// ID returns the satellite identifier for a (global plane, slot) pair.
func (c *Constellation) ID(plane, slot int) SatID {
	sh := &c.shells[c.shellOfPlane(plane)]
	return sh.firstSat + SatID((plane-sh.firstPlane)*sh.w.SatsPerPlane+slot)
}

// Elements returns the orbital elements of a satellite.
func (c *Constellation) Elements(id SatID) orbit.Elements { return c.elements[id] }

// Snapshot captures every satellite position at time t after epoch and
// builds the visibility grid over them, so the snapshot is handed out ready
// for ground queries.
func (c *Constellation) Snapshot(t time.Duration) *Snapshot {
	s := &Snapshot{c: c, t: t, pos: make([]geo.Vec3, len(c.elements))}
	c.eng.positionsInto(t, s.pos)
	s.grid = newVisGrid(s)
	return s
}

// Snapshot is the constellation geometry frozen at one instant. It is
// immutable and safe for concurrent use. The ISL graph is built lazily on
// first request and cached; the lazy build is guarded by a sync.Once so
// concurrent first callers (parallel request shards) share one build.
// Callers that must hand out a finished topology force it (spacecdn's
// NewEpoch and ResolveAll).
type Snapshot struct {
	c   *Constellation
	t   time.Duration
	pos []geo.Vec3

	islOnce  sync.Once
	islGraph *routing.Graph // built once on first ISLGraph call
	islW     []float64      // per-link weight buffer backing islGraph, topology edge order

	grid *visGrid // lat/lon cell index, built with the snapshot

	// memoGen distinguishes sweep steps in the ground-point memo: a sweep
	// cursor mutates its snapshot in place and bumps the generation each
	// advance, and ground-point entries carry their step, so the memo needs
	// no per-step clearing. Always 0 for a fresh immutable snapshot.
	memoGen uint32
	trees   pathTrees // shortest-path trees over the healthy graph, one slot per source

	maskMu sync.Mutex
	masked map[uint64]*MaskedView // fault epoch -> cached fault-aware view

	// ground memoizes, per ground point, the overhead satellite and (once
	// asked for) the visible list: clients sit at a few hundred fixed points
	// and every request starts by asking which satellite is overhead, and the
	// ground stage asks for the same stations' lists thousands of times per
	// snapshot. Lock-free, allocated on first use, retired by sweep
	// generation — see groundmemo.go.
	ground groundMemo
}

// clearMasked drops every cached fault-aware view; the sweep cursor calls it
// on advance because masked views cache ISL graphs whose weights would
// otherwise go stale — and, with each view, the path trees rooted in its
// graph. Deleting in place keeps the map's storage, so the steady-state
// sweep step stays allocation-free.
func (s *Snapshot) clearMasked() {
	s.maskMu.Lock()
	for k := range s.masked {
		delete(s.masked, k)
	}
	s.maskMu.Unlock()
}

// Time returns the snapshot's offset from the constellation epoch.
func (s *Snapshot) Time() time.Duration { return s.t }

// Constellation returns the parent constellation.
func (s *Snapshot) Constellation() *Constellation { return s.c }

// Position returns the ECEF position of a satellite in this snapshot.
func (s *Snapshot) Position(id SatID) geo.Vec3 { return s.pos[id] }

// SubPoint returns the geographic point under a satellite.
func (s *Snapshot) SubPoint(id SatID) geo.Point { return s.pos[id].ToPoint() }

// ISLNeighbors returns the +grid neighbours of a satellite: the two
// intra-plane neighbours (previous and next slot) and, when cross-plane ISLs
// are enabled, the phase-nearest slot in each adjacent plane. Phase-nearest
// pairing keeps link lengths physical across the phasing seam between the
// last and first plane, where same-slot satellites can be a quarter orbit
// apart.
func (s *Snapshot) ISLNeighbors(id SatID) []SatID {
	return s.c.appendISLNeighbors(id, make([]SatID, 0, 4))
}

// appendISLNeighbors appends the +grid neighbours of id to out and returns
// the extended slice. The append count is fixed per configuration: two
// intra-plane entries, plus two cross-plane entries when enabled. Neighbours
// stay within id's shell — plane and slot arithmetic is local to the shell's
// Walker, offset back into the composite id space. The neighbour set depends
// only on plane/slot indices, never on time — which is what lets the
// topology be hoisted out of the per-snapshot build.
func (c *Constellation) appendISLNeighbors(id SatID, out []SatID) []SatID {
	sh := &c.shells[c.shellOf(id)]
	w := sh.w
	base := int(sh.firstSat)
	local := int(id) - base
	p, k := local/w.SatsPerPlane, local%w.SatsPerPlane
	out = append(out,
		SatID(base+p*w.SatsPerPlane+(k+1)%w.SatsPerPlane),
		SatID(base+p*w.SatsPerPlane+(k-1+w.SatsPerPlane)%w.SatsPerPlane),
	)
	if c.cfg.CrossPlaneISLs {
		east := (p + 1) % w.Planes
		west := (p - 1 + w.Planes) % w.Planes
		out = append(out,
			SatID(base+east*w.SatsPerPlane+crossPlaneSlot(w, p, k, east)),
			SatID(base+west*w.SatsPerPlane+crossPlaneSlot(w, p, k, west)),
		)
	}
	return out
}

// crossPlaneSlot returns the slot in plane q of shell w whose orbital phase
// is nearest to that of satellite (p, k). Since all satellites of a shell
// advance at the same rate, the pairing is time-invariant.
func crossPlaneSlot(w orbit.Walker, p, k, q int) int {
	// phase(q, s) = 360*s/S + 360*F*q/(P*S); solve for s nearest to
	// phase(p, k).
	phase := 360*float64(k)/float64(w.SatsPerPlane) +
		360*float64(w.PhasingF)*float64(p)/float64(w.Planes*w.SatsPerPlane)
	base := 360 * float64(w.PhasingF) * float64(q) / float64(w.Planes*w.SatsPerPlane)
	s := int(math.Round((phase - base) * float64(w.SatsPerPlane) / 360))
	s %= w.SatsPerPlane
	if s < 0 {
		s += w.SatsPerPlane
	}
	return s
}

// ISLDistanceKm returns the straight-line distance between two satellites.
func (s *Snapshot) ISLDistanceKm(a, b SatID) float64 {
	return s.pos[a].Sub(s.pos[b]).Norm()
}

// ISLDelay returns the one-way laser-link propagation delay between two
// satellites in this snapshot.
func (s *Snapshot) ISLDelay(a, b SatID) time.Duration {
	return orbit.PropagationDelay(s.ISLDistanceKm(a, b))
}

// ISLGraph returns the +grid ISL topology with edge weights equal to the
// one-way propagation delay in milliseconds. The graph is built once per
// snapshot, safe under concurrent callers; the returned value is shared and
// must not be mutated.
func (s *Snapshot) ISLGraph() *routing.Graph {
	s.islOnce.Do(func() {
		s.islGraph = s.buildISLGraph(nil)
	})
	return s.islGraph
}

// buildISLGraph constructs the +grid graph at this snapshot's positions,
// omitting edges for which skip returns true (nil skips nothing — the full
// graph). The time-invariant adjacency comes from the constellation's shared
// CSR topology; the full build fills it with this instant's weights in one
// pass, and a masked build replays the recorded edge list through the skip
// predicate, so surviving edges keep exactly the adjacency order of the full
// build — a masked build is the full build minus edges, never a reordering.
func (s *Snapshot) buildISLGraph(skip func(lo, hi SatID) bool) *routing.Graph {
	if skip == nil {
		return s.buildISLGraphCSR()
	}
	topo := s.c.topology()
	g := routing.NewGraph(len(s.pos))
	for _, e := range topo.edges {
		if skip(e.A, e.B) {
			continue
		}
		w := s.ISLDistanceKm(e.A, e.B) / orbit.LightSpeedKmPerSec * 1000
		g.AddUndirected(routing.NodeID(e.A), routing.NodeID(e.B), w)
	}
	return g
}

// buildISLGraphScan is the reference implementation of buildISLGraph: the
// incremental dedupe scan that discovers the adjacency from scratch at every
// call. Kept for equivalence tests proving the hoisted topology reproduces
// its edge set, adjacency order and weights exactly.
func (s *Snapshot) buildISLGraphScan(skip func(lo, hi SatID) bool) *routing.Graph {
	n := len(s.pos)
	g := routing.NewGraph(n)
	deg := 2
	if s.c.cfg.CrossPlaneISLs {
		deg = 4
	}
	// Flat neighbour table: node id's list is nbrs[id*deg:(id+1)*deg].
	// Having every list at hand replaces the map-based dedupe with direct
	// ordering checks while keeping the edge insertion order — and hence
	// the adjacency lists downstream algorithms iterate — identical to
	// the map version's first-encounter order.
	nbrs := make([]SatID, 0, deg*n)
	for id := 0; id < n; id++ {
		nbrs = s.c.appendISLNeighbors(SatID(id), nbrs)
	}
	contains := func(list []SatID, x SatID) bool {
		for _, v := range list {
			if v == x {
				return true
			}
		}
		return false
	}
	for id := 0; id < n; id++ {
		a := SatID(id)
		list := nbrs[id*deg : (id+1)*deg]
		for j, b := range list {
			if b == a {
				continue
			}
			// Add the undirected edge only at its first encounter in the
			// scan: skip when the pair already appeared earlier in this
			// node's own list (degenerate small rings), or — for b < a —
			// in b's list, which the scan visited first. The b < a case
			// with a absent from b's list happens under phase-nearest
			// pairing, which is not always symmetric.
			if contains(list[:j], b) {
				continue
			}
			if b < a && contains(nbrs[int(b)*deg:(int(b)+1)*deg], a) {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if skip != nil && skip(lo, hi) {
				continue
			}
			w := s.ISLDistanceKm(lo, hi) / orbit.LightSpeedKmPerSec * 1000
			g.AddUndirected(routing.NodeID(lo), routing.NodeID(hi), w)
		}
	}
	return g
}

// VisibleSat is a satellite visible from a ground point.
type VisibleSat struct {
	ID           SatID
	ElevationDeg float64
	SlantKm      float64
}

// Visible returns all satellites above the configured elevation mask as seen
// from the ground point, sorted by descending elevation (best first). The
// query runs over the snapshot's visibility grid, inspecting only cells whose
// satellites could be within slant range; the result is identical to
// VisibleScan's full scan.
func (s *Snapshot) Visible(ground geo.Point) []VisibleSat {
	return s.grid.visible(s, ground)
}

// VisibleScan is the reference implementation of Visible: a linear scan over
// every satellite. Kept for equivalence tests and benchmark baselines.
func (s *Snapshot) VisibleScan(ground geo.Point) []VisibleSat {
	g := ground.ToECEF()
	// Pre-filter with the coverage cone: a satellite can only be visible if
	// its distance from the ground point is at most the max slant range —
	// taken at the highest shell's altitude, which bounds every lower shell.
	maxSlant := s.c.maxSlantKm
	var out []VisibleSat
	for id, p := range s.pos {
		d := p.Sub(g).Norm()
		if d > maxSlant {
			continue
		}
		el := geo.ElevationDeg(g, p)
		if el >= s.c.cfg.MinElevationDeg {
			out = append(out, VisibleSat{ID: SatID(id), ElevationDeg: el, SlantKm: d})
		}
	}
	sortByElevation(out)
	return out
}

// sortByElevation orders visible satellites best-first, breaking exact
// elevation ties toward the lower id. The explicit tie-break matters for
// multi-shell composites: two shells can park satellites at bit-identical
// elevations (both exactly overhead), where an unstable sort would leave the
// winner to partition luck — and BestVisible's running-max tie-break must
// agree with the sorted order.
func sortByElevation(out []VisibleSat) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].ElevationDeg != out[j].ElevationDeg {
			return out[i].ElevationDeg > out[j].ElevationDeg
		}
		return out[i].ID < out[j].ID
	})
}

// BestVisibleScan is the reference implementation of BestVisible (full scan
// and sort). Kept for equivalence tests and benchmark baselines.
func (s *Snapshot) BestVisibleScan(ground geo.Point) (VisibleSat, bool) {
	vis := s.VisibleScan(ground)
	if len(vis) == 0 {
		return VisibleSat{}, false
	}
	return vis[0], true
}

// UpDownDelay returns the one-way radio propagation delay between the ground
// point and the given satellite.
func (s *Snapshot) UpDownDelay(ground geo.Point, id SatID) time.Duration {
	d := s.pos[id].Sub(ground.ToECEF()).Norm()
	return orbit.PropagationDelay(d)
}

// OverheadWindows predicts the future intervals during which each satellite
// serves (is the best visible satellite for) the ground point, scanning
// [from, to) with the given step. Consecutive samples with the same best
// satellite merge into one window. Gaps (no visible satellite) are skipped.
type OverheadWindow struct {
	Sat   SatID
	Start time.Duration
	End   time.Duration
}

// OverheadWindows computes serving windows for a ground point by sampling.
// Step must be positive; typical values are 5-30 seconds. The sampling runs
// over a sweep cursor, so the per-step cost is the incremental world
// update rather than a fresh snapshot build.
func (c *Constellation) OverheadWindows(ground geo.Point, from, to, step time.Duration) []OverheadWindow {
	if step <= 0 || to <= from {
		return nil
	}
	cur := c.Sweep(from, step)
	defer cur.Close()
	return OverheadWindowsOver(cur, ground, to)
}

// OverheadWindowsScan is the reference implementation of OverheadWindows: a
// fresh snapshot per sample. Kept for equivalence tests and benchmark
// baselines.
func (c *Constellation) OverheadWindowsScan(ground geo.Point, from, to, step time.Duration) []OverheadWindow {
	if step <= 0 || to <= from {
		return nil
	}
	cur := c.SweepScan(from, step)
	defer cur.Close()
	return OverheadWindowsOver(cur, ground, to)
}

// OverheadWindowsOver computes serving windows by sampling an existing
// cursor from its current time up to (but excluding) to, advancing it by its
// step. The cursor is left positioned at the last sample; the caller retains
// ownership and must Close it.
func OverheadWindowsOver(cur Cursor, ground geo.Point, to time.Duration) []OverheadWindow {
	step := cur.Step()
	if step <= 0 {
		return nil
	}
	var out []OverheadWindow
	var open *OverheadWindow
	for t := cur.Time(); t < to; t += step {
		snap := cur.AdvanceTo(t)
		best, ok := snap.BestVisible(ground)
		if !ok {
			open = nil
			continue
		}
		if open != nil && open.Sat == best.ID {
			open.End = t + step
			continue
		}
		out = append(out, OverheadWindow{Sat: best.ID, Start: t, End: t + step})
		open = &out[len(out)-1]
	}
	return out
}
