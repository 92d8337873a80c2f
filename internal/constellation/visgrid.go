package constellation

import (
	"math"
	"sort"

	"spacecdn/internal/geo"
)

// visGrid is a lat/lon cell index over the snapshot's satellite sub-points.
// Ground visibility queries used to scan every satellite; the coverage cone
// of a ~550 km satellite above a 25 degree mask spans under ten degrees of
// central angle, so only a handful of grid cells can hold visible
// satellites. The grid maps a ground point to those cells with conservative
// spherical bounds and re-checks each candidate with the exact
// slant/elevation predicate, so query results are identical to the full scan.
//
// Each cell is an intrusive doubly-linked list over a fixed satellite arena
// (head[cell] chains satellites through next/prev), so the sweep cursor
// migrates a satellite between cells in O(1) without allocating. Query
// results never depend on the order within a cell: every query re-checks
// candidates with the exact predicate and resolves order via sorts or
// explicit id tie-breaks.
type visGrid struct {
	geom       *gridGeom // shared per-constellation cell geometry
	minR, maxR float64   // satellite orbital radius bounds, km

	head       []int32
	next, prev []int32
	// rowOf/colOf hold each satellite's current cell as a (row, col) pair —
	// split so the sweep's hot stayer test never divides by the runtime
	// column count.
	rowOf, colOf []int32
}

// visGridMinRows/visGridCellOccupancy size the grid to the constellation.
// The resolution rule rows = max(18, ceil(sqrt(N/8))), cols = 2*rows keeps
// the expected satellites per cell bounded (~8 at the equator, fewer toward
// the poles) as N grows: cells shrink like 1/sqrt(N), so candidate windows
// stay a few dozen satellites at any scale. N = 1,584 (Starlink Shell 1)
// sits below the breakpoint and keeps the original 18x36 grid of 10 degree
// cells.
const (
	visGridMinRows       = 18
	visGridCellOccupancy = 8
)

// gridGeom is the cell geometry of a constellation's visibility grids,
// computed once per constellation and shared by every snapshot's grid: cell
// steps, the merged polar caps, and the margin-shrunk boundary tables of the
// in-cell fast test.
//
// Polar caps: rows poleward of roughly +-70 degrees latitude merge all
// longitude columns into the row's column-0 cell. An inclined shell
// concentrates sub-points near its inclination turnaround, and longitude
// converges at the poles — a polar row's cells all neighbour each other, so
// the per-column pre-filter degenerates into a whole-band scan anyway.
// Merging makes that explicit: one cell per cap row, one yield per query,
// and a z-band-only membership test.
type gridGeom struct {
	rows, cols       int
	latStep, lonStep float64 // degrees per cell
	capRows          int     // rows at each pole merged into one cell per row

	sinLo, sinHi []float64 // per-row sin(latitude) band bounds, margin-shrunk
	minCos       []float64 // per-row smallest cos(latitude), at the band edge nearer a pole
	cosB, sinB   []float64 // unit direction of each column boundary meridian
}

// newGridGeom builds the geometry for an n-satellite constellation.
func newGridGeom(n int) *gridGeom {
	rows := visGridMinRows
	if r := int(math.Ceil(math.Sqrt(float64(n) / visGridCellOccupancy))); r > rows {
		rows = r
	}
	cols := 2 * rows
	gm := &gridGeom{
		rows:    rows,
		cols:    cols,
		latStep: 180.0 / float64(rows),
		lonStep: 360.0 / float64(cols),
		// rows/9 caps the ~20 degrees nearest each pole at any resolution
		// (2 rows of the 18-row grid, 4 of a 37-row grid).
		capRows: rows / 9,
		sinLo:   make([]float64, rows),
		sinHi:   make([]float64, rows),
		minCos:  make([]float64, rows),
		cosB:    make([]float64, cols+1),
		sinB:    make([]float64, cols+1),
	}
	for r := 0; r < rows; r++ {
		lo := (-90 + float64(r)*gm.latStep) * math.Pi / 180
		hi := (-90 + float64(r+1)*gm.latStep) * math.Pi / 180
		gm.sinLo[r] = math.Sin(lo) + cellBoundMargin
		gm.sinHi[r] = math.Sin(hi) - cellBoundMargin
		// The band edges as the candidate query has always computed them
		// (not lo/hi above, which round differently), so hoisting the two
		// cosines here leaves every longitude window bit-identical.
		bandLo := -90 + float64(r)*gm.latStep
		bandHi := bandLo + gm.latStep
		gm.minCos[r] = math.Min(math.Cos(bandLo*math.Pi/180), math.Cos(bandHi*math.Pi/180))
	}
	for c := 0; c <= cols; c++ {
		a := (-180 + float64(c)*gm.lonStep) * math.Pi / 180
		gm.cosB[c], gm.sinB[c] = math.Cos(a), math.Sin(a)
	}
	return gm
}

// capRow reports whether row r belongs to a merged polar cap.
func (gm *gridGeom) capRow(r int) bool {
	return r < gm.capRows || r >= gm.rows-gm.capRows
}

// cellRC maps a sub-point to its (row, col) cell, clamping the boundary
// cases (lat = 90, lon = 180) into the last row/column. Cap rows map every
// longitude to column 0 — the row's single merged cell.
func (gm *gridGeom) cellRC(latDeg, lonDeg float64) (int, int) {
	r := int((latDeg + 90) / gm.latStep)
	if r < 0 {
		r = 0
	} else if r >= gm.rows {
		r = gm.rows - 1
	}
	if gm.capRow(r) {
		return r, 0
	}
	c := int((lonDeg + 180) / gm.lonStep)
	if c < 0 {
		c = 0
	} else if c >= gm.cols {
		c = gm.cols - 1
	}
	return r, c
}

// cellIndex is cellRC flattened into the grid's cell array.
func (gm *gridGeom) cellIndex(latDeg, lonDeg float64) int {
	r, c := gm.cellRC(latDeg, lonDeg)
	return r*gm.cols + c
}

// maxCentralAngleRad returns the largest possible central angle between a
// ground point at radius rg and the sub-point of any satellite within
// maxSlant km. From the chord law d^2 = rg^2 + rs^2 - 2*rg*rs*cos(A), the
// bound must hold for every satellite radius rs in [minR, maxR]; cos(A) is
// minimized at the interval endpoints or at the interior critical point
// rs = sqrt(rg^2 - d^2).
func (g *visGrid) maxCentralAngleRad(rg, maxSlant float64) float64 {
	if g.maxR == 0 {
		return 0 // empty constellation
	}
	worst := 1.0
	eval := func(rs float64) {
		if c := (rg*rg + rs*rs - maxSlant*maxSlant) / (2 * rg * rs); c < worst {
			worst = c
		}
	}
	eval(g.minR)
	eval(g.maxR)
	if crit := math.Sqrt(math.Max(0, rg*rg-maxSlant*maxSlant)); crit > g.minR && crit < g.maxR {
		eval(crit)
	}
	if worst < -1 {
		worst = -1
	} else if worst > 1 {
		worst = 1
	}
	return math.Acos(worst)
}

// queryLatLon returns the coordinates a ground query centres its candidate
// window on. The exact predicate tests the point's ECEF vector gv, and a
// geo.Point literal need not be normalised: longitude 200 is longitude -160,
// latitude 100 is latitude 80 on the far meridian. In range, the point's own
// coordinates are used unchanged; out of range — or NaN — the window is
// centred on gv's own coordinates, so the grid answers what the scan
// answers for any point. The grid queries call it once each, before their
// candidate walks.
func queryLatLon(ground geo.Point, gv geo.Vec3) (lat, lon float64) {
	if ground.LatDeg >= -90 && ground.LatDeg <= 90 && ground.LonDeg >= -180 && ground.LonDeg <= 180 {
		return ground.LatDeg, ground.LonDeg
	}
	p := gv.ToPoint()
	return p.LatDeg, p.LonDeg
}

// forEachCandidate yields every satellite whose sub-point could lie within
// lamRad central angle of the ground point. The latitude band is exact; the
// per-row longitude half-width follows from the haversine identity
// hav(A) >= cos(lat1)*cos(lat2)*hav(dLon), taken conservatively over the
// row's latitude range (rows touching a pole widen to the full circle). A
// cap row holds its whole band in one merged cell, yielded once.
// Candidates are a superset — callers re-check each one exactly. latDeg and
// lonDeg must be in range: queryLatLon's output.
func (g *visGrid) forEachCandidate(latDeg, lonDeg, lamRad float64, yield func(int32)) {
	gm := g.geom
	lamDeg := lamRad * 180 / math.Pi
	r0 := int(math.Floor((latDeg - lamDeg + 90) / gm.latStep))
	if r0 < 0 {
		r0 = 0
	}
	r1 := int(math.Floor((latDeg + lamDeg + 90) / gm.latStep))
	if r1 >= gm.rows {
		r1 = gm.rows - 1
	}
	cosG := math.Cos(latDeg * math.Pi / 180)
	// A window past pi is the whole sphere; sin(lam/2) would shrink again.
	sinHalf := math.Sin(math.Min(lamRad, math.Pi) / 2)
	c0 := int((lonDeg + 180) / gm.lonStep)
	if c0 < 0 {
		c0 = 0
	} else if c0 >= gm.cols {
		c0 = gm.cols - 1
	}
	for r := r0; r <= r1; r++ {
		if gm.capRow(r) {
			g.yieldCell(r, 0, yield)
			continue
		}
		span := gm.cols // cells on each side of c0; cols means the full circle
		if denom := cosG * gm.minCos[r]; denom > 1e-12 {
			if q := sinHalf / math.Sqrt(denom); q < 1 {
				dLonDeg := 2 * math.Asin(q) * 180 / math.Pi
				span = int(dLonDeg/gm.lonStep) + 1
			}
		}
		if 2*span+1 >= gm.cols {
			for c := 0; c < gm.cols; c++ {
				g.yieldCell(r, c, yield)
			}
			continue
		}
		for dc := -span; dc <= span; dc++ {
			c := c0 + dc
			if c < 0 {
				c += gm.cols
			} else if c >= gm.cols {
				c -= gm.cols
			}
			g.yieldCell(r, c, yield)
		}
	}
}

func (g *visGrid) yieldCell(r, c int, yield func(int32)) {
	for id := g.head[r*g.geom.cols+c]; id >= 0; id = g.next[id] {
		yield(id)
	}
}

// newVisGrid builds the grid over the snapshot's positions: every
// satellite's cell computed from scratch and linked at the front of its
// cell's list. Snapshot construction calls it, so a snapshot is never handed
// out without its grid; the sweep cursor then migrates this same grid with
// advance.
func newVisGrid(s *Snapshot) *visGrid {
	gm := s.c.geom
	n := len(s.pos)
	g := &visGrid{
		geom:  gm,
		minR:  math.Inf(1),
		head:  make([]int32, gm.rows*gm.cols),
		next:  make([]int32, n),
		prev:  make([]int32, n),
		rowOf: make([]int32, n),
		colOf: make([]int32, n),
	}
	for i := range g.head {
		g.head[i] = -1
	}
	for i, p := range s.pos {
		r := p.Norm()
		if r < g.minR {
			g.minR = r
		}
		if r > g.maxR {
			g.maxR = r
		}
		pt := p.ToPoint()
		row, col := gm.cellRC(pt.LatDeg, pt.LonDeg)
		g.rowOf[i], g.colOf[i] = int32(row), int32(col)
		g.linkFront(int32(i), int32(row*gm.cols+col))
	}
	return g
}

// advance refreshes the grid after the sweep moved the positions: satellites
// provably still inside their cell (the common case — one 15 s step moves a
// satellite about a tenth of a 10 degree cell) are untouched; boundary
// crossers are relocated by probing the eight neighbouring cells with the
// same multiplication-only test, and only the rare satellite that lands
// within the margin of a boundary (or jumped several cells in one AdvanceTo)
// pays the exact asin/atan2 recompute. The relink is O(1); the radius bounds
// are recomputed with newVisGrid's operation sequence. Allocation-free.
func (g *visGrid) advance(s *Snapshot) {
	gm := g.geom
	minR, maxR := math.Inf(1), 0.0
	for i, p := range s.pos {
		r := p.Norm()
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		row := int(g.rowOf[i])
		col := int(g.colOf[i])
		// The stayer test is inCellRC inlined by hand: the compiler refuses
		// the full function, and one opaque call per satellite per step is
		// the single largest cost of an advance. Keep in lockstep with
		// inCellRC. A cap cell spans every longitude, so its test is the
		// z-band alone.
		if p.Z >= r*gm.sinLo[row] && p.Z <= r*gm.sinHi[row] {
			if gm.capRow(row) {
				continue
			}
			m := cellBoundMargin * r
			if gm.cosB[col]*p.Y-gm.sinB[col]*p.X >= m &&
				gm.cosB[col+1]*p.Y-gm.sinB[col+1]*p.X <= -m {
				continue
			}
		}
		nr, nc := g.neighborCell(row, col, p, r)
		if nr < 0 {
			pt := p.ToPoint()
			nr, nc = gm.cellRC(pt.LatDeg, pt.LonDeg)
		}
		if nr != row || nc != col {
			g.unlink(int32(i), int32(row*gm.cols+col))
			g.linkFront(int32(i), int32(nr*gm.cols+nc))
			g.rowOf[i], g.colOf[i] = int32(nr), int32(nc)
		}
	}
	g.minR, g.maxR = minR, maxR
}

// neighborCellOffsets orders the probe around an abandoned cell: latitude
// neighbours first (orbital motion is mostly meridional away from the
// inclination turnaround), then longitude, then diagonals.
var neighborCellOffsets = [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}

// neighborCell locates a boundary-crossing satellite's new cell without
// trigonometry: one sweep step moves a satellite a fraction of a cell, so the
// destination is almost always one of the eight neighbours, and the same
// margin-shrunk inCellRC test that cleared the stayers proves membership — a
// true result implies the exact cellRC recompute would agree (cells are
// disjoint, so at most one can test true). A neighbour row inside a polar
// cap collapses to the row's merged cell. Returns row -1 when no neighbour
// strictly contains the point (large AdvanceTo jumps, or a sub-point within
// the margin of a boundary); the caller then falls back to the exact
// asin/atan2 recompute.
func (g *visGrid) neighborCell(row, col int, p geo.Vec3, r float64) (int, int) {
	gm := g.geom
	for _, d := range neighborCellOffsets {
		nr := row + d[0]
		if nr < 0 || nr >= gm.rows {
			continue // latitude rows do not wrap
		}
		nc := col + d[1]
		if nc < 0 {
			nc += gm.cols
		} else if nc >= gm.cols {
			nc -= gm.cols
		}
		if gm.capRow(nr) {
			nc = 0
		}
		if gm.inCellRC(nr, nc, p, r) {
			return nr, nc
		}
	}
	return -1, -1
}

func (g *visGrid) linkFront(i, cell int32) {
	g.next[i] = g.head[cell]
	g.prev[i] = -1
	if g.head[cell] >= 0 {
		g.prev[g.head[cell]] = i
	}
	g.head[cell] = i
}

func (g *visGrid) unlink(i, cell int32) {
	if g.prev[i] >= 0 {
		g.next[g.prev[i]] = g.next[i]
	} else {
		g.head[cell] = g.next[i]
	}
	if g.next[i] >= 0 {
		g.prev[g.next[i]] = g.prev[i]
	}
}

// cellBoundMargin is the safety margin (radians-scale) of the in-cell fast
// test. A satellite within the margin of any cell boundary falls back to the
// exact asin/atan2 recompute, so the fast test can never disagree with
// cellRC: sin is 1-Lipschitz in latitude and the longitude test measures
// the sine of the angle to the boundary meridian, so passing the shrunk
// bounds proves the sub-point lies strictly inside the cell by at least the
// margin — about six orders of magnitude beyond double rounding error.
const cellBoundMargin = 1e-9

// inCellRC reports whether the position (with norm r) provably maps to cell
// (row, col) under cellRC, using only multiplications: the latitude band
// becomes a z-range, and longitude containment becomes two cross products
// against the boundary meridians (cosB*y - sinB*x = rho*sin(lon-alpha),
// positive within 180 degrees east of the boundary; for a cell narrower than
// 180 degrees the two half-plane tests intersect in exactly the cell's
// wedge). A merged cap cell owns its entire latitude band, so the z-range is
// the whole test. False only forces the exact recompute, so false negatives
// are harmless.
func (gm *gridGeom) inCellRC(row, col int, p geo.Vec3, r float64) bool {
	if p.Z < r*gm.sinLo[row] || p.Z > r*gm.sinHi[row] {
		return false
	}
	if gm.capRow(row) {
		return true
	}
	m := cellBoundMargin * r
	if gm.cosB[col]*p.Y-gm.sinB[col]*p.X < m {
		return false
	}
	if gm.cosB[col+1]*p.Y-gm.sinB[col+1]*p.X > -m {
		return false
	}
	return true
}

// visible implements Snapshot.Visible. Candidates are collected, restored to
// ascending id order (the full scan's iteration order), filtered with the
// exact predicate, and sorted with the same comparator — so the output slice
// is element-for-element identical to VisibleScan's.
func (g *visGrid) visible(s *Snapshot, ground geo.Point) []VisibleSat {
	gv := ground.ToECEF()
	maxSlant := s.c.maxSlantKm
	lam := g.maxCentralAngleRad(gv.Norm(), maxSlant)
	lat, lon := queryLatLon(ground, gv)
	var cand []int32
	g.forEachCandidate(lat, lon, lam, func(id int32) {
		cand = append(cand, id)
	})
	sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
	var out []VisibleSat
	for _, id := range cand {
		p := s.pos[id]
		d := p.Sub(gv).Norm()
		if d > maxSlant {
			continue
		}
		el := geo.ElevationDeg(gv, p)
		if el >= s.c.cfg.MinElevationDeg {
			out = append(out, VisibleSat{ID: SatID(id), ElevationDeg: el, SlantKm: d})
		}
	}
	sortByElevation(out)
	return out
}

// bestVisible implements Snapshot.BestVisible without allocating: it tracks
// the running best over the candidate cells instead of materializing and
// sorting the visible set. Strictly higher elevation wins; exact elevation
// ties (measure zero for real geometry) break toward the lower id.
func (g *visGrid) bestVisible(s *Snapshot, ground geo.Point) (VisibleSat, bool) {
	gv := ground.ToECEF()
	maxSlant := s.c.maxSlantKm
	lam := g.maxCentralAngleRad(gv.Norm(), maxSlant)
	lat, lon := queryLatLon(ground, gv)
	best := VisibleSat{ID: -1}
	g.forEachCandidate(lat, lon, lam, func(id int32) {
		p := s.pos[id]
		d := p.Sub(gv).Norm()
		if d > maxSlant {
			return
		}
		el := geo.ElevationDeg(gv, p)
		if !(el >= s.c.cfg.MinElevationDeg) { // the scan's predicate, so a NaN elevation fails
			return
		}
		if best.ID < 0 || el > best.ElevationDeg || (el == best.ElevationDeg && SatID(id) < best.ID) {
			best = VisibleSat{ID: SatID(id), ElevationDeg: el, SlantKm: d}
		}
	})
	if best.ID < 0 {
		return VisibleSat{}, false
	}
	return best, true
}
