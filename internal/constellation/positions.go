package constellation

import (
	"math"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
)

// posEngine propagates every satellite of the constellation into a caller
// buffer in one pass. It is the single source of positions for both fresh
// snapshots and the sweep cursor, so the two are bit-identical by
// construction — an equivalence the sweep engine's byte-identical-output
// guarantee rests on.
//
// For a circular orbit the argument of latitude is u(t) = phase + n*t, and
// the ECEF position is a fixed per-satellite basis pair combined by
// (cos u, sin u) and rotated by the Earth angle. Satellites sharing one
// altitude share one mean motion n, so cos(n*t)/sin(n*t) is computed once
// per group and each satellite costs a handful of multiply-adds — no
// per-satellite trigonometry. A multi-shell composite contributes one group
// per contiguous equal-altitude run (shells are contiguous by construction),
// so the fast path covers every configuration; a single shell is exactly one
// group, reproducing the single-shell engine operation for operation. The
// basis arrays are the SoA layout every snapshot's positions are computed
// from, fresh or advanced in place by the sweep.
type posEngine struct {
	groups []posGroup

	// Per-satellite, time-invariant: cos/sin of the epoch phase and the
	// radius-scaled ECI basis vectors. ECI(t) = cosU*basisA + sinU*basisB.
	cosP, sinP     []float64
	basisA, basisB []geo.Vec3
}

// posGroup is a contiguous id range sharing one mean motion.
type posGroup struct {
	n      float64 // shared mean motion, rad/s
	lo, hi int     // satellite index range [lo, hi)
}

func newPosEngine(els []orbit.Elements) *posEngine {
	pe := &posEngine{}
	if len(els) == 0 {
		return pe
	}
	for i, e := range els {
		if len(pe.groups) == 0 || e.AltitudeKm != els[pe.groups[len(pe.groups)-1].lo].AltitudeKm {
			pe.groups = append(pe.groups, posGroup{n: e.MeanMotionRadPerSec(), lo: i})
		}
		pe.groups[len(pe.groups)-1].hi = i + 1
	}
	pe.cosP = make([]float64, len(els))
	pe.sinP = make([]float64, len(els))
	pe.basisA = make([]geo.Vec3, len(els))
	pe.basisB = make([]geo.Vec3, len(els))
	for i, e := range els {
		phase := e.PhaseDeg * math.Pi / 180
		pe.cosP[i], pe.sinP[i] = math.Cos(phase), math.Sin(phase)
		inc := e.InclinationDeg * math.Pi / 180
		raan := e.RAANDeg * math.Pi / 180
		r := e.RadiusKm()
		cr, sr := math.Cos(raan), math.Sin(raan)
		ci, si := math.Cos(inc), math.Sin(inc)
		// From PositionECI: ECI = cosU*(r*cr, r*sr, 0) + sinU*(-r*sr*ci, r*cr*ci, r*si).
		pe.basisA[i] = geo.Vec3{X: r * cr, Y: r * sr}
		pe.basisB[i] = geo.Vec3{X: -r * sr * ci, Y: r * cr * ci, Z: r * si}
	}
	return pe
}

// positionsInto writes the ECEF position of every satellite at time t into
// dst (len must equal the satellite count). It never allocates.
func (pe *posEngine) positionsInto(t time.Duration, dst []geo.Vec3) {
	sec := t.Seconds()
	theta := orbit.EarthRotationRadPerSec * sec
	ct, st := math.Cos(theta), math.Sin(theta)
	for _, gr := range pe.groups {
		cnt, snt := math.Cos(gr.n*sec), math.Sin(gr.n*sec)
		for i := gr.lo; i < gr.hi; i++ {
			cu := pe.cosP[i]*cnt - pe.sinP[i]*snt
			su := pe.sinP[i]*cnt + pe.cosP[i]*snt
			a, b := pe.basisA[i], pe.basisB[i]
			x := cu*a.X + su*b.X
			y := cu*a.Y + su*b.Y
			z := cu*a.Z + su*b.Z
			// ECEF = Rz(-theta) * ECI.
			dst[i] = geo.Vec3{X: x*ct + y*st, Y: y*ct - x*st, Z: z}
		}
	}
}
