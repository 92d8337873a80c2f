// Package orbit implements circular low-Earth-orbit propagation and
// Walker-delta constellation geometry.
//
// Satellites are propagated on ideal circular orbits (no J2 drift, no drag):
// for latency studies over minutes-to-hours horizons the dominant effects are
// orbital geometry and Earth rotation, both of which are modelled exactly.
// Positions are reported in the Earth-centered Earth-fixed (ECEF) frame so
// they compose directly with ground coordinates from package geo.
package orbit

import (
	"fmt"
	"math"
	"time"

	"spacecdn/internal/geo"
)

const (
	// MuEarth is the standard gravitational parameter of Earth, km^3/s^2.
	MuEarth = 398600.4418
	// EarthRotationRadPerSec is Earth's sidereal rotation rate.
	EarthRotationRadPerSec = 7.2921150e-5
	// LightSpeedKmPerSec is the speed of light in vacuum, used for
	// free-space (radio and laser ISL) propagation delay.
	LightSpeedKmPerSec = 299792.458
)

// Elements describes a circular orbit by its altitude, inclination, right
// ascension of the ascending node (RAAN) and the phase of the satellite
// along the orbit at epoch t=0.
type Elements struct {
	AltitudeKm     float64
	InclinationDeg float64
	RAANDeg        float64
	PhaseDeg       float64 // argument of latitude at epoch
}

// Validate reports a descriptive error for physically meaningless elements.
func (e Elements) Validate() error {
	// Each check is written so that NaN fails it: every comparison with NaN
	// is false.
	if !(e.AltitudeKm > 0) || math.IsInf(e.AltitudeKm, 1) {
		return fmt.Errorf("orbit: altitude must be positive and finite, got %v", e.AltitudeKm)
	}
	if !(e.InclinationDeg >= 0 && e.InclinationDeg <= 180) {
		return fmt.Errorf("orbit: inclination must be in [0,180], got %v", e.InclinationDeg)
	}
	return nil
}

// RadiusKm returns the orbital radius from the Earth's centre.
func (e Elements) RadiusKm() float64 { return geo.EarthRadiusKm + e.AltitudeKm }

// MeanMotionRadPerSec returns the angular rate of the circular orbit.
func (e Elements) MeanMotionRadPerSec() float64 {
	r := e.RadiusKm()
	return math.Sqrt(MuEarth / (r * r * r))
}

// Period returns the orbital period.
func (e Elements) Period() time.Duration {
	return time.Duration(2 * math.Pi / e.MeanMotionRadPerSec() * float64(time.Second))
}

// OrbitalSpeedKmPerSec returns the magnitude of the orbital velocity.
func (e Elements) OrbitalSpeedKmPerSec() float64 {
	return e.MeanMotionRadPerSec() * e.RadiusKm()
}

// PositionECI returns the satellite position in the Earth-centered inertial
// frame at time t after epoch.
func (e Elements) PositionECI(t time.Duration) geo.Vec3 {
	n := e.MeanMotionRadPerSec()
	u := e.PhaseDeg*math.Pi/180 + n*t.Seconds() // argument of latitude
	inc := e.InclinationDeg * math.Pi / 180
	raan := e.RAANDeg * math.Pi / 180
	r := e.RadiusKm()

	// Position in the orbital plane, then rotate by inclination about X,
	// then by RAAN about Z.
	x := r * math.Cos(u)
	y := r * math.Sin(u)
	// Rx(inc)
	y2 := y * math.Cos(inc)
	z2 := y * math.Sin(inc)
	// Rz(raan)
	cr, sr := math.Cos(raan), math.Sin(raan)
	return geo.Vec3{
		X: x*cr - y2*sr,
		Y: x*sr + y2*cr,
		Z: z2,
	}
}

// PositionECEF returns the satellite position in the rotating Earth-fixed
// frame at time t after epoch. At t=0 the ECI and ECEF frames coincide.
func (e Elements) PositionECEF(t time.Duration) geo.Vec3 {
	p := e.PositionECI(t)
	theta := EarthRotationRadPerSec * t.Seconds()
	// ECEF = Rz(-theta) * ECI
	c, s := math.Cos(theta), math.Sin(theta)
	return geo.Vec3{
		X: p.X*c + p.Y*s,
		Y: -p.X*s + p.Y*c,
		Z: p.Z,
	}
}

// SubPoint returns the geographic point directly beneath the satellite at
// time t.
func (e Elements) SubPoint(t time.Duration) geo.Point {
	return e.PositionECEF(t).ToPoint()
}

// Walker describes a Walker-delta constellation i:T/P/F — T satellites in P
// evenly spaced planes at common inclination i, with inter-plane phasing
// factor F.
type Walker struct {
	AltitudeKm     float64
	InclinationDeg float64
	Planes         int
	SatsPerPlane   int
	PhasingF       int
}

// StarlinkShell1 is the configuration the paper simulates: Starlink's first
// shell, 72 planes x 22 satellites at 550 km and 53 degrees inclination.
// F=17 gives the checkerboard phasing commonly attributed to Shell 1.
func StarlinkShell1() Walker {
	return Walker{
		AltitudeKm:     550,
		InclinationDeg: 53,
		Planes:         72,
		SatsPerPlane:   22,
		PhasingF:       17,
	}
}

// StarlinkGen2 is a three-shell approximation of Starlink's Gen2 system as
// filed with the FCC: 7,500 satellites split across 525/530/535 km shells at
// 53, 43 and 33 degrees inclination. Plane counts and phasing follow the
// Gen2A modification; exact slot arithmetic matters less than the shape —
// three dense shells at distinct altitudes and inclinations.
func StarlinkGen2() []Walker {
	return []Walker{
		{AltitudeKm: 525, InclinationDeg: 53, Planes: 28, SatsPerPlane: 120, PhasingF: 13},
		{AltitudeKm: 530, InclinationDeg: 43, Planes: 28, SatsPerPlane: 120, PhasingF: 13},
		{AltitudeKm: 535, InclinationDeg: 33, Planes: 13, SatsPerPlane: 60, PhasingF: 5},
	}
}

// Kuiper is Amazon's Project Kuiper first-generation system: 3,236
// satellites across three shells at 630/610/590 km and 51.9/42/33 degrees
// inclination, per the FCC authorization.
func Kuiper() []Walker {
	return []Walker{
		{AltitudeKm: 630, InclinationDeg: 51.9, Planes: 34, SatsPerPlane: 34, PhasingF: 11},
		{AltitudeKm: 610, InclinationDeg: 42, Planes: 36, SatsPerPlane: 36, PhasingF: 13},
		{AltitudeKm: 590, InclinationDeg: 33, Planes: 28, SatsPerPlane: 28, PhasingF: 9},
	}
}

// Total returns the number of satellites in the constellation.
func (w Walker) Total() int { return w.Planes * w.SatsPerPlane }

// Validate reports a descriptive error for a malformed configuration.
func (w Walker) Validate() error {
	if w.Planes <= 0 || w.SatsPerPlane <= 0 {
		return fmt.Errorf("orbit: walker needs positive planes and sats/plane, got %d x %d",
			w.Planes, w.SatsPerPlane)
	}
	if w.PhasingF < 0 || w.PhasingF >= w.Planes {
		return fmt.Errorf("orbit: walker phasing F must be in [0,%d), got %d", w.Planes, w.PhasingF)
	}
	return (Elements{AltitudeKm: w.AltitudeKm, InclinationDeg: w.InclinationDeg}).Validate()
}

// Elements returns the orbital elements of satellite s (0-based) in plane p
// (0-based).
func (w Walker) Elements(p, s int) Elements {
	raan := 360 * float64(p) / float64(w.Planes)
	phase := 360*float64(s)/float64(w.SatsPerPlane) +
		360*float64(w.PhasingF)*float64(p)/float64(w.Planes*w.SatsPerPlane)
	return Elements{
		AltitudeKm:     w.AltitudeKm,
		InclinationDeg: w.InclinationDeg,
		RAANDeg:        math.Mod(raan, 360),
		PhaseDeg:       math.Mod(phase, 360),
	}
}

// All returns the elements of every satellite, indexed plane-major:
// index = plane*SatsPerPlane + sat.
func (w Walker) All() []Elements {
	out := make([]Elements, 0, w.Total())
	for p := 0; p < w.Planes; p++ {
		for s := 0; s < w.SatsPerPlane; s++ {
			out = append(out, w.Elements(p, s))
		}
	}
	return out
}

// PropagationDelay returns the one-way free-space propagation delay over a
// straight-line distance of km kilometres.
func PropagationDelay(km float64) time.Duration {
	return time.Duration(km / LightSpeedKmPerSec * float64(time.Second))
}

// RevisitPeriod returns the approximate interval after which some satellite
// of the same plane passes over the location previously served — the paper's
// "satellites revisit a location roughly every 90 minutes".
func (w Walker) RevisitPeriod() time.Duration {
	return (Elements{AltitudeKm: w.AltitudeKm, InclinationDeg: w.InclinationDeg}).Period()
}

// GroundTrack samples the satellite's sub-point over [from, to) with the
// given step. The track drifts westward between orbits as the Earth rotates
// beneath the orbit plane.
func (e Elements) GroundTrack(from, to, step time.Duration) []geo.Point {
	if step <= 0 || to <= from {
		return nil
	}
	var out []geo.Point
	for t := from; t < to; t += step {
		out = append(out, e.SubPoint(t))
	}
	return out
}
