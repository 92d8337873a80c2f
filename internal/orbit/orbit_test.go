package orbit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spacecdn/internal/geo"
)

func shell1Elements() Elements {
	return Elements{AltitudeKm: 550, InclinationDeg: 53}
}

func TestPeriodShell1(t *testing.T) {
	// A 550 km circular orbit has a period of roughly 95.6 minutes.
	p := shell1Elements().Period()
	if p < 94*time.Minute || p > 97*time.Minute {
		t.Errorf("period = %v, want ~95.6 min", p)
	}
}

func TestOrbitalSpeed(t *testing.T) {
	// The paper quotes ~27,000 km/h (7.5 km/s) for LEO satellites.
	v := shell1Elements().OrbitalSpeedKmPerSec()
	if v < 7.4 || v > 7.7 {
		t.Errorf("orbital speed = %v km/s, want ~7.6", v)
	}
}

func TestAltitudeInvariant(t *testing.T) {
	// Circular propagation must keep the radius constant in both frames.
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 40, PhaseDeg: 10}
	prop := func(secs int64) bool {
		dt := time.Duration(secs%86400) * time.Second
		eci := e.PositionECI(dt).Norm()
		ecef := e.PositionECEF(dt).Norm()
		want := geo.EarthRadiusKm + 550
		return math.Abs(eci-want) < 1e-6 && math.Abs(ecef-want) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("altitude drifted: %v", err)
	}
}

func TestInclinationBoundsLatitude(t *testing.T) {
	// The sub-satellite latitude can never exceed the inclination.
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 123, PhaseDeg: 77}
	maxLat := 0.0
	for s := 0; s < 6000; s += 10 {
		lat := math.Abs(e.SubPoint(time.Duration(s) * time.Second).LatDeg)
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat > 53.01 {
		t.Errorf("max latitude %v exceeds inclination", maxLat)
	}
	// And over a full period it should actually reach near the inclination.
	if maxLat < 52 {
		t.Errorf("max latitude %v should approach 53", maxLat)
	}
}

func TestPeriodicityECI(t *testing.T) {
	e := Elements{AltitudeKm: 550, InclinationDeg: 53, RAANDeg: 10, PhaseDeg: 20}
	p0 := e.PositionECI(0)
	p1 := e.PositionECI(e.Period())
	if d := p0.Sub(p1).Norm(); d > 1.0 {
		t.Errorf("position after one period differs by %v km", d)
	}
}

func TestECEFRotation(t *testing.T) {
	// An equatorial satellite at zero inclination placed at lon 0 drifts
	// westward in ECEF more slowly than Earth rotates beneath it (prograde
	// orbit is faster than Earth rotation, so it drifts eastward relative to
	// the inertial frame but its ground track moves westward per orbit).
	e := Elements{AltitudeKm: 550, InclinationDeg: 0}
	start := e.SubPoint(0)
	afterOnePeriod := e.SubPoint(e.Period())
	if math.Abs(start.LonDeg) > 1e-6 {
		t.Fatalf("expected start at lon 0, got %v", start.LonDeg)
	}
	// Earth rotates ~24 degrees east in ~95.6 min, so the ground track
	// shifts ~24 degrees west.
	shift := geo.NormalizeLonDeg(afterOnePeriod.LonDeg - start.LonDeg)
	if shift > -20 || shift < -28 {
		t.Errorf("ground-track shift per orbit = %v deg, want ~-24", shift)
	}
}

func TestWalkerShell1Shape(t *testing.T) {
	w := StarlinkShell1()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Total() != 1584 {
		t.Fatalf("Shell 1 total = %d, want 1584", w.Total())
	}
	all := w.All()
	if len(all) != 1584 {
		t.Fatalf("All() returned %d elements", len(all))
	}
	// RAANs must be evenly spaced over 360 degrees: plane spacing 5 deg.
	e0 := w.Elements(0, 0)
	e1 := w.Elements(1, 0)
	if d := math.Abs(e1.RAANDeg - e0.RAANDeg); math.Abs(d-5) > 1e-9 {
		t.Errorf("plane spacing = %v deg, want 5", d)
	}
	// In-plane spacing: 360/22 degrees.
	s0 := w.Elements(0, 0)
	s1 := w.Elements(0, 1)
	if d := math.Abs(s1.PhaseDeg - s0.PhaseDeg); math.Abs(d-360.0/22) > 1e-9 {
		t.Errorf("in-plane spacing = %v deg, want %v", d, 360.0/22)
	}
}

func TestWalkerValidation(t *testing.T) {
	bad := []Walker{
		{AltitudeKm: 550, InclinationDeg: 53, Planes: 0, SatsPerPlane: 22},
		{AltitudeKm: 550, InclinationDeg: 53, Planes: 72, SatsPerPlane: 0},
		{AltitudeKm: -1, InclinationDeg: 53, Planes: 72, SatsPerPlane: 22},
		{AltitudeKm: 550, InclinationDeg: 270, Planes: 72, SatsPerPlane: 22},
		{AltitudeKm: 550, InclinationDeg: 53, Planes: 72, SatsPerPlane: 22, PhasingF: 72},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, w)
		}
	}
}

func TestElementsValidation(t *testing.T) {
	if err := (Elements{AltitudeKm: 550, InclinationDeg: 53}).Validate(); err != nil {
		t.Errorf("valid elements rejected: %v", err)
	}
	if err := (Elements{AltitudeKm: 0, InclinationDeg: 53}).Validate(); err == nil {
		t.Error("zero altitude accepted")
	}
}

// TestElementsValidateRejectsNaN: the checks are written so that a NaN
// fails them, and each error names its field.
func TestElementsValidateRejectsNaN(t *testing.T) {
	for _, tc := range []struct {
		e     Elements
		field string
	}{
		{Elements{AltitudeKm: math.NaN(), InclinationDeg: 53}, "altitude"},
		{Elements{AltitudeKm: math.Inf(1), InclinationDeg: 53}, "altitude"},
		{Elements{AltitudeKm: 550, InclinationDeg: math.NaN()}, "inclination"},
	} {
		err := tc.e.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming the %s", tc.e, err, tc.field)
		}
	}
}

func TestUniquePositions(t *testing.T) {
	// No two Shell 1 satellites may occupy (nearly) the same position.
	w := StarlinkShell1()
	all := w.All()
	pos := make([]geo.Vec3, len(all))
	for i, e := range all {
		pos[i] = e.PositionECEF(0)
	}
	// Spot-check pairs rather than all 1584^2.
	for i := 0; i < len(pos); i += 97 {
		for j := i + 1; j < len(pos); j += 131 {
			if pos[i].Sub(pos[j]).Norm() < 1 {
				t.Fatalf("satellites %d and %d overlap", i, j)
			}
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	// 299.79 km of vacuum is ~1 ms.
	d := PropagationDelay(LightSpeedKmPerSec / 1000)
	if d < 999*time.Microsecond || d > 1001*time.Microsecond {
		t.Errorf("PropagationDelay = %v, want ~1ms", d)
	}
	if PropagationDelay(0) != 0 {
		t.Error("zero distance should have zero delay")
	}
}

func TestRevisitPeriod(t *testing.T) {
	// The paper: "Satellites in LSN orbits revisit a location roughly every
	// 90 minutes".
	p := StarlinkShell1().RevisitPeriod()
	if p < 85*time.Minute || p > 100*time.Minute {
		t.Errorf("revisit period = %v, want ~90-96 min", p)
	}
}

func TestNeighborSatDistanceStable(t *testing.T) {
	// Intra-plane neighbours keep a constant separation on a circular orbit.
	w := StarlinkShell1()
	a := w.Elements(0, 0)
	b := w.Elements(0, 1)
	d0 := a.PositionECEF(0).Sub(b.PositionECEF(0)).Norm()
	for _, dt := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		d := a.PositionECEF(dt).Sub(b.PositionECEF(dt)).Norm()
		if math.Abs(d-d0) > 1e-6 {
			t.Errorf("intra-plane distance changed: %v -> %v at %v", d0, d, dt)
		}
	}
	// And the expected chord for 1/22 of the orbit:
	r := geo.EarthRadiusKm + 550
	want := 2 * r * math.Sin(math.Pi/22)
	if math.Abs(d0-want) > 1e-6 {
		t.Errorf("intra-plane distance = %v, want %v", d0, want)
	}
}
