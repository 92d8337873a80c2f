package sim_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"spacecdn/sim"
)

// The facade tests exercise the documented end-to-end flows exactly as a
// downstream user would write them.

func TestFacadeQuickstartFlow(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.DeploySpaceCDN(env, sim.DefaultSpaceCDNConfig())
	if err != nil {
		t.Fatal(err)
	}
	obj := sim.Object{ID: "facade-obj", Bytes: 1 << 20}
	placed, err := sim.Apply(sys, sim.PerPlaneSpacing{ReplicasPerPlane: 4}, obj)
	if err != nil {
		t.Fatal(err)
	}
	if placed != 4*72 {
		t.Fatalf("placed = %d", placed)
	}
	city, ok := sim.CityByName("Maputo, MZ")
	if !ok {
		t.Fatal("city lookup failed")
	}
	res, err := sys.Resolve(city.Loc, "MZ", obj, env.Snapshot(0), sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != sim.SourceOverhead && res.Source != sim.SourceISL {
		t.Errorf("densely placed object served from %v", res.Source)
	}
	if res.RTT <= 0 || res.RTT > 200*time.Millisecond {
		t.Errorf("RTT = %v", res.RTT)
	}
	// Shell 1 never rises over the pole; the failure is typed.
	if _, err := sys.Resolve(sim.Point{LatDeg: 89}, "NO", obj, env.Snapshot(0), sim.NewRand(1)); !errors.Is(err, sim.ErrNoVisibleSatellite) {
		t.Errorf("polar resolve error = %v, want sim.ErrNoVisibleSatellite", err)
	}
}

func TestFacadeConstellation(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	var c *sim.Constellation = env.Constellation
	if n := c.Total(); n != 1584 {
		t.Errorf("Shell 1 total = %d", n)
	}
	if vis := env.Snapshot(0).Visible(sim.Point{LatDeg: 50.11, LonDeg: 8.68}); len(vis) == 0 {
		t.Error("no visibility from Frankfurt")
	}
}

func TestFacadeGroundExpansion(t *testing.T) {
	g := sim.NewGroundCatalog(
		sim.WithPoP("nbo", "Nairobi, KE"),
		sim.WithAssignment("KE", "nbo"),
	)
	p, ok := g.AssignPoP("KE")
	if !ok || p.Name != "nbo" {
		t.Errorf("expansion assignment = %+v ok=%v", p, ok)
	}
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	access := sim.NewAccessModel(env.Constellation, g)
	city, _ := sim.CityByName("Nairobi, KE")
	path, err := access.ResolvePath(city.Loc, "KE", env.Snapshot(0))
	if err != nil {
		t.Fatal(err)
	}
	if path.PoP.Name != "nbo" {
		t.Errorf("path PoP = %s, want nbo", path.PoP.Name)
	}
	// Local PoP: cheap path.
	if got := access.MinRTTToPoP(path); got > 60*time.Millisecond {
		t.Errorf("local-PoP RTT = %v", got)
	}
}

func TestFacadeCDN(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	city, _ := sim.CityByName("Maputo, MZ")
	if e := env.CDN.NearestEdge(city.Loc); e.City.Name != "Maputo" {
		t.Errorf("nearest edge = %s", e.City.Name)
	}
}

func TestFacadeSuite(t *testing.T) {
	suite, err := sim.NewSuite(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Errorf("Table 1 rows = %d", len(rows))
	}
}

func TestFacadeTelemetry(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.DeploySpaceCDN(env, sim.DefaultSpaceCDNConfig())
	if err != nil {
		t.Fatal(err)
	}
	tel := sim.WithTelemetry(sys, 1)
	obj := sim.Object{ID: "facade-tel-obj", Bytes: 1 << 20}
	if _, err := sim.Apply(sys, sim.PerPlaneSpacing{ReplicasPerPlane: 4}, obj); err != nil {
		t.Fatal(err)
	}
	city, _ := sim.CityByName("Maputo, MZ")
	if _, err := sys.Resolve(city.Loc, "MZ", obj, env.Snapshot(0), sim.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	var total int64
	for _, c := range snap.Counters {
		if c.Name == "spacecdn_resolve_requests_total" {
			total += c.Value
		}
	}
	if total != 1 {
		t.Errorf("request counters sum to %d, want 1", total)
	}
	if len(snap.Traces) != 1 {
		t.Fatalf("traces = %d, want 1 at sample rate 1", len(snap.Traces))
	}
	tr := snap.Traces[0]
	if tr.SpanSum() != tr.RTT {
		t.Errorf("trace span sum %v != RTT %v", tr.SpanSum(), tr.RTT)
	}
	var buf strings.Builder
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE spacecdn_resolve_rtt_ms histogram") {
		t.Error("prometheus exposition missing rtt histogram")
	}
}
