package cdn

import (
	"testing"

	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

func allMethods() []RoutingMethod {
	return []RoutingMethod{MethodAnycast, MethodDNSResolver, MethodDNSECS, MethodGeoIP}
}

func TestTerrestrialVantageLocalizesCorrectly(t *testing.T) {
	c := newCDN(t)
	maputo, _ := geo.CityByName("Maputo, MZ")
	v := TerrestrialVantage(maputo.Loc)
	for _, m := range allMethods() {
		e := c.SelectEdge(m, v, nil)
		if e.City.Name != "Maputo" {
			t.Errorf("%v: terrestrial Maputo mapped to %s", m, e.City.Name)
		}
		if err := c.MappingErrorKm(m, v); err > 50 {
			t.Errorf("%v: terrestrial mapping error %v km", m, err)
		}
	}
}

func TestLSNVantageMislocalizesUnderEveryMethod(t *testing.T) {
	// The paper's structural point: for a CGNAT'd satellite subscriber,
	// every mapping signal (BGP entry, resolver, ECS prefix, GeoIP) points
	// at the PoP, so no technique fixes the mapping.
	c := newCDN(t)
	maputo, _ := geo.CityByName("Maputo, MZ")
	fra, _ := geo.CityByName("Frankfurt, DE")
	v := LSNVantage(maputo.Loc, fra.Loc)
	for _, m := range allMethods() {
		e := c.SelectEdge(m, v, nil)
		if e.City.Name != "Frankfurt" {
			t.Errorf("%v: LSN Maputo mapped to %s, want Frankfurt", m, e.City.Name)
		}
		if err := c.MappingErrorKm(m, v); err < 8000 {
			t.Errorf("%v: LSN mapping error %v km, want ~8,800", m, err)
		}
	}
}

func TestAnycastSpreadWithRNG(t *testing.T) {
	c := newCDN(t)
	london, _ := geo.CityByName("London, GB")
	v := TerrestrialVantage(london.Loc)
	rng := stats.NewRand(1)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		seen[c.SelectEdge(MethodAnycast, v, rng).City.Name] = true
	}
	if len(seen) < 2 {
		t.Error("anycast with rng should spread across nearby sites")
	}
	// Deterministic variant pins the nearest.
	if e := c.SelectEdge(MethodAnycast, v, nil); e.City.Name != "London" {
		t.Errorf("deterministic anycast = %s", e.City.Name)
	}
}

func TestMethodString(t *testing.T) {
	names := map[RoutingMethod]string{
		MethodAnycast:     "anycast",
		MethodDNSResolver: "dns-resolver",
		MethodDNSECS:      "dns-ecs",
		MethodGeoIP:       "geoip",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(m), m.String(), want)
		}
	}
	if RoutingMethod(99).String() != "method(99)" {
		t.Error("unknown method name wrong")
	}
}

func TestResolverOnlyDiffersWhenResolverRemote(t *testing.T) {
	// A terrestrial client using a remote public resolver (e.g. a cloud
	// resolver in another country) gets mis-mapped by DNS-resolver routing
	// but not by ECS — the classic argument for ECS, which CGNAT then
	// defeats for LSN users.
	c := newCDN(t)
	maputo, _ := geo.CityByName("Maputo, MZ")
	lisbon, _ := geo.CityByName("Lisbon, PT")
	v := Vantage{ClientLoc: maputo.Loc, ResolverLoc: lisbon.Loc, PublicIPLoc: maputo.Loc}
	if e := c.SelectEdge(MethodDNSResolver, v, nil); e.City.Name == "Maputo" {
		t.Error("remote resolver should mis-map without ECS")
	}
	if e := c.SelectEdge(MethodDNSECS, v, nil); e.City.Name != "Maputo" {
		t.Errorf("ECS should rescue the mapping, got %s", e.City.Name)
	}
}
