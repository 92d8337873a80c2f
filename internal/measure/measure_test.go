package measure

import (
	"sync"
	"testing"
	"time"
)

// The environment is expensive (1,584-satellite constellation); share one
// across the package's tests.
var (
	envOnce sync.Once
	env     *Environment
	envErr  error
)

func testEnv(t *testing.T) *Environment {
	t.Helper()
	envOnce.Do(func() { env, envErr = NewEnvironment() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return env
}

// smallAIM generates a reduced dataset quickly.
func smallAIM(t *testing.T) []SpeedTest {
	t.Helper()
	e := testEnv(t)
	cfg := AIMConfig{
		TestsPerCity: 6,
		Snapshots:    []time.Duration{0, 17 * time.Minute},
		Seed:         1,
	}
	tests, err := e.GenerateAIM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

var (
	aimOnce sync.Once
	aimData []SpeedTest
)

func sharedAIM(t *testing.T) []SpeedTest {
	t.Helper()
	aimOnce.Do(func() { aimData = smallAIM(t) })
	return aimData
}

func TestGenerateAIMValidation(t *testing.T) {
	e := testEnv(t)
	if _, err := e.GenerateAIM(AIMConfig{TestsPerCity: 0, Snapshots: []time.Duration{0}}); err == nil {
		t.Error("zero tests accepted")
	}
	if _, err := e.GenerateAIM(AIMConfig{TestsPerCity: 1}); err == nil {
		t.Error("no snapshots accepted")
	}
}

func TestAIMDatasetShape(t *testing.T) {
	tests := sharedAIM(t)
	if len(tests) < 2500 {
		t.Fatalf("dataset too small: %d", len(tests))
	}
	countries := map[string]map[Network]bool{}
	for _, ts := range tests {
		if ts.IdleRTTMs <= 0 {
			t.Fatalf("non-positive RTT: %+v", ts)
		}
		if ts.LoadedMs < ts.IdleRTTMs {
			t.Fatalf("loaded < idle: %+v", ts)
		}
		if ts.DownMbps <= 0 {
			t.Fatalf("non-positive throughput: %+v", ts)
		}
		if ts.CDNCity == "" {
			t.Fatalf("missing CDN city: %+v", ts)
		}
		if countries[ts.Country] == nil {
			countries[ts.Country] = map[Network]bool{}
		}
		countries[ts.Country][ts.Network] = true
	}
	both := 0
	for _, nets := range countries {
		if nets[NetworkStarlink] && nets[NetworkTerrestrial] {
			both++
		}
	}
	// The paper has 55 countries with Starlink measurements; we model the
	// covered subset of our dataset — expect dozens.
	if both < 40 {
		t.Errorf("countries with both networks = %d, want >= 40", both)
	}
}

func TestStarlinkAnycastSeesPoP(t *testing.T) {
	// Starlink tests from Maputo must be served by a CDN near Frankfurt,
	// not near Maputo (the paper's core finding).
	tests := sharedAIM(t)
	for _, ts := range tests {
		if ts.City != "Maputo" {
			continue
		}
		if ts.Network == NetworkStarlink {
			if ts.DistKm < 5000 {
				t.Fatalf("Starlink Maputo mapped to nearby CDN %s (%.0f km)", ts.CDNCity, ts.DistKm)
			}
		} else {
			if ts.DistKm > 2000 {
				t.Fatalf("terrestrial Maputo mapped to far CDN %s (%.0f km)", ts.CDNCity, ts.DistKm)
			}
		}
	}
}

func TestOptimalPerCity(t *testing.T) {
	tests := sharedAIM(t)
	cities := OptimalPerCity(tests)
	if len(cities) == 0 {
		t.Fatal("no city optima")
	}
	seen := map[string]bool{}
	for _, c := range cities {
		key := c.Country + "/" + c.City + "/" + string(c.Network)
		if seen[key] {
			t.Fatalf("duplicate city entry %s", key)
		}
		seen[key] = true
		if c.MedianMs <= 0 || c.MinMs <= 0 || c.MinMs > c.MedianMs {
			t.Fatalf("inconsistent optima: %+v", c)
		}
		if c.N == 0 {
			t.Fatalf("zero samples behind %+v", c)
		}
	}
}

func TestByCountryTable1Shape(t *testing.T) {
	tests := sharedAIM(t)
	byC := ByCountry(OptimalPerCity(tests))

	check := func(iso string, starMin, starMax, terrMin, terrMax float64) {
		t.Helper()
		nets, ok := byC[iso]
		if !ok {
			t.Fatalf("no data for %s", iso)
		}
		s, t1 := nets[NetworkStarlink], nets[NetworkTerrestrial]
		if s.MinRTTMs < starMin || s.MinRTTMs > starMax {
			t.Errorf("%s Starlink minRTT = %.1f, want [%v,%v]", iso, s.MinRTTMs, starMin, starMax)
		}
		if t1.MinRTTMs < terrMin || t1.MinRTTMs > terrMax {
			t.Errorf("%s terrestrial minRTT = %.1f, want [%v,%v]", iso, t1.MinRTTMs, terrMin, terrMax)
		}
	}
	// Paper Table 1 bands (generous: the shape matters).
	check("MZ", 95, 210, 3, 25) // paper: 138.7 vs 7.2
	check("ES", 20, 50, 2, 30)  // paper: 33 vs 14.3
	check("JP", 20, 55, 2, 25)  // paper: 34 vs 9
	check("KE", 80, 190, 5, 40) // paper: 110.9 vs 16
	check("GT", 28, 75, 2, 25)  // paper: 44.2 vs 7

	// Starlink distance to optimal CDN for Mozambique ~ thousands of km.
	if d := byC["MZ"][NetworkStarlink].AvgDistKm; d < 5000 {
		t.Errorf("MZ Starlink distance = %.0f km, want >5000", d)
	}
	if d := byC["MZ"][NetworkTerrestrial].AvgDistKm; d > 2000 {
		t.Errorf("MZ terrestrial distance = %.0f km, want local", d)
	}
}

func TestDeltaByCountryFig2Shape(t *testing.T) {
	tests := sharedAIM(t)
	countries, deltas := DeltaByCountry(tests)
	if len(countries) < 40 {
		t.Fatalf("delta countries = %d", len(countries))
	}
	idx := map[string]float64{}
	for i, c := range countries {
		idx[c] = deltas[i]
	}
	// Terrestrial nearly always wins (positive delta).
	positive := 0
	for _, d := range deltas {
		if d > 0 {
			positive++
		}
	}
	if float64(positive) < 0.8*float64(len(deltas)) {
		t.Errorf("only %d/%d countries have Starlink slower", positive, len(deltas))
	}
	// African countries without local PoPs: delta ~ 100-150 ms in the paper.
	for _, iso := range []string{"MZ", "KE", "ZM"} {
		if d, ok := idx[iso]; !ok || d < 70 {
			t.Errorf("%s delta = %v, want >= 70 ms (paper: 120-150)", iso, d)
		}
	}
	// Countries with local PoPs: modest deltas (paper: ~20-40 ms).
	for _, iso := range []string{"ES", "JP", "DE", "GB", "US"} {
		if d, ok := idx[iso]; !ok || d > 70 {
			t.Errorf("%s delta = %v, want < 70 ms", iso, d)
		}
	}
}

func TestPerCDNFromCityFig3Shape(t *testing.T) {
	tests := sharedAIM(t)
	// Starlink from Maputo: the best CDN is in Europe (Frankfurt region).
	sl := PerCDNFromCity(tests, "Maputo", NetworkStarlink)
	if len(sl) == 0 {
		t.Fatal("no Starlink CDN sites from Maputo")
	}
	bestSl := sl[0]
	if bestSl.MedianMs < 100 || bestSl.MedianMs > 230 {
		t.Errorf("Maputo Starlink best CDN median = %.1f ms, paper ~160", bestSl.MedianMs)
	}
	// Terrestrial from Maputo: the best CDN is Maputo itself at ~20 ms.
	te := PerCDNFromCity(tests, "Maputo", NetworkTerrestrial)
	if len(te) == 0 {
		t.Fatal("no terrestrial CDN sites from Maputo")
	}
	if te[0].CDNCity != "Maputo" {
		t.Errorf("terrestrial best CDN = %s, want Maputo", te[0].CDNCity)
	}
	if te[0].MedianMs > 45 {
		t.Errorf("terrestrial Maputo median = %.1f ms, paper ~20", te[0].MedianMs)
	}
	// Sorted ascending.
	for i := 1; i < len(sl); i++ {
		if sl[i].MedianMs < sl[i-1].MedianMs {
			t.Fatal("per-CDN series not sorted")
		}
	}
}

func TestIdleCDF(t *testing.T) {
	tests := sharedAIM(t)
	slCDF := IdleCDF(tests, NetworkStarlink)
	teCDF := IdleCDF(tests, NetworkTerrestrial)
	if slCDF.N() == 0 || teCDF.N() == 0 {
		t.Fatal("empty CDFs")
	}
	if slCDF.Median() <= teCDF.Median() {
		t.Errorf("Starlink median %.1f should exceed terrestrial %.1f",
			slCDF.Median(), teCDF.Median())
	}
}

func TestAIMDeterminism(t *testing.T) {
	e := testEnv(t)
	cfg := AIMConfig{TestsPerCity: 2, Snapshots: []time.Duration{0}, Seed: 9}
	a, err := e.GenerateAIM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.GenerateAIM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
