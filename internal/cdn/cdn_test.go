package cdn

import (
	"sort"
	"testing"

	"spacecdn/internal/cache"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

func newCDN(t *testing.T) *CDN {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.EdgeCacheBytes = 0
	if _, err := New(bad); err == nil {
		t.Error("zero cache capacity accepted")
	}
	bad = DefaultConfig()
	bad.AnycastSpread = 0
	if _, err := New(bad); err == nil {
		t.Error("zero anycast spread accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDeploymentCoversWorld(t *testing.T) {
	c := newCDN(t)
	if len(c.Edges()) < 120 {
		t.Errorf("edge count = %d, want one per dataset city", len(c.Edges()))
	}
	// A Maputo edge must exist (paper Fig. 3b).
	maputo := false
	for _, e := range c.Edges() {
		if e.City.Name == "Maputo" && e.City.Country == "MZ" {
			maputo = true
		}
	}
	if !maputo {
		t.Error("no Maputo edge")
	}
}

func TestNearestEdge(t *testing.T) {
	c := newCDN(t)
	maputo, _ := geo.CityByName("Maputo, MZ")
	e := c.NearestEdge(maputo.Loc)
	if e.City.Name != "Maputo" {
		t.Errorf("nearest edge to Maputo = %s", e.City.Name)
	}
	// From the Frankfurt PoP vantage, the nearest edge is Frankfurt — this
	// is exactly the paper's mis-mapping for African Starlink users.
	fra, _ := geo.CityByName("Frankfurt, DE")
	if e := c.NearestEdge(fra.Loc); e.City.Name != "Frankfurt" {
		t.Errorf("nearest edge to Frankfurt PoP = %s", e.City.Name)
	}
}

func TestEdgesByDistanceSorted(t *testing.T) {
	c := newCDN(t)
	london, _ := geo.CityByName("London, GB")
	edges := c.EdgesByDistance(london.Loc, 5)
	if len(edges) != 5 {
		t.Fatalf("got %d edges", len(edges))
	}
	last := -1.0
	for _, e := range edges {
		d := geo.HaversineKm(london.Loc, e.City.Loc)
		if d < last {
			t.Error("edges not sorted by distance")
		}
		last = d
	}
	if got := c.EdgesByDistance(london.Loc, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := c.EdgesByDistance(london.Loc, 10000); len(got) != len(c.Edges()) {
		t.Error("k beyond deployment should clamp")
	}
}

// TestEdgesByDistanceMatchesFullSort: the scan's running top-k is the
// prefix of the whole deployment stably sorted by distance, from every
// city's vantage and for k of one, a few and all.
func TestEdgesByDistanceMatchesFullSort(t *testing.T) {
	c := newCDN(t)
	for _, city := range geo.Cities() {
		all := append([]*Edge(nil), c.Edges()...)
		sort.SliceStable(all, func(i, j int) bool {
			return geo.HaversineKm(city.Loc, all[i].City.Loc) < geo.HaversineKm(city.Loc, all[j].City.Loc)
		})
		for _, k := range []int{1, 3, len(all)} {
			got := c.EdgesByDistance(city.Loc, k)
			if len(got) != k {
				t.Fatalf("%s, k=%d: got %d edges", city.Name, k, len(got))
			}
			for i := range got {
				if got[i] != all[i] {
					t.Fatalf("%s, k=%d: edge %d is %s, want %s", city.Name, k, i, got[i].City.Name, all[i].City.Name)
				}
			}
		}
	}
}

func TestSelectAnycastSpread(t *testing.T) {
	c := newCDN(t)
	rng := stats.NewRand(1)
	vantage, _ := geo.CityByName("London, GB")
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		e := c.SelectAnycast(vantage.Loc, rng)
		seen[e.City.Name]++
	}
	if len(seen) < 2 || len(seen) > DefaultConfig().AnycastSpread {
		t.Errorf("anycast spread hit %d distinct edges, want 2..%d", len(seen), DefaultConfig().AnycastSpread)
	}
	// The nearest edge must dominate.
	if seen["London"] < 1000 {
		t.Errorf("nearest edge selected only %d/2000 times", seen["London"])
	}
}

func TestWarm(t *testing.T) {
	c := newCDN(t)
	cat, err := content.GenerateCatalog(content.CatalogConfig{
		Objects: 500, MeanObjectBytes: 1 << 20, ZipfS: 0.9, RegionBoost: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	maputo, _ := geo.CityByName("Maputo, MZ")
	e := c.NearestEdge(maputo.Loc)
	placed := Warm(e, cat, geo.RegionAfrica, 100<<20)
	if placed == 0 {
		t.Fatal("warm placed nothing")
	}
	if e.Cache.UsedBytes() > 100<<20+e.Cache.Capacity() {
		t.Error("warm exceeded budget wildly")
	}
	// The region's hottest object must now be a hit.
	hot := cat.ByRank(geo.RegionAfrica, 0)
	if !e.Cache.Peek(cache.Key(hot.ID)) {
		t.Error("hottest object not warmed")
	}
}
