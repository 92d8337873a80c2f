package spacecdn

import (
	"testing"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
)

func bubbleCatalog(t *testing.T) *content.Catalog {
	t.Helper()
	cat, err := content.GenerateCatalog(content.CatalogConfig{
		Objects: 600, MeanObjectBytes: 1 << 20, ZipfS: 0.9, RegionBoost: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// overhead returns the satellite serving pt at snap.
func overhead(t *testing.T, snap *constellation.Snapshot, pt geo.Point) constellation.VisibleSat {
	t.Helper()
	best, ok := snap.BestVisible(pt)
	if !ok {
		t.Fatalf("no satellite visible from %v", pt)
	}
	return best
}

func TestRegionUnder(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	m := NewBubbleManager(s, bubbleCatalog(t), BubbleConfig{TopN: 20, Lookahead: 0})
	snap := testConst.Snapshot(0)
	// The satellite over Frankfurt should be in the European bubble; the one
	// over Nairobi in the African one.
	fra := overhead(t, snap, geo.NewPoint(50.11, 8.68))
	if r := m.RegionUnder(fra.ID, 0); r != geo.RegionEurope {
		t.Errorf("region under Frankfurt sat = %v", r)
	}
	nbo := overhead(t, snap, geo.NewPoint(-1.29, 36.82))
	if r := m.RegionUnder(nbo.ID, 0); r != geo.RegionAfrica {
		t.Errorf("region under Nairobi sat = %v", r)
	}
}

func TestBubbleUpdatePrefetches(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	cat := bubbleCatalog(t)
	m := NewBubbleManager(s, cat, BubbleConfig{TopN: 10, Lookahead: 0})
	changed := m.Update(0)
	if changed != testConst.Total() {
		t.Errorf("first update changed %d, want all %d", changed, testConst.Total())
	}
	// Second update at the same time: regions unchanged, nothing to do.
	if again := m.Update(0); again != 0 {
		t.Errorf("immediate re-update changed %d, want 0", again)
	}
	// The satellite over Nairobi must now hold Africa's hottest object.
	snap := testConst.Snapshot(0)
	nbo := overhead(t, snap, geo.NewPoint(-1.29, 36.82))
	hot := cat.ByRank(geo.RegionAfrica, 0)
	if !s.HasObject(nbo.ID, hot.ID, 0) {
		t.Error("hottest African object not prefetched over Nairobi")
	}
}

func TestBubbleLocalHitRate(t *testing.T) {
	s := newSystem(t, DefaultConfig())
	cat := bubbleCatalog(t)
	m := NewBubbleManager(s, cat, BubbleConfig{TopN: 15, Lookahead: 0})
	snap := testConst.Snapshot(0)
	loc := geo.NewPoint(-25.97, 32.57) // Maputo
	if hr := m.LocalHitRate(loc, geo.RegionAfrica, snap); hr != 0 {
		t.Errorf("hit rate before any placement = %v", hr)
	}
	m.Update(0)
	hr := m.LocalHitRate(loc, geo.RegionAfrica, snap)
	if hr < 0.5 {
		t.Errorf("local hit rate after bubble update = %v, want >= 0.5", hr)
	}
	// No coverage: zero.
	if got := m.LocalHitRate(geo.NewPoint(89.9, 0), geo.RegionEurope, snap); got != 0 {
		t.Errorf("polar hit rate = %v", got)
	}
}

func TestBubblesFollowMotion(t *testing.T) {
	// As time advances half an orbit, satellites change regions, and a new
	// Update retargets a significant share of the fleet.
	s := newSystem(t, DefaultConfig())
	m := NewBubbleManager(s, bubbleCatalog(t), BubbleConfig{TopN: 5, Lookahead: 0})
	m.Update(0)
	changed := m.Update(45 * time.Minute)
	if changed < testConst.Total()/4 {
		t.Errorf("after half an orbit only %d/%d bubbles moved", changed, testConst.Total())
	}
}

func TestBubbleEvictionUsesGeoPolicy(t *testing.T) {
	// A tiny cache forces eviction: after crossing regions the old region's
	// content should be evicted before the new region's.
	cfg := DefaultConfig()
	cfg.CacheBytesPerSat = 8 << 20 // fits only a few objects
	s := newSystem(t, cfg)
	cat := bubbleCatalog(t)

	sat := constellation.SatID(0)
	gc := s.GeoCacheOf(sat)
	gc.SetRegion(geo.RegionAfrica.String())
	afHot := cat.TopN(geo.RegionAfrica, 3)
	for _, o := range afHot {
		if o.Bytes < cfg.CacheBytesPerSat {
			s.Store(sat, o)
		}
	}
	// Cross to Europe and fill with European content.
	gc.SetRegion(geo.RegionEurope.String())
	for _, o := range cat.TopN(geo.RegionEurope, 12) {
		if o.Bytes < cfg.CacheBytesPerSat {
			s.Store(sat, o)
		}
	}
	// African items should be gone (they were out-of-region ballast).
	remainingAfrican := 0
	for _, o := range afHot {
		if o.Region == geo.RegionAfrica && s.CacheOf(sat).Peek(cache.Key(o.ID)) {
			remainingAfrican++
		}
	}
	if remainingAfrican > 1 {
		t.Errorf("%d African objects survived the European fill", remainingAfrican)
	}
}
