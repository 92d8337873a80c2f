package content

import (
	"testing"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

func smallCatalog(t *testing.T) *Catalog {
	t.Helper()
	cfg := DefaultCatalogConfig()
	cfg.Objects = 2000
	c, err := GenerateCatalog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateCatalogValidation(t *testing.T) {
	if _, err := GenerateCatalog(CatalogConfig{Objects: 0, ZipfS: 1}); err == nil {
		t.Error("zero objects accepted")
	}
	if _, err := GenerateCatalog(CatalogConfig{Objects: 10, ZipfS: 0}); err == nil {
		t.Error("zero zipf exponent accepted")
	}
}

func TestCatalogDeterminism(t *testing.T) {
	cfg := DefaultCatalogConfig()
	cfg.Objects = 500
	a, _ := GenerateCatalog(cfg)
	b, _ := GenerateCatalog(cfg)
	for i := 0; i < a.Len(); i++ {
		oa := a.ByRank(geo.RegionEurope, i)
		ob := b.ByRank(geo.RegionEurope, i)
		if oa != ob {
			t.Fatalf("catalogs differ at rank %d: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestCatalogLookup(t *testing.T) {
	c := smallCatalog(t)
	o := c.ByRank(geo.RegionAfrica, 0)
	got, ok := c.Object(o.ID)
	if !ok || got != o {
		t.Errorf("lookup failed for %s", o.ID)
	}
	if _, ok := c.Object("nope"); ok {
		t.Error("unknown ID resolved")
	}
	if c.Len() != 2000 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestObjectSizes(t *testing.T) {
	c := smallCatalog(t)
	videos, web := 0, 0
	for i := 0; i < c.Len(); i++ {
		o := c.ByRank(geo.RegionEurope, i)
		if o.Bytes < 1024 {
			t.Fatalf("object %s below minimum size: %d", o.ID, o.Bytes)
		}
		if o.Video {
			videos++
			if o.Bytes != DefaultCatalogConfig().VideoBytes {
				t.Fatalf("video size %d unexpected", o.Bytes)
			}
		} else {
			web++
		}
	}
	// ~5% videos.
	if videos < 50 || videos > 250 {
		t.Errorf("videos = %d of 2000, want ~100", videos)
	}
	if web == 0 {
		t.Error("no web objects")
	}
}

func TestRegionalRanksDiffer(t *testing.T) {
	c := smallCatalog(t)
	same := 0
	n := 100
	for i := 0; i < n; i++ {
		if c.ByRank(geo.RegionAfrica, i).ID == c.ByRank(geo.RegionAsia, i).ID {
			same++
		}
	}
	if same == n {
		t.Error("regional rankings identical — boost has no effect")
	}
}

func TestRegionAffinity(t *testing.T) {
	c := smallCatalog(t)
	// With boost, a region's top-100 should over-represent home content
	// relative to the uniform share (1/6).
	for _, r := range geo.Regions() {
		aff := c.RegionAffinity(r, 100)
		if aff < 1.0/6 {
			t.Errorf("region %v affinity %.2f below uniform share", r, aff)
		}
	}
	if c.RegionAffinity(geo.RegionAfrica, 0) != 0 {
		t.Error("zero-n affinity should be 0")
	}
}

func TestSampleZipfSkew(t *testing.T) {
	c := smallCatalog(t)
	rng := stats.NewRand(42)
	counts := map[ID]int{}
	n := 30000
	for i := 0; i < n; i++ {
		counts[c.Sample(geo.RegionEurope, rng).ID]++
	}
	// The top-ranked object must be sampled far more often than a mid-rank
	// object.
	top := counts[c.ByRank(geo.RegionEurope, 0).ID]
	mid := counts[c.ByRank(geo.RegionEurope, 1000).ID]
	if top < 20 {
		t.Errorf("top object sampled only %d times", top)
	}
	if top <= mid*5 {
		t.Errorf("zipf skew too weak: top=%d mid=%d", top, mid)
	}
}

func TestSegmentize(t *testing.T) {
	o := Object{ID: "vid", Bytes: 4 << 30, Video: true}
	v, err := Segmentize(o, 2*time.Hour, 10*time.Second, 4_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Segments) != 720 {
		t.Errorf("segments = %d, want 720", len(v.Segments))
	}
	if v.Duration() != 2*time.Hour {
		t.Errorf("duration = %v", v.Duration())
	}
	// 4.5 Mbps * 10 s / 8 = 5.625 MB per segment.
	if v.Segments[0].Bytes != 5_625_000 {
		t.Errorf("segment bytes = %d", v.Segments[0].Bytes)
	}
	for i, s := range v.Segments {
		if s.Index != i {
			t.Fatalf("segment %d has index %d", i, s.Index)
		}
	}
	// Non-divisible tail.
	v2, err := Segmentize(o, 95*time.Second, 30*time.Second, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Segments) != 4 {
		t.Fatalf("segments = %d, want 4", len(v2.Segments))
	}
	if v2.Segments[3].Duration != 5*time.Second {
		t.Errorf("tail duration = %v, want 5s", v2.Segments[3].Duration)
	}
}

func TestSegmentizeErrors(t *testing.T) {
	web := Object{ID: "page", Bytes: 1024}
	if _, err := Segmentize(web, time.Hour, 10*time.Second, 1e6); err == nil {
		t.Error("non-video accepted")
	}
	vid := Object{ID: "vid", Video: true}
	if _, err := Segmentize(vid, 0, 10*time.Second, 1e6); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Segmentize(vid, time.Hour, 0, 1e6); err == nil {
		t.Error("zero segment duration accepted")
	}
	if _, err := Segmentize(vid, time.Hour, 10*time.Second, 0); err == nil {
		t.Error("zero bitrate accepted")
	}
}
