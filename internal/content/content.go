// Package content models what CDNs deliver: object catalogs with Zipf
// popularity, per-region popularity skews (the paper's geographically
// popular content — "a Boca Juniors vs River Plate game is popular mostly
// over South America"), DASH-style video objects split into segments, and
// deterministic request generators.
package content

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

// ID identifies a content object.
type ID string

// Class partitions the catalog by content lifecycle: how long an object
// stays fresh and how it is revalidated. The zero value is ClassStatic —
// immutable content — so catalogs generated before classes existed keep
// their semantics unchanged.
type Class int

// Content classes, ordered roughly by TTL (longest first). numClasses must
// stay last; the name table is sized by it.
const (
	// ClassStatic is immutable content (software downloads, media files,
	// versioned web assets): effectively infinite TTL.
	ClassStatic Class = iota
	// ClassNews is breaking-news style content: minutes-scale TTL with a
	// stale-while-revalidate grace.
	ClassNews
	// ClassLiveSegment is a live-video segment: seconds-scale TTL, no grace
	// worth serving once the next segment exists.
	ClassLiveSegment
	// ClassAPI is a dynamic API response: short TTL, short grace.
	ClassAPI

	numClasses // keep last
)

var classNames = [numClasses]string{
	ClassStatic:      "static",
	ClassNews:        "news",
	ClassLiveSegment: "live-segment",
	ClassAPI:         "api",
}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// NumClasses returns the number of defined content classes.
func NumClasses() int { return int(numClasses) }

// Classes lists every defined class, for exhaustive iteration.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Object is a cacheable content object.
type Object struct {
	ID     ID
	Bytes  int64
	Region geo.Region // home region whose users favour this object
	Video  bool
	Class  Class // lifecycle class; zero value = static (immutable)
}

// Catalog is an immutable set of objects with popularity structure.
type Catalog struct {
	objects []Object
	index   map[ID]int
	// rankByRegion[r][i] is the index (into objects) of the i-th most
	// popular object for region r.
	rankByRegion map[geo.Region][]int
	zipfS        float64
	weights      []float64 // zipf weight by rank position
	cumWeights   []float64
}

// CatalogConfig controls synthetic catalog generation.
type CatalogConfig struct {
	Objects int
	// MeanObjectBytes is the mean size of a non-video object (web assets:
	// pages, images, scripts). Sizes are lognormal around this.
	MeanObjectBytes int64
	// VideoFraction of objects are long videos with VideoBytes size.
	VideoFraction float64
	VideoBytes    int64
	// ZipfS is the Zipf exponent for popularity (typical CDN: 0.8-1.2).
	ZipfS float64
	// RegionBoost is how strongly an object's home region prefers it: the
	// object's rank in its home region improves by roughly this factor.
	RegionBoost float64
	Seed        int64
	// ClassMix assigns lifecycle classes: fractions of the catalog that are
	// news, live segments, and API responses; the remainder stays static.
	// All-zero (the default) skips class assignment entirely, leaving every
	// object static and the catalog bit-identical to a pre-lifecycle one.
	NewsFraction float64
	LiveFraction float64
	APIFraction  float64
}

// classSeedSalt decorrelates the class-assignment stream from the main
// catalog stream. Classes are drawn in a second pass from an independent
// rng so enabling a class mix cannot shift the region/size/video draws of
// the existing seeded catalogs (which eq-gated benchmarks depend on).
const classSeedSalt = 0x1f5ec1a55

// DefaultCatalogConfig returns a web-plus-video mix of 10k objects.
func DefaultCatalogConfig() CatalogConfig {
	return CatalogConfig{
		Objects:         10000,
		MeanObjectBytes: 256 << 10, // 256 KiB
		VideoFraction:   0.05,
		VideoBytes:      4 << 30, // 2h 1080p at ~4.5 Mbps
		ZipfS:           0.9,
		RegionBoost:     8,
		Seed:            1,
	}
}

// GenerateCatalog builds a deterministic synthetic catalog.
func GenerateCatalog(cfg CatalogConfig) (*Catalog, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("content: need positive object count, got %d", cfg.Objects)
	}
	if cfg.ZipfS <= 0 {
		return nil, fmt.Errorf("content: zipf exponent must be positive, got %v", cfg.ZipfS)
	}
	rng := stats.NewRand(cfg.Seed)
	regions := geo.Regions()
	objs := make([]Object, cfg.Objects)
	for i := range objs {
		region := regions[rng.Intn(len(regions))]
		video := rng.Bool(cfg.VideoFraction)
		size := int64(rng.LogNormal(0, 0.8) * float64(cfg.MeanObjectBytes))
		if size < 1024 {
			size = 1024
		}
		if video {
			size = cfg.VideoBytes
		}
		objs[i] = Object{
			ID:     ID(fmt.Sprintf("obj-%05d", i)),
			Bytes:  size,
			Region: region,
			Video:  video,
		}
	}
	if cfg.NewsFraction < 0 || cfg.LiveFraction < 0 || cfg.APIFraction < 0 ||
		cfg.NewsFraction+cfg.LiveFraction+cfg.APIFraction > 1 {
		return nil, fmt.Errorf("content: class mix fractions must be non-negative and sum to at most 1")
	}
	if cfg.NewsFraction+cfg.LiveFraction+cfg.APIFraction > 0 {
		crng := stats.NewRand(cfg.Seed ^ classSeedSalt)
		for i := range objs {
			u := crng.Float64()
			switch {
			case u < cfg.NewsFraction:
				objs[i].Class = ClassNews
			case u < cfg.NewsFraction+cfg.LiveFraction:
				objs[i].Class = ClassLiveSegment
			case u < cfg.NewsFraction+cfg.LiveFraction+cfg.APIFraction:
				objs[i].Class = ClassAPI
			}
		}
	}
	c := &Catalog{
		objects:      objs,
		index:        make(map[ID]int, len(objs)),
		rankByRegion: make(map[geo.Region][]int, len(regions)),
		zipfS:        cfg.ZipfS,
	}
	for i, o := range objs {
		c.index[o.ID] = i
	}
	// Global base rank = catalog order. Regional rank: home-region objects
	// move up by RegionBoost (deterministic score re-sort).
	for _, r := range regions {
		idx := make([]int, len(objs))
		for i := range idx {
			idx[i] = i
		}
		boost := cfg.RegionBoost
		if boost < 1 {
			boost = 1
		}
		sort.SliceStable(idx, func(a, b int) bool {
			sa := float64(idx[a]) // lower = more popular
			sb := float64(idx[b])
			if objs[idx[a]].Region == r {
				sa /= boost
			}
			if objs[idx[b]].Region == r {
				sb /= boost
			}
			return sa < sb
		})
		c.rankByRegion[r] = idx
	}
	// Zipf weights by rank position.
	c.weights = make([]float64, len(objs))
	c.cumWeights = make([]float64, len(objs))
	sum := 0.0
	for i := range c.weights {
		w := 1 / powF(float64(i+1), cfg.ZipfS)
		c.weights[i] = w
		sum += w
		c.cumWeights[i] = sum
	}
	return c, nil
}

func powF(base, exp float64) float64 {
	if base <= 0 {
		return 1
	}
	return math.Pow(base, exp)
}

// Len returns the catalog size.
func (c *Catalog) Len() int { return len(c.objects) }

// Object returns the object with the given ID.
func (c *Catalog) Object(id ID) (Object, bool) {
	i, ok := c.index[id]
	if !ok {
		return Object{}, false
	}
	return c.objects[i], true
}

// ByRank returns the i-th most popular object for a region (0 = hottest).
func (c *Catalog) ByRank(r geo.Region, i int) Object {
	idx := c.rankByRegion[r]
	if len(idx) == 0 {
		return c.objects[i]
	}
	return c.objects[idx[i]]
}

// TopN returns the n most popular objects for a region.
func (c *Catalog) TopN(r geo.Region, n int) []Object {
	if n > len(c.objects) {
		n = len(c.objects)
	}
	out := make([]Object, n)
	for i := 0; i < n; i++ {
		out[i] = c.ByRank(r, i)
	}
	return out
}

// Sample draws an object according to Zipf popularity for the region.
func (c *Catalog) Sample(r geo.Region, rng *stats.Rand) Object {
	u := rng.Float64() * c.cumWeights[len(c.cumWeights)-1]
	i := sort.SearchFloat64s(c.cumWeights, u)
	if i >= len(c.objects) {
		i = len(c.objects) - 1
	}
	return c.ByRank(r, i)
}

// RegionAffinity returns the fraction of the top-n ranks for region r that
// are home-region objects: a measure of how localized popularity is.
func (c *Catalog) RegionAffinity(r geo.Region, n int) float64 {
	if n <= 0 {
		return 0
	}
	if n > len(c.objects) {
		n = len(c.objects)
	}
	hits := 0
	for i := 0; i < n; i++ {
		if c.ByRank(r, i).Region == r {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// Video is a DASH-style video: an ordered list of fixed-duration segments.
type Video struct {
	Object   Object
	Segments []Segment
}

// Segment is one DASH segment of a video.
type Segment struct {
	ID       ID
	Index    int
	Bytes    int64
	Duration time.Duration
}

// Segmentize splits a video object into fixed-duration DASH segments.
// segDur must be positive and bitrate (bits per second) positive.
func Segmentize(o Object, totalDur, segDur time.Duration, bitrateBps int64) (Video, error) {
	if !o.Video {
		return Video{}, fmt.Errorf("content: object %s is not a video", o.ID)
	}
	if segDur <= 0 || totalDur <= 0 || bitrateBps <= 0 {
		return Video{}, fmt.Errorf("content: invalid segmentation parameters")
	}
	n := int((totalDur + segDur - 1) / segDur)
	segBytes := int64(float64(bitrateBps) / 8 * segDur.Seconds())
	v := Video{Object: o, Segments: make([]Segment, n)}
	for i := range v.Segments {
		d := segDur
		if rem := totalDur - time.Duration(i)*segDur; rem < segDur {
			d = rem
		}
		v.Segments[i] = Segment{
			ID:       ID(fmt.Sprintf("%s/seg-%04d", o.ID, i)),
			Index:    i,
			Bytes:    segBytes,
			Duration: d,
		}
	}
	return v, nil
}

// TotalBytes returns the summed segment size.
func (v Video) TotalBytes() int64 {
	var t int64
	for _, s := range v.Segments {
		t += s.Bytes
	}
	return t
}

// Duration returns the summed segment duration.
func (v Video) Duration() time.Duration {
	var t time.Duration
	for _, s := range v.Segments {
		t += s.Duration
	}
	return t
}
