// Package cdn implements the terrestrial content delivery network substrate:
// a Cloudflare-like global edge footprint, anycast server selection (lowest
// latency from the client's network vantage — which, for satellite
// subscribers, is their PoP, not their home) and LRU edge caches.
//
// The paper's core observation lives in the vantage parameter of the
// selection functions: terrestrial clients are localized by their own
// address, LSN clients by their PoP's.
package cdn

import (
	"fmt"
	"sort"

	"spacecdn/internal/cache"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/stats"
)

// Edge is one CDN point of presence with its cache.
type Edge struct {
	City  geo.City
	Cache cache.Cache
}

// Config controls CDN construction.
type Config struct {
	// EdgeCacheBytes is the per-edge cache capacity.
	EdgeCacheBytes int64
	// AnycastSpread is how many nearest edges a client may be mapped to;
	// the paper notes clients from one city often reach several CDN sites
	// in neighbouring countries.
	AnycastSpread int
}

// DefaultConfig returns a realistic global CDN setup.
func DefaultConfig() Config {
	return Config{
		EdgeCacheBytes: 64 << 30, // 64 GiB of hot content per edge
		AnycastSpread:  3,
	}
}

// CDN is a deployed content delivery network. Edge caches are mutable (they
// fill as requests flow); the deployment itself is immutable.
type CDN struct {
	cfg   Config
	edges []*Edge
}

// New deploys an edge in every city of the embedded world dataset —
// mirroring a large anycast CDN whose footprint covers essentially every
// sizeable metro, including African ones (the paper's Fig. 3b shows a
// Cloudflare edge in Maputo itself).
func New(cfg Config) (*CDN, error) {
	if cfg.EdgeCacheBytes <= 0 {
		return nil, fmt.Errorf("cdn: non-positive edge cache capacity")
	}
	if cfg.AnycastSpread <= 0 {
		return nil, fmt.Errorf("cdn: anycast spread must be positive")
	}
	c := &CDN{cfg: cfg}
	for _, city := range geo.Cities() {
		c.edges = append(c.edges, &Edge{
			City:  city,
			Cache: cache.NewLRU(cfg.EdgeCacheBytes),
		})
	}
	return c, nil
}

// Edges returns the deployment (shared slice; edges are live objects).
func (c *CDN) Edges() []*Edge { return c.edges }

// EdgesByDistance returns the k edges nearest the vantage point, closest
// first. It keeps only the k best while scanning the deployment, so a call
// allocates two k-sized slices whatever the number of edges.
func (c *CDN) EdgesByDistance(vantage geo.Point, k int) []*Edge {
	if k <= 0 {
		return nil
	}
	if k > len(c.edges) {
		k = len(c.edges)
	}
	out := make([]*Edge, 0, k)
	dist := make([]float64, 0, k)
	for _, e := range c.edges {
		d := geo.HaversineKm(vantage, e.City.Loc)
		if len(out) == k && d >= dist[k-1] {
			continue
		}
		// Insert after any equal distance, so ties keep deployment order.
		i := sort.Search(len(dist), func(i int) bool { return dist[i] > d })
		if len(out) < k {
			out, dist = append(out, nil), append(dist, 0)
		}
		copy(out[i+1:], out[i:])
		copy(dist[i+1:], dist[i:])
		out[i], dist[i] = e, d
	}
	return out
}

// NearestEdge returns the single closest edge to the vantage.
func (c *CDN) NearestEdge(vantage geo.Point) *Edge {
	return c.EdgesByDistance(vantage, 1)[0]
}

// SelectAnycast picks the edge a request lands on: usually the nearest, but
// with geometric fall-off across the AnycastSpread nearest sites — modelling
// BGP anycast's imperfect localization.
func (c *CDN) SelectAnycast(vantage geo.Point, rng *stats.Rand) *Edge {
	cands := c.EdgesByDistance(vantage, c.cfg.AnycastSpread)
	for _, e := range cands[:len(cands)-1] {
		if rng.Bool(0.7) {
			return e
		}
	}
	return cands[len(cands)-1]
}

// Warm pre-populates an edge cache with a region's most popular objects
// until the byte budget is exhausted.
func Warm(e *Edge, cat *content.Catalog, region geo.Region, budget int64) int {
	placed := 0
	for i := 0; i < cat.Len(); i++ {
		o := cat.ByRank(region, i)
		if o.Bytes > budget {
			continue
		}
		if e.Cache.Put(cache.Item{Key: cache.Key(o.ID), Size: o.Bytes, Tag: o.Region.String()}) {
			budget -= o.Bytes
			placed++
		}
		if budget <= 0 {
			break
		}
	}
	return placed
}
