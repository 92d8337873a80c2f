package spacecdn

import (
	"fmt"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
)

// Source is where a request was served from.
type Source int

// Resolution sources, in the order of the paper's Figure 6.
const (
	SourceOverhead Source = iota // red arrow: the satellite overhead
	SourceISL                    // blue arrow: a nearby satellite over ISLs
	SourceGround                 // black arrow: ground cache via PoP

	numSources // keep last: sizes the name table and label arrays
)

// sourceNames is the exhaustive name table; the [numSources] bound makes a
// constant added without a name a compile error, and the round-trip test
// catches a name added without a constant.
var sourceNames = [numSources]string{
	SourceOverhead: "overhead",
	SourceISL:      "isl",
	SourceGround:   "ground",
}

func (s Source) String() string {
	if s >= 0 && int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// SourceFromString maps a source name back to its constant.
func SourceFromString(name string) (Source, bool) {
	for i, n := range sourceNames {
		if n == name {
			return Source(i), true
		}
	}
	return 0, false
}

// Sources returns every resolution source, in declaration order.
func Sources() []Source {
	out := make([]Source, numSources)
	for i := range out {
		out[i] = Source(i)
	}
	return out
}

// Resolution describes how a request was served.
type Resolution struct {
	Source Source
	// Sat is the serving satellite (overhead/ISL sources).
	Sat constellation.SatID
	// Hops is the ISL hop count to the serving satellite (0 for overhead).
	Hops int
	// RTT is the client-observed round trip to first byte of the object.
	RTT time.Duration
}

// Resolve serves one object request from a client at time snap.Time(),
// following the three-stage strategy. The rng supplies access-link
// scheduling jitter; pass a deterministic source for reproducible runs.
//
// When telemetry is attached (SetTelemetry), each call increments the
// per-source request counters, observes the RTT and hop-count histograms,
// and — for sampled requests — emits a RequestTrace whose span durations
// decompose the returned RTT exactly.
func (s *System) Resolve(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand) (Resolution, error) {
	in := s.inst
	if in == nil {
		return s.resolveAny(client, iso2, obj, snap, rng, nil)
	}
	var d resolveDetail
	d.client = client
	res, err := s.resolveAny(client, iso2, obj, snap, rng, &d)
	in.record(res, err, &d)
	return res, err
}

// resolveAny routes a request down the healthy pipeline or, when the
// attached fault plan has active outages at the snapshot time, the degraded
// one; with an active lifecycle manager (and no active faults) it runs the
// freshness-classifying lifecycle pipeline. Both checks happen before any
// rng draw, so with no plan and an absent-or-inert manager the healthy path
// runs untouched and its output stays byte-identical to a bare system.
func (s *System) resolveAny(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand, d *resolveDetail) (Resolution, error) {
	if s.faults != nil {
		if fv := s.faults.ViewAt(snap.Time()); !fv.Empty() {
			return s.resolveDegraded(client, iso2, obj, snap, fv, rng, d)
		}
	}
	if s.lc != nil && s.lc.Active() {
		return s.resolveLifecycleInline(client, iso2, obj, snap, rng, d)
	}
	return s.resolve(client, iso2, obj, snap, rng, d)
}

// resolve is the uninstrumented resolution path. When d is non-nil it is
// filled with the latency components telemetry needs to decompose the RTT
// into spans; the components are assigned, never allocated, so the disabled
// path stays allocation-free.
func (s *System) resolve(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand, d *resolveDetail) (Resolution, error) {
	up, ok := snap.BestVisible(client)
	if !ok {
		return Resolution{}, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	t := snap.Time()
	upDelay := orbit.PropagationDelay(up.SlantKm)
	sched := s.schedDelay(rng)
	if d != nil {
		d.uplinkRTT = 2 * upDelay
	}

	// Stage 1: directly overhead.
	if s.Active(up.ID, t) && s.cacheGet(up.ID, obj.ID) {
		return Resolution{
			Source: SourceOverhead,
			Sat:    up.ID,
			RTT:    2*upDelay + sched,
		}, nil
	}

	// Stage 2: nearest caching satellite over ISLs within the hop bound. The
	// replica index supplies the membership bitset (nil for cold objects,
	// skipping the BFS entirely) and the duty cycler the active bitset, so
	// the search probes words instead of calling Peek per visited node.
	g := snap.ISLGraph()
	members := s.replicas.bitset(cache.Key(obj.ID))
	if hit, ok := g.NearestInSet(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, members, s.activeSet(t)); ok {
		target := constellation.SatID(hit.Node)
		if islRTT, hops, reachable := s.islRoundTrip(snap, up.ID, target); reachable {
			// Count the hit on the serving satellite's cache.
			s.caches[int(target)].Get(cache.Key(obj.ID))
			if d != nil {
				d.islRTT = islRTT
			}
			return Resolution{
				Source: SourceISL,
				Sat:    target,
				Hops:   hops,
				RTT:    2*upDelay + islRTT + sched,
			}, nil
		}
		// The replica is unreachable over ISLs (partitioned topology): fall
		// through to the ground stage instead of pricing the fetch as free.
	}

	// Stage 3: ground fallback through the operator's PoP.
	if s.lsn == nil {
		return Resolution{}, fmt.Errorf("spacecdn: no ground fallback configured and object %s not in space", obj.ID)
	}
	path, err := s.lsn.ResolvePath(client, iso2, snap)
	if err != nil {
		return Resolution{}, fmt.Errorf("spacecdn: ground fallback: %w", err)
	}
	if d != nil {
		d.ground = path
		d.hasGround = true
	}
	return Resolution{
		Source: SourceGround,
		RTT:    s.lsn.SampleRTTToPoP(path, rng),
	}, nil
}

// ResolveReference is the pre-acceleration resolve pipeline, kept verbatim:
// full-scan satellite visibility, a Peek-per-node BFS for the replica search,
// and an unmemoized Dijkstra per pricing. It must produce the same Resolution
// stream as Resolve for any input (the equivalence tests enforce this) and
// serves as the baseline the resolve benchmark contrasts against. Telemetry
// is not recorded; cache stats side effects match Resolve's exactly.
func (s *System) ResolveReference(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand) (Resolution, error) {
	up, ok := snap.BestVisibleScan(client)
	if !ok {
		return Resolution{}, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	t := snap.Time()
	upDelay := orbit.PropagationDelay(up.SlantKm)
	sched := s.schedDelay(rng)

	if s.Active(up.ID, t) && s.cacheGet(up.ID, obj.ID) {
		return Resolution{Source: SourceOverhead, Sat: up.ID, RTT: 2*upDelay + sched}, nil
	}

	g := snap.ISLGraph()
	match := func(n routing.NodeID) bool {
		id := constellation.SatID(n)
		return s.Active(id, t) && s.caches[int(id)].Peek(cache.Key(obj.ID))
	}
	if hit, ok := g.NearestMatch(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, match); ok {
		target := constellation.SatID(hit.Node)
		if islRTT, hops, reachable := s.islRoundTripReference(g, up.ID, target); reachable {
			s.caches[int(target)].Get(cache.Key(obj.ID))
			return Resolution{
				Source: SourceISL,
				Sat:    target,
				Hops:   hops,
				RTT:    2*upDelay + islRTT + sched,
			}, nil
		}
	}

	if s.lsn == nil {
		return Resolution{}, fmt.Errorf("spacecdn: no ground fallback configured and object %s not in space", obj.ID)
	}
	path, err := s.lsn.ResolvePath(client, iso2, snap)
	if err != nil {
		return Resolution{}, fmt.Errorf("spacecdn: ground fallback: %w", err)
	}
	return Resolution{Source: SourceGround, RTT: s.lsn.SampleRTTToPoP(path, rng)}, nil
}

// islRoundTripReference prices an ISL round trip with a direct ShortestPath
// call — the unmemoized baseline for ResolveReference.
func (s *System) islRoundTripReference(g *routing.Graph, from, to constellation.SatID) (time.Duration, int, bool) {
	if from == to {
		return 0, 0, true
	}
	p, ok := g.ShortestPath(routing.NodeID(from), routing.NodeID(to))
	if !ok {
		return 0, 0, false
	}
	d := time.Duration(p.Cost * float64(time.Millisecond))
	d += time.Duration(float64(p.Hops()) * s.cfg.PerHopProcMs * float64(time.Millisecond))
	return 2 * d, p.Hops(), true
}

// cacheGet performs a counted lookup.
func (s *System) cacheGet(id constellation.SatID, obj content.ID) bool {
	return s.caches[int(id)].Get(cache.Key(obj))
}

// pathTreer prices ISL legs off memoized shortest-path trees. Satisfied by
// *constellation.Snapshot (healthy topology, fault epoch 0) and
// *constellation.MaskedView (degraded topology, its own epoch); both are
// pointer receivers, so the interface costs no allocation per call.
type pathTreer interface {
	PathTree(constellation.SatID) *routing.SPTree
}

// islOneWay returns the one-way ISL latency (propagation plus per-hop
// switching) and the hop count between two satellites on the cheapest path,
// priced off the topology's memoized path tree. ok is false when to is
// unreachable from from — callers must treat the replica as unusable and
// fall through to the ground stage, never price it as free.
func (s *System) islOneWay(topo pathTreer, from, to constellation.SatID) (time.Duration, int, bool) {
	if from == to {
		return 0, 0, true
	}
	tree := topo.PathTree(from)
	if tree == nil || !tree.Reachable(routing.NodeID(to)) {
		return 0, 0, false
	}
	hops, _ := tree.HopsTo(routing.NodeID(to))
	d := time.Duration(tree.Dist(routing.NodeID(to)) * float64(time.Millisecond))
	d += time.Duration(float64(hops) * s.cfg.PerHopProcMs * float64(time.Millisecond))
	return d, hops, true
}

// islRoundTrip returns the two-way ISL latency and hop count.
func (s *System) islRoundTrip(topo pathTreer, from, to constellation.SatID) (time.Duration, int, bool) {
	d, h, ok := s.islOneWay(topo, from, to)
	return 2 * d, h, ok
}

// schedDelay draws the access-link scheduling delay for one request.
func (s *System) schedDelay(rng *stats.Rand) time.Duration {
	d := s.cfg.SchedFloorRTTMs
	if rng != nil {
		d += rng.Uniform(0, s.cfg.SchedJitterMs)
	}
	return time.Duration(d * float64(time.Millisecond))
}

// accountFetch converts a fetch's one-way components into the configured
// latency accounting: the full client round trip (LatencyRTT) or the
// xeoverse-style one-way propagation figure (LatencyOneWayPropagation),
// which carries only a small processing jitter instead of the MAC schedule.
func (s *System) accountFetch(upDelay, islOneWay time.Duration, rng *stats.Rand) time.Duration {
	if s.cfg.Latency == LatencyOneWayPropagation {
		lat := upDelay + islOneWay
		if rng != nil {
			lat += time.Duration(rng.Uniform(0, 3) * float64(time.Millisecond))
		}
		return lat
	}
	return 2*(upDelay+islOneWay) + s.schedDelay(rng)
}

// FetchAtHops measures the client RTT to fetch an object cached exactly n
// ISL hops from the overhead satellite, choosing the cheapest satellite at
// that hop distance — the paper's Figure 7 methodology. n = 0 measures the
// overhead satellite itself.
func (s *System) FetchAtHops(client geo.Point, n int, snap *constellation.Snapshot, rng *stats.Rand) (time.Duration, error) {
	if n < 0 {
		return 0, fmt.Errorf("spacecdn: negative hop count %d", n)
	}
	up, ok := snap.BestVisible(client)
	if !ok {
		return 0, fmt.Errorf("spacecdn: no satellite visible from %v", client)
	}
	upDelay := orbit.PropagationDelay(up.SlantKm)
	if n == 0 {
		return s.accountFetch(upDelay, 0, rng), nil
	}
	g := snap.ISLGraph()
	ring := g.WithinHops(routing.NodeID(up.ID), n)
	// The serving satellite's memoized tree prices every candidate, settling
	// no further than the farthest ring member. The per-hop switching uses
	// the BFS hop count (the weighted path's hop count differs only when a
	// longer-hop route is cheaper, where the sub-millisecond switching
	// difference is negligible).
	tree := snap.PathTree(up.ID)
	cheapestMs := -1.0
	for _, hr := range ring {
		if hr.Hops != n {
			continue
		}
		if d := tree.Dist(hr.Node); cheapestMs < 0 || d < cheapestMs {
			cheapestMs = d
		}
	}
	if cheapestMs < 0 {
		return 0, fmt.Errorf("spacecdn: no satellite exactly %d hops away", n)
	}
	oneWay := time.Duration((cheapestMs + float64(n)*s.cfg.PerHopProcMs) * float64(time.Millisecond))
	return s.accountFetch(upDelay, oneWay, rng), nil
}

// NearestReplicaRTT measures the client RTT to the nearest duty-cycled
// caching satellite holding the object, searching up to the configured hop
// bound. found is false when no space replica is reachable.
func (s *System) NearestReplicaRTT(client geo.Point, obj content.ID, snap *constellation.Snapshot, rng *stats.Rand) (rtt time.Duration, hops int, found bool) {
	up, ok := snap.BestVisible(client)
	if !ok {
		return 0, 0, false
	}
	t := snap.Time()
	g := snap.ISLGraph()
	members := s.replicas.bitset(cache.Key(obj))
	hit, ok := g.NearestInSet(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, members, s.activeSet(t))
	if !ok {
		return 0, 0, false
	}
	oneWay, h, reachable := s.islOneWay(snap, up.ID, constellation.SatID(hit.Node))
	if !reachable {
		return 0, 0, false
	}
	upDelay := orbit.PropagationDelay(up.SlantKm)
	return s.accountFetch(upDelay, oneWay, rng), h, true
}
