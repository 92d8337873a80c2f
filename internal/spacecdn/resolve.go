package spacecdn

import (
	"errors"
	"fmt"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/orbit"
	"spacecdn/internal/parallel"
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

// Typed resolve failures, one per stage that can end a request; match them
// with errors.Is.
var (
	// ErrNoVisibleSatellite: no (surviving) satellite is above the client's
	// elevation mask — the client is outside the shell's coverage.
	ErrNoVisibleSatellite = errors.New("spacecdn: no satellite visible")
	// ErrObjectNotInSpace: no servable replica within the hop bound, and the
	// system was deployed without a ground model to fall back to.
	ErrObjectNotInSpace = errors.New("spacecdn: object not in space and no ground fallback configured")
	// ErrNoGroundPath: the ground stage found no path to any PoP. It wraps
	// the lsn error, so errors.Is(err, lsn.ErrNoVisibility) still matches.
	ErrNoGroundPath = errors.New("spacecdn: no ground path")
)

// Resolve serves one object request from a client at time snap.Time(),
// following the three-stage strategy. The rng supplies access-link
// scheduling jitter; pass a deterministic source for reproducible runs.
// The attached fault plan is consulted at call time, and lifecycle effects
// apply before Resolve returns.
//
// When telemetry is attached (SetTelemetry), each call increments the
// per-source request counters, observes the RTT and hop-count histograms,
// and — for sampled requests — emits a RequestTrace whose span durations
// decompose the returned RTT exactly.
func (s *System) Resolve(client geo.Point, iso2 string, obj content.Object, snap *constellation.Snapshot, rng *stats.Rand) (Resolution, error) {
	var ep Epoch
	s.pin(&ep, 0, snap)
	req := Request{Client: client, ISO2: iso2, Obj: obj}
	return s.resolveApplied(&ep, &req, rng, nil)
}

// resolveApplied runs one request and sinks its lifecycle intent. Without an
// active manager (one atomic load, before any rng draw) there is no intent.
// Otherwise the intent is queued to the single-writer applier a, when the
// caller passes one — the response returns before the intent applies, a CDN's
// stale-while-revalidate contract — or applies inline, un-coalesced.
func (s *System) resolveApplied(ep *Epoch, req *Request, rng *stats.Rand, a *lcApplier) (Resolution, error) {
	if s.lc == nil || !s.lc.Active() {
		return s.resolveRecorded(ep, req, rng, nil, -1)
	}
	if a != nil {
		it := intentPool.Get().(*lcIntent)
		res, err := s.resolveRecorded(ep, req, rng, it, -1)
		a.ch <- intentMsg{it: it, t: ep.Time()}
		return res, err
	}
	var it lcIntent
	res, err := s.resolveRecorded(ep, req, rng, &it, -1)
	s.applyLcIntent(&it, ep.Time(), nil)
	return res, err
}

// resolveRecorded runs the pipeline and, when telemetry is attached, records
// the outcome. The detail lives on this frame and is filled by assignment
// only, so the detached path stays allocation-free. stripe is the telemetry
// stripe the caller owns — ResolveAll passes its shard index — or negative
// when it owns none (Resolve and ResolveAt, whose signatures carry only the
// rng): then one per-P hint is drawn here and serves the whole request.
func (s *System) resolveRecorded(ep *Epoch, req *Request, rng *stats.Rand, it *lcIntent, stripe int) (Resolution, error) {
	in := s.inst
	if in == nil {
		return s.resolveStaged(ep, req, rng, nil, it)
	}
	var d resolveDetail
	res, err := s.resolveStaged(ep, req, rng, &d, it)
	if stripe < 0 {
		stripe = parallel.StripeHint()
	}
	in.record(stripe, res, err, &d)
	return res, err
}

// topology is what a resolution prices against: the healthy snapshot, or the
// fault-masked view of one, where dead satellites are invisible and have no
// edges. Both are pointer receivers, so the interface costs no allocation.
type topology interface {
	BestVisible(geo.Point) (constellation.VisibleSat, bool)
	ISLGraph() *routing.Graph
	PathTree(constellation.SatID) *routing.SPTree
}

// resolveStaged is the resolve pipeline — the paper's Figure 6, stated once:
// overhead satellite, nearest replica over ISLs, ground via the PoP. Faults
// choose the topology, lifecycle chooses the classifier, independently:
//
//   - a degraded epoch (ep.fv != nil) prices stages 1 and 2 against its
//     masked view and hands its fault view to the ground stage, whose one
//     entry point memoizes per fault epoch as it does per healthy snapshot.
//     It reroutes in failover order — dead overhead satellite → the next
//     surviving visible one, dead holders and relays → absent from the masked
//     graph, dead PoP → the next-nearest live one — counting each failover. A
//     request errors only when no path, space or ground, survives.
//   - with it == nil every cached copy serves and hits are counted on the
//     caches directly; with an intent each hit point classifies the copy and
//     the pipeline is read-only over cache state: hit accounting, drops,
//     promotions and fills land in the intent for the caller to apply.
//
// Invariant: the rng is drawn in the order schedDelay → SampleRTTToPoP, with
// no draw in between, whatever the parameters. When d is non-nil it receives
// the latency components telemetry decomposes the RTT into.
func (s *System) resolveStaged(ep *Epoch, req *Request, rng *stats.Rand, d *resolveDetail, it *lcIntent) (Resolution, error) {
	snap, fv, topo := ep.snap, ep.fv, ep.topo
	client := req.Client
	if it != nil {
		it.obj = req.Obj
	}
	up, ok := topo.BestVisible(client)
	if fv != nil {
		s.fstats.degraded.Add(1)
		if d != nil {
			d.degraded = true
		}
		// The masked election failed over iff the healthy one (a memo hit by
		// now) picked a dead satellite.
		if best, vis := snap.BestVisible(client); vis && fv.SatDead(best.ID) {
			s.fstats.uplinkFO.Add(1)
			if d != nil {
				d.uplinkFailover = true
			}
		}
	}
	if !ok {
		return Resolution{}, fmt.Errorf("%w from %v", ErrNoVisibleSatellite, client)
	}
	t := snap.Time()
	upDelay := orbit.PropagationDelay(up.SlantKm)
	sched := s.schedDelay(rng)
	if d != nil {
		d.uplinkRTT = 2 * upDelay
	}

	// Stage 1: directly overhead. The uplink satellite is alive by
	// construction; duty cycling and cache contents gate as in health.
	if s.Active(up.ID, t) {
		if tierLat, ok := s.serveFrom(up.ID, req, t, it); ok {
			return Resolution{
				Source: SourceOverhead,
				Sat:    up.ID,
				RTT:    2*upDelay + sched + tierLat,
			}, nil
		}
	}

	// Stage 2: nearest caching satellite over ISLs within the hop bound. The
	// replica index supplies the membership bitset (nil for cold objects,
	// skipping the BFS entirely) and the duty cycler the active bitset, so
	// the search probes words instead of calling Peek per visited node. On a
	// masked graph the search can neither pick a dead holder nor relay
	// through a dead satellite; a replica set touching the dead mask records
	// the replica failover.
	members := s.replicas.bitset(cache.Key(req.Obj.ID))
	if fv != nil && members.IntersectsAny(fv.DeadSats) {
		s.fstats.replicaFO.Add(1)
		if d != nil {
			d.replicaFailover = true
		}
	}
	if hit, ok := topo.ISLGraph().NearestInSet(routing.NodeID(up.ID), s.cfg.MaxISLSearchHops, members, s.activeSet(t)); ok {
		target := constellation.SatID(hit.Node)
		// A replica unreachable over ISLs (partitioned topology) falls
		// through to the ground stage instead of pricing the fetch as free.
		if islRTT, hops, reachable := s.islRoundTrip(topo, up.ID, target); reachable {
			// Without an intent the replica index is the authority here: a
			// copy evicted since the search still serves, and the counted
			// lookup only records the hit.
			if tierLat, ok := s.serveFrom(target, req, t, it); ok || it == nil {
				if d != nil {
					d.islRTT = islRTT
				}
				res := Resolution{
					Source: SourceISL,
					Sat:    target,
					Hops:   hops,
					RTT:    2*upDelay + islRTT + sched + tierLat,
				}
				if target == up.ID {
					// A fill landed on the uplink satellite between the
					// stage-1 probe and this search: no ISL leg was priced,
					// so this is an overhead serve.
					res.Source = SourceOverhead
				}
				return res, nil
			}
		}
	}

	// Stage 3: ground fallback through the operator's PoP, memoized per
	// fault state, failing over blacked-out PoPs on a degraded epoch. With
	// an intent this is an origin fetch: the uplink satellite pulls the
	// object through into its cache (stamped with the current version), so
	// the next request in the cell is a space hit.
	if s.lsn == nil {
		return Resolution{}, fmt.Errorf("%w: %s", ErrObjectNotInSpace, req.Obj.ID)
	}
	path, popFailover, err := s.lsn.ResolveGround(client, req.ISO2, snap, fv)
	if err != nil {
		return Resolution{}, fmt.Errorf("%w: %w", ErrNoGroundPath, err)
	}
	if popFailover {
		s.fstats.popFO.Add(1)
		if d != nil {
			d.popFailover = true
		}
	}
	if d != nil {
		d.ground = path
		d.hasGround = true
	}
	if it != nil {
		it.valid = true
		it.class = ServeMiss
		if it.numDrops > 0 {
			it.class = ServeExpired
		}
		s.originContact(it, up.ID, client)
	}
	return Resolution{
		Source: SourceGround,
		RTT:    s.lsn.SampleRTTToPoP(path, rng),
	}, nil
}

// serveFrom is the hit point of stages 1 and 2: it reports whether sat holds
// a servable copy of the object and the tier read latency the serve pays.
// Without an intent any cached copy serves and the lookup is counted on the
// cache. With one the copy is classified first — an expired copy records a
// drop and does not serve; a fresh or stale one records the hit (and, when
// stale, the off-path revalidating refill) — and nothing is mutated.
func (s *System) serveFrom(sat constellation.SatID, req *Request, t time.Duration, it *lcIntent) (time.Duration, bool) {
	id := req.Obj.ID
	key := cache.Key(id)
	if it == nil {
		return 0, s.caches[int(sat)].Get(key)
	}
	entry, ok := s.caches[int(sat)].Entry(key)
	if !ok {
		return 0, false
	}
	f, inconsistent := s.lc.Classify(int(sat), entry, id, t)
	if f == lifecycle.Expired {
		// Purge-superseded entries drop as EvictPurged, TTL runouts as
		// EvictTTLExpired.
		reason := cache.EvictTTLExpired
		if s.lc.Superseded(int(sat), entry, id, t) {
			reason = cache.EvictPurged
		}
		it.addDrop(sat, reason)
		return 0, false
	}
	it.valid = true
	it.hit, it.hitSat = true, sat
	it.inconsistent = inconsistent
	it.class = ServeFresh
	if f != lifecycle.Fresh {
		// Stale-while-revalidate: serve the cached copy now, refresh
		// off-path (a coalescable origin contact).
		it.class = ServeStale
		s.originContact(it, sat, req.Client)
	}
	return s.tierRead(sat, key), true
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

// islOneWay returns the one-way ISL latency (propagation plus per-hop
// switching) and the hop count between two satellites on the cheapest path,
// priced off the topology's memoized path tree. ok is false when to is
// unreachable from from — callers must treat the replica as unusable and
// fall through to the ground stage, never price it as free.
func (s *System) islOneWay(topo topology, from, to constellation.SatID) (time.Duration, int, bool) {
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
func (s *System) islRoundTrip(topo topology, from, to constellation.SatID) (time.Duration, int, bool) {
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
