// Package lsn models the LEO satellite network access path — the simulator's
// equivalent of Starlink's production network. A subscriber's traffic goes:
//
//	terminal --Ku-band--> satellite --(0..n ISLs)--> satellite --> ground
//	station --fiber--> PoP --> Internet
//
// The PoP (not the subscriber) is what the terrestrial Internet and CDN
// anycast "see", which is the root of the paper's observations. Subscribers
// in countries without nearby ground infrastructure ride inter-satellite
// links to a remote ground station (e.g. Mozambique to Frankfurt), adding
// tens of milliseconds and — more importantly — landing at a PoP on another
// continent.
//
// Latency composition per direction: radio up/down (speed of light over the
// slant range), laser ISL hops (speed of light, plus per-hop switching),
// ground-station-to-PoP fiber, and the MAC scheduling delay of the
// frame-based Ku-band access link. Under load, the access queue adds the
// severe bufferbloat the paper reports (>200 ms).
package lsn

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
	"spacecdn/internal/terrestrial"
)

// ErrNoVisibility is returned when the client or ground station has no
// satellite above the elevation mask.
var ErrNoVisibility = errors.New("lsn: no satellite above elevation mask")

// Config tunes the non-geometric latency components, all in milliseconds.
type Config struct {
	// SchedFloorRTTMs is the fixed two-way MAC/PHY overhead of the access
	// link (frame alignment, grant cycles, FEC). Starlink's observed ~20 ms
	// floor over and above propagation is dominated by this.
	SchedFloorRTTMs float64
	// SchedJitterMs is the upper bound of the additional uniform two-way
	// scheduling delay (frame phase).
	SchedJitterMs float64
	// PerHopProcMs is the switching delay per ISL hop, per direction.
	PerHopProcMs float64
	// GatewayProcRTTMs covers GS modem + PoP CGNAT processing, two-way.
	GatewayProcRTTMs float64
	// QueueNoiseMeanMs is the mean of the exponential idle queueing noise.
	QueueNoiseMeanMs float64
	// BloatLoadedMinMs/MaxMs bound the uniform bufferbloat added under
	// active load (the paper observes >200 ms during downloads).
	BloatLoadedMinMs float64
	BloatLoadedMaxMs float64
}

// DefaultConfig is calibrated so that a subscriber with a local PoP sees a
// ~30-35 ms idle minimum RTT to a nearby host (paper Table 1: Spain 33 ms,
// Japan 34 ms), and loaded RTTs inflate by 100-350 ms.
func DefaultConfig() Config {
	return Config{
		SchedFloorRTTMs:  18,
		SchedJitterMs:    14,
		PerHopProcMs:     0.35,
		GatewayProcRTTMs: 4,
		QueueNoiseMeanMs: 7,
		BloatLoadedMinMs: 100,
		BloatLoadedMaxMs: 350,
	}
}

// Model computes subscriber paths over a constellation and ground segment.
// It is safe for concurrent use once wired (SetTelemetry must happen before
// concurrent callers start).
type Model struct {
	Constellation *constellation.Constellation
	Ground        *groundseg.Catalog
	cfg           Config

	// Telemetry handles; nil (the default) keeps instrumentation off the
	// hot path entirely.
	pathDurUs *telemetry.Histogram
	pathErrs  *telemetry.Counter
}

// SetTelemetry wires path-computation observability: a wall-time histogram
// of path computations — ResolveGround's memo misses and errors, each one
// field-guided search per uplink tried for each PoP tried, plus the PoP's
// field where it is not yet built or settled that far — and an error
// counter. Pass nil to disable.
func (m *Model) SetTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		m.pathDurUs = nil
		m.pathErrs = nil
		return
	}
	reg := t.Registry()
	m.pathDurUs = reg.Histogram("lsn_path_compute_us", telemetry.ComputeBucketsUs)
	m.pathErrs = reg.Counter("lsn_path_errors_total")
}

// NewModel assembles the LSN access model.
func NewModel(c *constellation.Constellation, g *groundseg.Catalog, cfg Config) *Model {
	return &Model{Constellation: c, Ground: g, cfg: cfg}
}

// Config returns the model's latency configuration.
func (m *Model) Config() Config { return m.cfg }

// Path is a resolved subscriber path at one constellation snapshot.
type Path struct {
	Client geo.Point
	PoP    groundseg.PoP
	GS     groundseg.GroundStation

	UpSat   constellation.SatID // satellite serving the terminal
	DownSat constellation.SatID // satellite over the ground station

	UplinkDelay   time.Duration // one-way terminal -> UpSat
	ISLDelay      time.Duration // one-way UpSat -> DownSat over ISLs
	ISLHops       int
	DownlinkDelay time.Duration // one-way DownSat -> GS
	GSFiberDelay  time.Duration // one-way GS -> PoP terrestrial fiber
}

// OneWayPropagation returns the total one-way propagation delay of the path,
// excluding scheduling and processing.
func (p Path) OneWayPropagation() time.Duration {
	return p.UplinkDelay + p.ISLDelay + p.DownlinkDelay + p.GSFiberDelay
}

func (p Path) String() string {
	return fmt.Sprintf("client->sat%d -(%d isl, %.1fms)-> sat%d ->%s ->pop %s (oneway %.1fms)",
		p.UpSat, p.ISLHops, float64(p.ISLDelay)/float64(time.Millisecond),
		p.DownSat, p.GS.Name, p.PoP.Name,
		float64(p.OneWayPropagation())/float64(time.Millisecond))
}

// maxUplinkCandidates bounds how many client-visible satellites are
// evaluated as serving candidates. The operator's scheduler can serve the
// terminal from any sufficiently elevated satellite; evaluating the top few
// by elevation captures that without scanning the whole sky.
const maxUplinkCandidates = 6

// ResolvePath is ResolveGround at a healthy snapshot: the subscriber's path
// to their assigned PoP, with no fault view and so no failover.
func (m *Model) ResolvePath(client geo.Point, iso2 string, snap *constellation.Snapshot) (Path, error) {
	p, _, err := m.ResolveGround(client, iso2, snap, nil)
	return p, err
}

// ResolveGround computes the subscriber's ground path at a snapshot in the
// fault state fv (nil or empty: healthy). It evaluates the top visible
// satellites at the terminal against every visible satellite at each ground
// station homed on the PoP, and picks the pair minimizing total one-way
// propagation — an operator scheduling terminals and gateways onto the
// cheapest space path. Under a non-empty view it prices over the snapshot's
// masked view for fv and fails over: the assigned PoP unless it is dark,
// then the other live PoPs nearest-first from the client (ties by name)
// until one resolves. failover reports that the served PoP is not the
// assigned one; an error means no PoP is reachable. A healthy call never
// fails over.
//
// The answer is a pure function of (model, snapshot, fault state, point,
// country), and clients sit at a few hundred fixed points, so it is
// memoized in the point's ground-memo slot under fv's fault epoch: a hit is
// a probe and a struct copy, no lock, no allocation, no clock read. Errors
// are not memoized. A miss prices each PoP it tries with a search that the
// PoP's reverse field guides (resolvePathVia); the field is memoized the
// same way, in the slot of the PoP's location. Telemetry observes misses
// only.
func (m *Model) ResolveGround(client geo.Point, iso2 string, snap *constellation.Snapshot, fv *faults.View) (Path, bool, error) {
	var epoch uint64
	if fv != nil && !fv.Empty() {
		epoch = fv.Epoch
	} else {
		fv = nil
	}
	slot := snap.PointSlot(client)
	if slot != nil {
		if list, i := m.find(slot.Load(), iso2, epoch, false); i >= 0 {
			return list[i].path, list[i].failover, nil
		}
	}
	var start time.Time
	if m.pathDurUs != nil {
		start = time.Now()
	}
	p, failover, err := m.resolveGround(client, iso2, snap, fv)
	if m.pathDurUs != nil {
		m.pathDurUs.Observe(float64(time.Since(start)) / float64(time.Microsecond))
		if err != nil {
			m.pathErrs.Inc()
		}
	}
	if err == nil && slot != nil {
		m.publish(slot, groundEntry{model: m, key: iso2, epoch: epoch, path: p, failover: failover})
	}
	return p, failover, err
}

// groundEntry is one value this package keeps in a ground point's memo slot
// (constellation.Snapshot.PointSlot). A slot holds a copy-on-write list of
// them: the ground path of a client at the point, per (model, country, fault
// epoch), and the reverse field of a PoP at the point, per (model, PoP,
// fault epoch). Two models over one snapshot can carry different ground
// catalogs, so the model is part of both keys; the country picks the PoP.
//
// The fault epoch is faults.View.Epoch (0 healthy), never the masked
// view's: with only PoPs down the masked view is the pass-through one,
// epoch 0, and that key would serve the healthy path to a dead PoP. The key
// inherits Snapshot.Masked's contract: on one snapshot, one fault epoch
// describes one fault state. This package owns the slot's type.
type groundEntry struct {
	model    *Model
	key      string // the client's country, or the field's PoP name
	epoch    uint64
	field    *popField // nil for a ground path
	path     Path
	failover bool // the path is not to the assigned PoP
}

// find returns the list a slot value holds (nil for an empty slot) and the
// index in it of m's ground path for (key, epoch), or of m's field for them
// when field is true; -1 when absent.
func (m *Model) find(v *any, key string, epoch uint64, field bool) ([]groundEntry, int) {
	if v == nil {
		return nil, -1
	}
	list := (*v).([]groundEntry)
	for i := range list {
		if e := &list[i]; e.model == m && e.key == key && e.epoch == epoch && (e.field != nil) == field {
			return list, i
		}
	}
	return list, -1
}

// publish adds e to the slot's list by compare-and-swap of a fresh copy,
// retrying on a lost race so that no insert is dropped, and returns the
// entry the slot holds for e's key. A racing caller that published the same
// key first wins, and its entry is returned: paths are deterministic, so
// the two are equal, and the losers of a field race share the winner's.
func (m *Model) publish(slot *atomic.Pointer[any], e groundEntry) groundEntry {
	for {
		old := slot.Load()
		list, i := m.find(old, e.key, e.epoch, e.field != nil)
		if i >= 0 {
			return list[i]
		}
		next := any(append(list[:len(list):len(list)], e))
		if slot.CompareAndSwap(old, &next) {
			return e
		}
	}
}

// topology is what path resolution prices against: the healthy snapshot, or
// a fault-masked view of one. Both expose elevation-sorted visibility and
// their ISL graph; a masked topology simply lacks the dead satellites and
// their edges. Visibility goes through the shared (memoized) form: path
// resolution queries the same ground stations and recurring clients against
// one snapshot thousands of times, and re-enumerating a visible list that
// grows with the constellation made the ground stage degrade linearly in
// satellite count. The shared lists are read-only here — the uplink list is
// only re-sliced, never written.
//
// The ISL graph must be undirected, as every ISL graph is: a PoP's field is
// a search from its downlink satellites outward, read as the cost from a
// satellite inward.
type topology interface {
	VisibleShared(geo.Point) []constellation.VisibleSat
	ISLGraph() *routing.Graph
}

// groundTopo is one fault state of a snapshot as the ground stage prices it:
// the topology (the snapshot or its masked view), and the snapshot and fault
// epoch its PoP fields are memoized under. A nil snap memoizes no field.
type groundTopo struct {
	topology
	snap  *constellation.Snapshot
	epoch uint64
}

// resolveGround is ResolveGround's computation; fv is nil when healthy.
func (m *Model) resolveGround(client geo.Point, iso2 string, snap *constellation.Snapshot, fv *faults.View) (Path, bool, error) {
	assigned, ok := m.Ground.AssignPoPForClient(iso2, client)
	if !ok {
		return Path{}, false, fmt.Errorf("lsn: no PoP assignment for country %q", iso2)
	}
	g := groundTopo{snap, snap, 0}
	if fv != nil {
		g = groundTopo{snap.Masked(fv.Epoch, fv.DeadSats, fv.DeadLinks), snap, fv.Epoch}
	}
	var lastErr error
	if fv == nil || !fv.PoPDead(assigned.Name) {
		p, err := m.resolvePathVia(g, client, assigned)
		if err == nil || fv == nil {
			return p, false, err
		}
		lastErr = err
	}
	// Failover sweep: every other live PoP, nearest to the client first
	// (ties broken by name for determinism).
	pops := m.Ground.PoPs()
	slices.SortFunc(pops, func(a, b groundseg.PoP) int {
		return cmp.Or(cmp.Compare(geo.HaversineKm(client, a.Loc), geo.HaversineKm(client, b.Loc)), strings.Compare(a.Name, b.Name))
	})
	for _, pop := range pops {
		if pop.Name == assigned.Name || fv.PoPDead(pop.Name) {
			continue
		}
		p, err := m.resolvePathVia(g, client, pop)
		if err == nil {
			return p, true, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("lsn: every PoP is blacked out")
	}
	return Path{}, true, fmt.Errorf("lsn: degraded: no reachable PoP for country %q: %w", iso2, lastErr)
}

// resolvePathVia prices the client's path to one fixed PoP over the given
// topology — the PoP-assignment-free core of resolveGround. The answer is the
// first cheapest (uplink, station, downlink) triple in that enumeration
// order, as ResolvePathReference prices them all, but it searches only the
// ISL corridor between the uplinks and the PoP.
//
// The PoP's reverse field (fieldFor) gives, for any satellite, a lower bound
// on the rest of the path from it: ISL hops, a downlink and the fiber. Each
// uplink's bound on a whole path is then its radio leg plus its field value,
// less a microsecond of margin, so the uplinks are tried cheapest bound
// first, and one whose bound exceeds the incumbent cannot win and is
// skipped. From each uplink tried, a search guided by the field
// (routing.GuidedSearch) pops only nodes whose distance plus field value
// can still beat the incumbent, and prices every (station, downlink) it
// reaches exactly as the reference does. The guided search returns the
// same float distance as Dijkstra — the minimum, over all paths, of the
// left-fold sum from the uplink — so the ISL delay is bit-identical, and
// the microsecond of margin on every bound absorbs the float rounding of the
// field's sums and the nanosecond truncation of delays.
func (m *Model) resolvePathVia(topo groundTopo, client geo.Point, pop groundseg.PoP) (Path, error) {
	ups := topo.VisibleShared(client)
	if len(ups) == 0 {
		return Path{}, fmt.Errorf("%w: client at %v", ErrNoVisibility, client)
	}
	if len(ups) > maxUplinkCandidates {
		ups = ups[:maxUplinkCandidates]
	}
	f, err := m.fieldFor(topo, pop)
	if err != nil {
		return Path{}, err
	}
	// Order the uplinks by lower bound (insertion sort, stable by index);
	// an uplink the field cannot reach has no ISL route to the PoP.
	type upBound struct {
		i  int
		lb time.Duration
	}
	var boundBuf [maxUplinkCandidates]upBound
	bounds := boundBuf[:0]
	for i, up := range ups {
		fieldMs := f.tree.Dist(routing.NodeID(up.ID))
		if math.IsInf(fieldMs, 1) {
			continue
		}
		b := upBound{i, orbit.PropagationDelay(up.SlantKm) + time.Duration(fieldMs*float64(time.Millisecond)) - time.Microsecond}
		bounds = append(bounds, b)
		j := len(bounds) - 1
		for ; j > 0 && bounds[j-1].lb > b.lb; j-- {
			bounds[j] = bounds[j-1]
		}
		bounds[j] = b
	}
	s := groundSearch{f: f, bestCost: time.Duration(math.MaxInt64), bestOrd: math.MaxInt64}
	g := topo.ISLGraph()
	for _, b := range bounds {
		if b.lb > s.bestCost {
			break
		}
		s.ui, s.upDelay = b.i, orbit.PropagationDelay(ups[b.i].SlantKm)
		g.GuidedSearch(routing.NodeID(ups[b.i].ID), s.bound(), s.potential, s.visit)
	}
	if s.best == nil {
		return Path{}, fmt.Errorf("%w: no ISL route to PoP %s", ErrNoVisibility, pop.Name)
	}
	up := ups[s.bestUp]
	return Path{
		Client:        client,
		PoP:           pop,
		GS:            f.stations[s.best.station],
		UpSat:         up.ID,
		DownSat:       s.best.sat,
		UplinkDelay:   orbit.PropagationDelay(up.SlantKm),
		ISLDelay:      s.bestISL,
		ISLHops:       s.bestHops,
		DownlinkDelay: s.best.delay,
		GSFiberDelay:  s.best.fiber,
	}, nil
}

// groundSearch is resolvePathVia's state across its guided searches: the
// uplink being searched from and the incumbent, the first cheapest
// (uplink, station, downlink) so far.
type groundSearch struct {
	f       *popField
	ui      int           // index of the uplink searched from
	upDelay time.Duration // its radio leg

	bestCost time.Duration
	bestOrd  int64 // uplink index << 32 | the downlink's rank
	bestUp   int
	best     *fieldDown
	bestISL  time.Duration
	bestHops int
}

// bound is the search bound in ms: what the incumbent leaves over for the
// ISL, downlink and fiber legs from the current uplink, plus a microsecond.
func (s *groundSearch) bound() float64 {
	return (float64(s.bestCost-s.upDelay) + float64(time.Microsecond)) / float64(time.Millisecond)
}

// potential is the guided search's h: the field's value at v, refused
// beyond budget.
func (s *groundSearch) potential(v routing.NodeID, budget float64) (float64, bool) {
	return s.f.tree.DistWithin(v, budget)
}

// visit prices every (station, downlink) at a popped satellite against the
// incumbent and returns the bound the incumbent leaves. Only a cheaper
// triple, or an equal one earlier in enumeration order, replaces it; the
// incumbent itself popped again, at a smaller distance, refreshes its hop
// count from the shorter path.
func (s *groundSearch) visit(v routing.NodeID, distMs float64, hops int) float64 {
	if !s.f.isDown.Test(int(v)) {
		return s.bound()
	}
	isl := time.Duration(distMs * float64(time.Millisecond))
	for i := s.f.firstDown(constellation.SatID(v)); i < len(s.f.downs) && s.f.downs[i].sat == constellation.SatID(v); i++ {
		d := &s.f.downs[i]
		cost := s.upDelay + d.delay + d.fiber + isl
		ord := int64(s.ui)<<32 | int64(d.rank)
		if cost < s.bestCost || cost == s.bestCost && ord <= s.bestOrd {
			s.bestCost, s.bestOrd, s.bestUp, s.best = cost, ord, s.ui, d
			s.bestISL, s.bestHops = isl, hops
		}
	}
	return s.bound()
}

// MinRTTToPoP returns the floor round-trip time from the client to its PoP:
// two-way propagation plus the fixed scheduling and processing overheads.
func (m *Model) MinRTTToPoP(p Path) time.Duration {
	rtt := 2 * p.OneWayPropagation()
	rtt += time.Duration((m.cfg.SchedFloorRTTMs + m.cfg.GatewayProcRTTMs) * float64(time.Millisecond))
	rtt += time.Duration(2 * float64(p.ISLHops) * m.cfg.PerHopProcMs * float64(time.Millisecond))
	return rtt
}

// SampleRTTToPoP draws one idle RTT measurement to the PoP: the floor plus
// frame-phase jitter and light queueing.
func (m *Model) SampleRTTToPoP(p Path, rng *stats.Rand) time.Duration {
	rtt := m.MinRTTToPoP(p)
	jitter := rng.Uniform(0, m.cfg.SchedJitterMs) + rng.Exponential(m.cfg.QueueNoiseMeanMs)
	return rtt + time.Duration(jitter*float64(time.Millisecond))
}

// LoadedRTTToPoP draws an RTT under concurrent load: idle sample plus the
// access-link bufferbloat.
func (m *Model) LoadedRTTToPoP(p Path, rng *stats.Rand) time.Duration {
	bloat := rng.Uniform(m.cfg.BloatLoadedMinMs, m.cfg.BloatLoadedMaxMs)
	return m.SampleRTTToPoP(p, rng) + time.Duration(bloat*float64(time.Millisecond))
}

// RTTToHost composes the satellite path with the terrestrial leg from the
// PoP to a host (e.g. a CDN edge): sample = satellite RTT + fiber RTT from
// PoP to host. The PoP-side leg has no last-mile component — it leaves from
// a datacenter — so only routed propagation and small transit noise apply.
func (m *Model) RTTToHost(p Path, host geo.Point, hostRegion geo.Region, t *terrestrial.Model, rng *stats.Rand) time.Duration {
	popRegion := regionOf(p.PoP.Country)
	fiber := 2 * terrestrial.FiberDelay(routedKm(p.PoP.Loc, host, popRegion, hostRegion, t))
	transitNoise := time.Duration(rng.Exponential(2) * float64(time.Millisecond))
	return m.SampleRTTToPoP(p, rng) + fiber + transitNoise
}

// MinRTTToHost is the floor composition of MinRTTToPoP and the PoP-to-host
// fiber leg.
func (m *Model) MinRTTToHost(p Path, host geo.Point, hostRegion geo.Region, t *terrestrial.Model) time.Duration {
	popRegion := regionOf(p.PoP.Country)
	fiber := 2 * terrestrial.FiberDelay(routedKm(p.PoP.Loc, host, popRegion, hostRegion, t))
	return m.MinRTTToPoP(p) + fiber
}

// DownlinkMbps samples the subscriber's access throughput. Starlink consumer
// service delivers tens to ~200 Mbps with high variance.
func (m *Model) DownlinkMbps(rng *stats.Rand) float64 {
	return rng.PositiveNormal(110, 45, 15)
}

func regionOf(iso2 string) geo.Region {
	if c, ok := geo.CountryByISO(iso2); ok {
		return c.Region
	}
	return geo.RegionUnknown
}

// routedKm mirrors the terrestrial model's route-stretch policy for the
// PoP-to-host leg.
func routedKm(a, b geo.Point, ra, rb geo.Region, t *terrestrial.Model) float64 {
	d := geo.HaversineKm(a, b)
	stretch := terrestrial.ProfileFor(ra).PathStretch
	if ra != rb {
		stretch = t.InterRegionStretch
	} else if s := terrestrial.ProfileFor(rb).PathStretch; s > stretch {
		stretch = s
	}
	return d * stretch
}
