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
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"spacecdn/internal/constellation"
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
// of path computations — ResolvePath's memo misses and errors, and every
// ResolvePathDegraded; dominated by the per-uplink-candidate Dijkstra sweeps
// — and an error counter. Pass nil to disable.
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

// ResolvePath computes the subscriber's path to their assigned PoP at a
// snapshot. It evaluates the top visible satellites at the terminal against
// every visible satellite at each ground station homed on the PoP, and picks
// the pair minimizing total one-way propagation — modelling an operator that
// schedules terminals and gateways onto the cheapest space path.
//
// The answer is a pure function of (model, snapshot, client point, country),
// and clients sit at a few hundred fixed points, so it is memoized per
// snapshot in the client point's ground-memo slot: a hit is a probe and a
// struct copy, no lock, no allocation and no clock read. Errors are not
// memoized. The path telemetry observes computations only, so a warm
// snapshot records nothing.
func (m *Model) ResolvePath(client geo.Point, iso2 string, snap *constellation.Snapshot) (Path, error) {
	slot := snap.PointSlot(client)
	if slot != nil {
		if list, i := m.findPath(slot.Load(), iso2); i >= 0 {
			return list[i].path, nil
		}
	}
	start := m.startCompute()
	p, err := m.resolvePath(client, iso2, snap)
	m.observeCompute(start, err)
	if err == nil && slot != nil {
		m.publishPath(slot, iso2, p)
	}
	return p, err
}

// groundPath is one memoized healthy ground path. A ground point's slot
// holds a copy-on-write list of them, one per (model, country) resolved
// there: two models over one snapshot can carry different ground catalogs,
// and the country picks the PoP. This package owns the slot's type.
type groundPath struct {
	model *Model
	iso2  string
	path  Path
}

// findPath returns the list a slot value holds (nil for an empty slot) and
// the index of (m, iso2) in it, or -1.
func (m *Model) findPath(v *any, iso2 string) ([]groundPath, int) {
	if v == nil {
		return nil, -1
	}
	list := (*v).([]groundPath)
	for i := range list {
		if list[i].model == m && list[i].iso2 == iso2 {
			return list, i
		}
	}
	return list, -1
}

// publishPath adds (m, iso2) -> p to the slot's list by compare-and-swap of
// a fresh copy, retrying on a lost race so that no insert is dropped. A
// racing caller that published the same key first wins; paths are
// deterministic, so the two are equal.
func (m *Model) publishPath(slot *atomic.Pointer[any], iso2 string, p Path) {
	for {
		old := slot.Load()
		list, i := m.findPath(old, iso2)
		if i >= 0 {
			return
		}
		next := any(append(list[:len(list):len(list)], groundPath{model: m, iso2: iso2, path: p}))
		if slot.CompareAndSwap(old, &next) {
			return
		}
	}
}

// startCompute reads the clock for a path computation when telemetry is
// attached.
func (m *Model) startCompute() time.Time {
	if m.pathDurUs == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeCompute records one path computation started at start.
func (m *Model) observeCompute(start time.Time, err error) {
	if m.pathDurUs == nil {
		return
	}
	m.pathDurUs.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	if err != nil {
		m.pathErrs.Inc()
	}
}

// topology is what path resolution prices against: the healthy snapshot, or
// a fault-masked view of one. Both expose elevation-sorted visibility and
// memoized shortest-path trees; a masked topology simply lacks the dead
// satellites and their edges. Visibility goes through the shared (memoized)
// form: path resolution queries the same ground stations and recurring
// clients against one snapshot thousands of times, and re-enumerating a
// visible list that grows with the constellation made the ground stage
// degrade linearly in satellite count. The shared lists are read-only here —
// the uplink list is only re-sliced, never written. Only ResolvePath
// memoizes the whole path, and only over a healthy snapshot: a masked view
// prices every request afresh, so a degraded epoch is never served a path
// through a dead satellite.
type topology interface {
	VisibleShared(geo.Point) []constellation.VisibleSat
	PathTree(constellation.SatID) *routing.SPTree
}

func (m *Model) resolvePath(client geo.Point, iso2 string, snap *constellation.Snapshot) (Path, error) {
	pop, ok := m.Ground.AssignPoPForClient(iso2, client)
	if !ok {
		return Path{}, fmt.Errorf("lsn: no PoP assignment for country %q", iso2)
	}
	return m.resolvePathVia(snap, client, pop)
}

// resolvePathVia prices the client's path to one fixed PoP over the given
// topology — the PoP-assignment-free core of resolvePath.
func (m *Model) resolvePathVia(snap topology, client geo.Point, pop groundseg.PoP) (Path, error) {
	ups := snap.VisibleShared(client)
	if len(ups) == 0 {
		return Path{}, fmt.Errorf("%w: client at %v", ErrNoVisibility, client)
	}
	if len(ups) > maxUplinkCandidates {
		ups = ups[:maxUplinkCandidates]
	}
	stations := m.Ground.StationsForPoP(pop.Name)
	if len(stations) == 0 {
		return Path{}, fmt.Errorf("lsn: PoP %s has no ground stations", pop.Name)
	}
	// Pre-compute visibility and the fiber tail per station.
	type gsInfo struct {
		station int // index into stations
		vis     []constellation.VisibleSat
		fiber   time.Duration
	}
	// A PoP homes a handful of stations (three at most in the embedded
	// catalog), so the per-request list lives on the stack.
	var gssBuf [8]gsInfo
	gss := gssBuf[:0]
	for i := range stations {
		vis := snap.VisibleShared(stations[i].Loc)
		if len(vis) == 0 {
			continue
		}
		gss = append(gss, gsInfo{
			station: i,
			vis:     vis,
			fiber:   terrestrial.FiberDelay(geo.HaversineKm(stations[i].Loc, pop.Loc) * 1.4),
		})
	}
	if len(gss) == 0 {
		return Path{}, fmt.Errorf("%w: no station of PoP %s has coverage", ErrNoVisibility, pop.Name)
	}

	// Branch and bound over (uplink, station, downlink) in a fixed order,
	// keeping the first cheapest: only a strictly cheaper candidate replaces
	// the incumbent. A candidate whose radio and fiber legs alone reach the
	// incumbent is skipped, and the rest ask the uplink's tree for an ISL leg
	// within what the incumbent leaves over — the tree then settles no
	// further than that, instead of out to downlink satellites on the other
	// half of the shell that no path would ever use. The budget is a
	// nanosecond generous, so float rounding can only admit a candidate the
	// exact comparison below then rejects, never prune one that would win.
	var (
		bestCost         = time.Duration(math.MaxInt64)
		bestISL          time.Duration
		bestUp, bestDown constellation.VisibleSat
		bestGS           *gsInfo
		bestTree         *routing.SPTree
	)
	for _, up := range ups {
		// The snapshot memoizes one shortest-path tree per uplink satellite,
		// so repeated resolves through the same serving satellite — every
		// client in a city — share what it has already settled.
		tree := snap.PathTree(up.ID)
		if tree == nil {
			continue
		}
		upDelay := orbit.PropagationDelay(up.SlantKm)
		for i := range gss {
			gi := &gss[i]
			for _, down := range gi.vis {
				legs := upDelay + orbit.PropagationDelay(down.SlantKm) + gi.fiber
				if legs >= bestCost {
					continue
				}
				budgetMs := (float64(bestCost-legs) + 1) / float64(time.Millisecond)
				islMs, ok := tree.DistWithin(routing.NodeID(down.ID), budgetMs)
				if !ok {
					continue
				}
				isl := time.Duration(islMs * float64(time.Millisecond))
				if cost := legs + isl; cost < bestCost {
					bestCost, bestISL = cost, isl
					bestUp, bestDown, bestGS, bestTree = up, down, gi, tree
				}
			}
		}
	}
	if bestTree == nil {
		return Path{}, fmt.Errorf("%w: no ISL route to PoP %s", ErrNoVisibility, pop.Name)
	}
	best := Path{
		Client:        client,
		PoP:           pop,
		GS:            stations[bestGS.station],
		UpSat:         bestUp.ID,
		DownSat:       bestDown.ID,
		UplinkDelay:   orbit.PropagationDelay(bestUp.SlantKm),
		ISLDelay:      bestISL,
		DownlinkDelay: orbit.PropagationDelay(bestDown.SlantKm),
		GSFiberDelay:  bestGS.fiber,
	}
	if best.UpSat != best.DownSat {
		best.ISLHops, _ = bestTree.HopsTo(routing.NodeID(best.DownSat))
	}
	return best, nil
}

// ResolvePathDegraded computes the subscriber path over a fault-masked
// constellation view, failing over blacked-out PoPs: the healthy country
// assignment is tried first; when it is dark or unreachable over the
// surviving topology, the remaining live PoPs are tried nearest-first from
// the client until one resolves. failover reports whether the served PoP
// differs from the healthy assignment. deadPoP marks blacked-out PoPs by
// name (nil means all alive). An error means no PoP is reachable at all —
// no ground path exists in this fault state. Telemetry observes it like
// ResolvePath.
func (m *Model) ResolvePathDegraded(client geo.Point, iso2 string, view *constellation.MaskedView, deadPoP func(string) bool) (Path, bool, error) {
	start := m.startCompute()
	p, failover, err := m.resolvePathDegraded(client, iso2, view, deadPoP)
	m.observeCompute(start, err)
	return p, failover, err
}

func (m *Model) resolvePathDegraded(client geo.Point, iso2 string, view *constellation.MaskedView, deadPoP func(string) bool) (Path, bool, error) {
	assigned, ok := m.Ground.AssignPoPForClient(iso2, client)
	if !ok {
		return Path{}, false, fmt.Errorf("lsn: no PoP assignment for country %q", iso2)
	}
	dead := func(name string) bool { return deadPoP != nil && deadPoP(name) }
	var lastErr error
	if !dead(assigned.Name) {
		p, err := m.resolvePathVia(view, client, assigned)
		if err == nil {
			return p, false, nil
		}
		lastErr = err
	}
	// Failover sweep: every other live PoP, nearest to the client first
	// (ties broken by name for determinism).
	pops := m.Ground.PoPs()
	sort.Slice(pops, func(i, j int) bool {
		di := geo.HaversineKm(client, pops[i].Loc)
		dj := geo.HaversineKm(client, pops[j].Loc)
		if di != dj {
			return di < dj
		}
		return pops[i].Name < pops[j].Name
	})
	for _, pop := range pops {
		if pop.Name == assigned.Name || dead(pop.Name) {
			continue
		}
		p, err := m.resolvePathVia(view, client, pop)
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
