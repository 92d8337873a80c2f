// Package sim is the public facade of the SpaceCDN simulator. The
// implementation lives in internal packages (one per subsystem — see
// DESIGN.md); this package re-exports the types and operations a downstream
// user needs to build LEO-CDN studies without reaching into internal paths:
//
//	env, _ := sim.NewEnvironment()              // constellation + ground + CDN + models
//	sys, _ := sim.DeploySpaceCDN(env, sim.DefaultSpaceCDNConfig())
//	res, _ := sys.Resolve(client, "MZ", object, env.Snapshot(0), rng)
//
// and to regenerate the paper's evaluation:
//
//	suite, _ := sim.NewSuite(false, 42)
//	rows, _ := suite.Table1()
package sim

import (
	"spacecdn/internal/cdn"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/experiments"
	"spacecdn/internal/faults"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/lsn"
	"spacecdn/internal/measure"
	"spacecdn/internal/orbit"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
	"spacecdn/internal/terrestrial"
)

// Geography.
type (
	// Point is a geographic coordinate (degrees).
	Point = geo.Point
	// City is an embedded world-city record.
	City = geo.City
	// Country is an embedded country record.
	Country = geo.Country
	// Region is a coarse continental region.
	Region = geo.Region
)

// NewPoint constructs a normalized geographic point.
func NewPoint(latDeg, lonDeg float64) Point { return geo.NewPoint(latDeg, lonDeg) }

// CityByName resolves a city ("Maputo" or "Maputo, MZ").
func CityByName(name string) (City, bool) { return geo.CityByName(name) }

// Cities returns the embedded world-city dataset.
func Cities() []City { return geo.Cities() }

// Countries returns the embedded country dataset.
func Countries() []Country { return geo.Countries() }

// Orbits and constellation.
type (
	// Walker describes a Walker-delta constellation.
	Walker = orbit.Walker
	// Constellation is the satellite fleet.
	Constellation = constellation.Constellation
	// Snapshot is the fleet's geometry frozen at one instant.
	Snapshot = constellation.Snapshot
	// SatID identifies a satellite.
	SatID = constellation.SatID
	// ConstellationConfig configures the fleet and link geometry.
	ConstellationConfig = constellation.Config
	// Cursor walks snapshots forward in time; Constellation.Sweep returns the
	// incremental engine, Constellation.SweepScan the rebuild-per-step
	// reference with identical outputs.
	Cursor = constellation.Cursor
)

// StarlinkShell1 returns the paper's simulated shell: 72 planes x 22
// satellites at 550 km, 53 degrees.
func StarlinkShell1() Walker { return orbit.StarlinkShell1() }

// NewConstellation builds a constellation.
func NewConstellation(cfg ConstellationConfig) (*Constellation, error) {
	return constellation.New(cfg)
}

// DefaultConstellationConfig returns Shell 1 with a 25-degree mask and
// full +grid ISLs.
func DefaultConstellationConfig() ConstellationConfig { return constellation.DefaultConfig() }

// Ground segment and access network.
type (
	// GroundCatalog holds PoPs, ground stations and country assignments.
	GroundCatalog = groundseg.Catalog
	// GroundOption customizes a GroundCatalog (expansion studies).
	GroundOption = groundseg.Option
	// PoP is a point of presence.
	PoP = groundseg.PoP
	// AccessModel is the LSN (Starlink-equivalent) access-path model.
	AccessModel = lsn.Model
	// AccessPath is a resolved subscriber path.
	AccessPath = lsn.Path
)

// NewGroundCatalog builds the embedded 22-PoP ground segment, optionally
// expanded.
func NewGroundCatalog(opts ...GroundOption) *GroundCatalog { return groundseg.NewCatalog(opts...) }

// WithPoP deploys an additional PoP in the named city.
func WithPoP(name, cityName string) GroundOption { return groundseg.WithPoP(name, cityName) }

// WithAssignment overrides a country's serving PoP.
func WithAssignment(iso2, popName string) GroundOption {
	return groundseg.WithAssignment(iso2, popName)
}

// NewAccessModel assembles the LSN access model over a constellation and
// ground segment.
func NewAccessModel(c *Constellation, g *GroundCatalog) *AccessModel {
	return lsn.NewModel(c, g, lsn.DefaultConfig())
}

// Content.
type (
	// Object is a cacheable content object.
	Object = content.Object
	// ObjectID identifies an object.
	ObjectID = content.ID
	// Catalog is an object catalog with popularity structure.
	Catalog = content.Catalog
	// CatalogConfig controls synthetic catalog generation.
	CatalogConfig = content.CatalogConfig
	// Video is a DASH-segmented video.
	Video = content.Video
)

// GenerateCatalog builds a deterministic synthetic catalog.
func GenerateCatalog(cfg CatalogConfig) (*Catalog, error) { return content.GenerateCatalog(cfg) }

// DefaultCatalogConfig returns a 10k-object web-plus-video mix.
func DefaultCatalogConfig() CatalogConfig { return content.DefaultCatalogConfig() }

// SpaceCDN — the paper's contribution.
type (
	// SpaceCDN is a deployed satellite CDN.
	SpaceCDN = spacecdn.System
	// SpaceCDNConfig parameterizes it.
	SpaceCDNConfig = spacecdn.Config
	// Resolution describes how a request was served.
	Resolution = spacecdn.Resolution
	// Placement decides replica locations.
	Placement = spacecdn.Placement
	// PerPlaneSpacing places k evenly spaced replicas per plane.
	PerPlaneSpacing = spacecdn.PerPlaneSpacing
	// DutyCycleConfig enables fractional caching.
	DutyCycleConfig = spacecdn.DutyCycleConfig
	// StripePlan schedules a video across successive overhead satellites.
	StripePlan = spacecdn.StripePlan
	// BubbleManager maintains geographic content bubbles.
	BubbleManager = spacecdn.BubbleManager
	// VMConfig parameterizes replicated space VMs.
	VMConfig = spacecdn.VMConfig
)

// Resolution sources (paper Fig. 6).
const (
	SourceOverhead = spacecdn.SourceOverhead
	SourceISL      = spacecdn.SourceISL
	SourceGround   = spacecdn.SourceGround
)

// DefaultSpaceCDNConfig mirrors the paper's simulation setup.
func DefaultSpaceCDNConfig() SpaceCDNConfig { return spacecdn.DefaultConfig() }

// Environment bundles every model (constellation, ground segment, access,
// terrestrial baseline, CDN) with memoized snapshots and paths.
type Environment = measure.Environment

// NewEnvironment assembles the default simulation environment.
func NewEnvironment() (*Environment, error) { return measure.NewEnvironment() }

// DeploySpaceCDN deploys a SpaceCDN over an environment's constellation,
// with the environment's access model as the ground fallback.
func DeploySpaceCDN(env *Environment, cfg SpaceCDNConfig) (*SpaceCDN, error) {
	return spacecdn.NewSystem(cfg, env.Constellation, env.LSN)
}

// Apply stores an object on every satellite a placement selects.
func Apply(s *SpaceCDN, pl Placement, o Object) (int, error) { return spacecdn.Apply(s, pl, o) }

// The three ways a resolution fails; match them with errors.Is.
var (
	// ErrNoVisibleSatellite: no (surviving) satellite is above the client.
	ErrNoVisibleSatellite = spacecdn.ErrNoVisibleSatellite
	// ErrObjectNotInSpace: no replica within the hop bound and no ground
	// fallback configured.
	ErrObjectNotInSpace = spacecdn.ErrObjectNotInSpace
	// ErrNoGroundPath: the ground stage found no path to any PoP.
	ErrNoGroundPath = spacecdn.ErrNoGroundPath
)

// Fault injection and resilience (DESIGN.md §10).
type (
	// FaultConfig parameterizes seeded fault-plan generation.
	FaultConfig = faults.Config
	// FaultPlan is an immutable set of outage windows, queryable at any
	// sim time; attach one with SpaceCDN.SetFaultPlan.
	FaultPlan = faults.Plan
	// FaultOutage is one outage window (satellite, ISL or PoP).
	FaultOutage = faults.Outage
	// FaultKind classifies what an outage takes down.
	FaultKind = faults.Kind
	// FaultStats snapshots a system's always-on degraded-mode counters.
	FaultStats = spacecdn.FaultStats
)

// Outage kinds.
const (
	FaultSatellite = faults.KindSatellite
	FaultISL       = faults.KindISL
	FaultPoP       = faults.KindPoP
)

// DefaultFaultConfig returns zero failure fractions with realistic repair
// times; set the fractions to inject faults.
func DefaultFaultConfig() FaultConfig { return faults.DefaultConfig() }

// NewFaultPlan draws a seeded fault plan over an environment's constellation
// and ground segment. Attach it with SpaceCDN.SetFaultPlan; Resolve then
// reroutes around dead hardware at times with active outages.
func NewFaultPlan(env *Environment, cfg FaultConfig) (*FaultPlan, error) {
	pops := env.Ground.PoPs()
	names := make([]string, len(pops))
	for i, p := range pops {
		names[i] = p.Name
	}
	return faults.NewPlan(cfg, env.Constellation, names)
}

// Content lifecycle: TTLs, purge broadcast, coalescing, tiered stores
// (DESIGN.md §15).
type (
	// LifecycleManager owns freshness policy, versions and the purge log;
	// attach one with SpaceCDN.SetLifecycle.
	LifecycleManager = lifecycle.Manager
	// LifecyclePolicy maps content classes to TTL ladders.
	LifecyclePolicy = lifecycle.Policy
	// ContentClass classifies an object's update behaviour (static, news,
	// live segment, API).
	ContentClass = content.Class
	// PurgeResult reports a purge flood's per-satellite receipt schedule.
	PurgeResult = lifecycle.PurgeResult
	// TierSizing sets the hot-RAM and bulk-SSD capacities for
	// SpaceCDN.UseTieredStore.
	TierSizing = spacecdn.TierSizing
	// LifecycleStats snapshots a system's always-on lifecycle counters.
	LifecycleStats = spacecdn.LifecycleStats
)

// Content classes.
const (
	ClassStatic      = content.ClassStatic
	ClassNews        = content.ClassNews
	ClassLiveSegment = content.ClassLiveSegment
	ClassAPI         = content.ClassAPI
)

// NewLifecycleManager creates a lifecycle manager for a fleet of numSats
// caches. A zero policy is inert: the system serves exactly as if no
// manager were attached.
func NewLifecycleManager(p LifecyclePolicy, numSats int) *LifecycleManager {
	return lifecycle.NewManager(p, numSats)
}

// DefaultLifecyclePolicy returns the per-class TTL ladder (static immortal,
// news 5m+5m stale, live segments 4s+2s, API 30s+30s).
func DefaultLifecyclePolicy() LifecyclePolicy { return lifecycle.DefaultPolicy() }

// Observability.
type (
	// Telemetry bundles a metrics registry with a trace sink; attach one to
	// a SpaceCDN (or an experiment Suite) to observe the resolve path.
	Telemetry = telemetry.Telemetry
	// TelemetrySnapshot is a point-in-time JSON-ready export of metrics and
	// sampled traces.
	TelemetrySnapshot = telemetry.Snapshot
	// RequestTrace decomposes one resolved request's RTT into typed spans.
	RequestTrace = telemetry.RequestTrace
)

// NewTelemetry creates a telemetry unit sampling the given fraction of
// requests into its trace ring (0 disables tracing, 1 traces everything).
func NewTelemetry(sampleRate float64) *Telemetry { return telemetry.New(sampleRate) }

// WithTelemetry attaches a fresh Telemetry to a deployed SpaceCDN and
// returns it:
//
//	tel := sim.WithTelemetry(sys, 0.01)
//	... drive traffic ...
//	tel.WriteJSON(os.Stdout)
func WithTelemetry(s *SpaceCDN, sampleRate float64) *Telemetry {
	t := telemetry.New(sampleRate)
	s.SetTelemetry(t)
	return t
}

// Serving daemon (DESIGN.md §16): a long-running HTTP front end over one
// SpaceCDN, epoch-publishing the advancing constellation under lock-free
// request goroutines.
type (
	// Server is the spacecdnd serving core.
	Server = serve.Server
	// ServeConfig parameterizes it (listen address, sweep cadence, replay
	// seed).
	ServeConfig = serve.Config
	// ServeWorkload is the standard hot/warm/cold serving workload.
	ServeWorkload = serve.Workload
	// ServeResult is one served request with its pinned epoch.
	ServeResult = serve.Result
	// ServeStats snapshots a server's serving counters.
	ServeStats = serve.Stats
	// Epoch is one published serving state: an immutable snapshot plus the
	// fault view pinned at its instant.
	Epoch = spacecdn.Epoch
)

// NewServer builds a serving daemon over a deployed SpaceCDN and publishes
// its first epoch; call Start for the sweeper and listener.
func NewServer(s *SpaceCDN, cfg ServeConfig) (*Server, error) { return serve.New(s, cfg) }

// DefaultServeConfig returns the live-daemon configuration: 100 ms sweeps,
// each advancing sim time 15 s.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// Measurements and experiments.
type (
	// SpeedTest is one synthetic AIM record.
	SpeedTest = measure.SpeedTest
	// AIMConfig controls dataset generation.
	AIMConfig = measure.AIMConfig
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// Rand is the deterministic random source used throughout.
	Rand = stats.Rand
)

// DefaultAIMConfig returns the full-resolution AIM settings.
func DefaultAIMConfig() AIMConfig { return measure.DefaultAIMConfig() }

// NewSuite builds an experiment suite (fast trades samples for speed).
func NewSuite(fast bool, seed int64) (*Suite, error) { return experiments.NewSuite(fast, seed) }

// NewRand returns a deterministic random stream.
func NewRand(seed int64) *Rand { return stats.NewRand(seed) }

// CDN is the terrestrial content delivery network substrate.
type CDN = cdn.CDN

// NewCDN deploys the terrestrial CDN substrate (exposed for baseline
// studies; Environment already contains one).
func NewCDN() (*CDN, error) {
	return cdn.New(cdn.DefaultConfig(), terrestrial.NewModel())
}
