// Package sim is the public facade of the SpaceCDN simulator. The
// implementation lives in internal packages (one per subsystem — see
// DESIGN.md); this package re-exports the types and operations a downstream
// user needs to build LEO-CDN studies without reaching into internal paths:
//
//	env, _ := sim.NewEnvironment()              // constellation + ground + CDN + models
//	sys, _ := sim.DeploySpaceCDN(env, sim.DefaultSpaceCDNConfig())
//	res, _ := sys.Resolve(client, "MZ", object, env.Snapshot(0), rng)
//
// res.Source is one of SourceOverhead, SourceISL and SourceGround; a failed
// resolution matches ErrNoVisibleSatellite, ErrObjectNotInSpace or
// ErrNoGroundPath under errors.Is. To regenerate the paper's evaluation:
//
//	suite, _ := sim.NewSuite(false, 42)
//	rows, _ := suite.Table1()
package sim

import (
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/experiments"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/measure"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// Geography.
type (
	// Point is a geographic coordinate (degrees).
	Point = geo.Point
	// City is an embedded world-city record.
	City = geo.City
)

// CityByName resolves a city ("Maputo" or "Maputo, MZ").
func CityByName(name string) (City, bool) { return geo.CityByName(name) }

// Constellation is the satellite fleet.
type Constellation = constellation.Constellation

// Ground segment and access network.
type (
	// GroundCatalog holds PoPs, ground stations and country assignments.
	GroundCatalog = groundseg.Catalog
	// GroundOption customizes a GroundCatalog (expansion studies).
	GroundOption = groundseg.Option
	// AccessModel is the LSN (Starlink-equivalent) access-path model.
	AccessModel = lsn.Model
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

// SpaceCDN — the paper's contribution.
type (
	// SpaceCDN is a deployed satellite CDN.
	SpaceCDN = spacecdn.System
	// SpaceCDNConfig parameterizes it.
	SpaceCDNConfig = spacecdn.Config
	// Object is a cacheable content object.
	Object = content.Object
	// Resolution describes how a request was served.
	Resolution = spacecdn.Resolution
	// Placement decides replica locations.
	Placement = spacecdn.Placement
	// PerPlaneSpacing places k evenly spaced replicas per plane.
	PerPlaneSpacing = spacecdn.PerPlaneSpacing
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

// Telemetry bundles a metrics registry with a trace sink; attach one to a
// SpaceCDN (or an experiment Suite) to observe the resolve path.
type Telemetry = telemetry.Telemetry

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

// Experiments.
type (
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// Rand is the deterministic random source used throughout.
	Rand = stats.Rand
)

// NewSuite builds an experiment suite (fast trades samples for speed).
func NewSuite(fast bool, seed int64) (*Suite, error) { return experiments.NewSuite(fast, seed) }

// NewRand returns a deterministic random stream.
func NewRand(seed int64) *Rand { return stats.NewRand(seed) }
