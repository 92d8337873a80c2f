package lifecycle

import (
	"fmt"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/routing"
)

// Topology prices ISL paths from a seed satellite. Satisfied by
// *constellation.Snapshot (healthy) and *constellation.MaskedView (fault-
// masked) — the same duality the serving path uses, so a purge flood under
// faults automatically routes around dead satellites and links and leaves
// partitioned satellites unreached.
type Topology interface {
	PathTree(constellation.SatID) *routing.SPTree
}

// NeverReceived marks a satellite a flood never reached.
const NeverReceived = time.Duration(-1)

// FloodReceipts models a purge flood injected at the seed satellite at time
// at: every satellite's receipt epoch is the first-arrival time of the
// flood, which over an ISL broadcast equals the shortest-path delay from
// the seed (propagation plus perHopMs switching per hop), plus the uplink
// delay of getting the purge from the ground into the seed. Satellites the
// topology cannot reach from the seed get NeverReceived.
//
// The computation is a pure function of the topology and the seed — no
// randomness — so flood ordering is identical across worker counts by
// construction.
func FloodReceipts(topo Topology, n int, seed constellation.SatID, at time.Duration, perHopMs, uplinkMs float64) (receipts []time.Duration, reached int) {
	receipts = make([]time.Duration, n)
	tree := topo.PathTree(seed)
	for i := range receipts {
		if tree == nil {
			receipts[i] = NeverReceived
			continue
		}
		node := routing.NodeID(i)
		if !tree.Reachable(node) {
			receipts[i] = NeverReceived
			continue
		}
		hops, _ := tree.HopsTo(node)
		delayMs := uplinkMs + tree.Dist(node) + float64(hops)*perHopMs
		receipts[i] = at + time.Duration(delayMs*float64(time.Millisecond))
		reached++
	}
	return receipts, reached
}

// PurgeResult summarizes one issued purge.
type PurgeResult struct {
	Object     content.ID
	NewVersion int64
	Seed       constellation.SatID
	IssuedAt   time.Duration
	// Reached counts satellites the flood arrived at; Total is the fleet.
	Reached int
	Total   int
	// ConvergedAt is the last finite receipt epoch — when the whole
	// reachable fleet agrees. Equal to IssuedAt when nothing was reached.
	ConvergedAt time.Duration
	// Receipts holds every satellite's receipt epoch (NeverReceived for
	// satellites the flood could not reach).
	Receipts []time.Duration
}

// Window returns the purge's inconsistency window: how long after issuance
// some reachable satellite could still serve the superseded version.
func (r PurgeResult) Window() time.Duration { return r.ConvergedAt - r.IssuedAt }

// IssuePurge bumps the object's authoritative version and floods the purge
// from the seed satellite across the given topology at time at. The
// returned result carries the full receipt vector for inconsistency-window
// analysis; the manager retains it to answer KnownVersion.
func (m *Manager) IssuePurge(obj content.ID, topo Topology, seed constellation.SatID, at time.Duration, perHopMs, uplinkMs float64) (PurgeResult, error) {
	if topo == nil {
		return PurgeResult{}, fmt.Errorf("lifecycle: purge needs a topology")
	}
	if int(seed) < 0 || int(seed) >= m.numSats {
		return PurgeResult{}, fmt.Errorf("lifecycle: purge seed %d out of range [0,%d)", seed, m.numSats)
	}
	receipts, reached := FloodReceipts(topo, m.numSats, seed, at, perHopMs, uplinkMs)
	res := PurgeResult{
		Object:      obj,
		Seed:        seed,
		IssuedAt:    at,
		Reached:     reached,
		Total:       m.numSats,
		ConvergedAt: at,
		Receipts:    receipts,
	}
	for _, r := range receipts {
		if r > res.ConvergedAt {
			res.ConvergedAt = r
		}
	}

	m.mu.Lock()
	v := m.latestLocked(obj) + 1
	m.versions[obj] = v
	m.purges[obj] = append(m.purges[obj], purgeWave{version: v, issuedAt: at, receipts: receipts})
	m.mu.Unlock()
	m.active.Store(true)

	res.NewVersion = v
	return res, nil
}

// cellDegrees is the coalescing cell size: requests from the same ~10°
// lat/lon cell for the same object version share one origin fetch. 10° is
// roughly the footprint a handful of adjacent satellites serve, matching
// the ISSUE's "one ground bounce per cell" framing.
const cellDegrees = 10.0

// Cell quantizes a ground point into the coalescing cell grid. Longitude
// wraps (200° is −160°); latitude clamps to the poles' rows.
func Cell(p geo.Point) int {
	row := int((p.LatDeg + 90) / cellDegrees)
	col := int((geo.NormalizeLonDeg(p.LonDeg) + 180) / cellDegrees)
	maxRow := int(180/cellDegrees) - 1
	maxCol := int(360/cellDegrees) - 1
	if row < 0 {
		row = 0
	} else if row > maxRow {
		row = maxRow
	}
	if col < 0 {
		col = 0
	} else if col > maxCol {
		col = maxCol
	}
	return row*int(360/cellDegrees) + col
}

// FlightKey is the single-flight coalescing key: concurrent origin fetches
// for the same object version from the same cell collapse into one.
type FlightKey struct {
	Object  content.ID
	Version int64
	Cell    int
}
