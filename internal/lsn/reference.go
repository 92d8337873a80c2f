package lsn

import (
	"fmt"
	"math"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
	"spacecdn/internal/terrestrial"
)

// ResolvePathReference is ResolvePath's exhaustive oracle twin over a
// healthy snapshot or a masked view (topo is a *constellation.Snapshot or a
// *constellation.MaskedView): the client's assigned PoP, then every
// (uplink, station, downlink) triple priced in full from one complete
// Dijkstra per uplink, the first cheapest kept. It reads and writes no memo
// and shares no search with ResolvePath, which must return the identical
// Path and fail where it fails. It is kept for tests and is far slower.
func (m *Model) ResolvePathReference(client geo.Point, iso2 string, topo topology) (Path, error) {
	pop, ok := m.Ground.AssignPoPForClient(iso2, client)
	if !ok {
		return Path{}, fmt.Errorf("lsn: no PoP assignment for country %q", iso2)
	}
	return m.resolvePathViaReference(topo, client, pop)
}

// resolvePathViaReference is the ground stage as an exhaustive double loop
// to one fixed PoP; resolvePathVia searches the same enumeration. It fails
// with resolvePathVia's errors, checked in the same order.
func (m *Model) resolvePathViaReference(topo topology, client geo.Point, pop groundseg.PoP) (Path, error) {
	ups := topo.VisibleShared(client)
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
	covered := false
	for _, gs := range stations {
		covered = covered || len(topo.VisibleShared(gs.Loc)) > 0
	}
	if !covered {
		return Path{}, fmt.Errorf("%w: no station of PoP %s has coverage", ErrNoVisibility, pop.Name)
	}
	g := topo.ISLGraph()
	best := Path{}
	bestCost := time.Duration(math.MaxInt64)
	found := false
	for _, up := range ups {
		dist := g.ShortestPathsFrom(routing.NodeID(up.ID))
		for _, gs := range stations {
			for _, down := range topo.VisibleShared(gs.Loc) {
				islMs := dist[down.ID]
				if math.IsInf(islMs, 1) {
					continue
				}
				p := Path{
					Client:        client,
					PoP:           pop,
					GS:            gs,
					UpSat:         up.ID,
					DownSat:       down.ID,
					UplinkDelay:   orbit.PropagationDelay(up.SlantKm),
					ISLDelay:      time.Duration(islMs * float64(time.Millisecond)),
					DownlinkDelay: orbit.PropagationDelay(down.SlantKm),
					GSFiberDelay:  terrestrial.FiberDelay(geo.HaversineKm(gs.Loc, pop.Loc) * 1.4),
				}
				if cost := p.OneWayPropagation(); cost < bestCost {
					bestCost = cost
					best = p
					found = true
				}
			}
		}
	}
	if !found {
		return Path{}, fmt.Errorf("%w: no ISL route to PoP %s", ErrNoVisibility, pop.Name)
	}
	if best.UpSat != best.DownSat {
		route, _ := g.ShortestPath(routing.NodeID(best.UpSat), routing.NodeID(best.DownSat))
		best.ISLHops = route.Hops()
	}
	return best, nil
}
