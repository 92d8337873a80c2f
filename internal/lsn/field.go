package lsn

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/orbit"
	"spacecdn/internal/routing"
	"spacecdn/internal/terrestrial"
)

// popField is one PoP's reverse field over one topology: a lazy multi-source
// shortest-path tree (routing.SPTreeFromSources) whose sources are the
// satellites visible from each of the PoP's covered stations, each starting
// at its downlink delay plus the station's fiber delay to the PoP, in ms. A
// satellite's distance in it is therefore the cheapest rest of a ground
// path from that satellite: ISL hops, a downlink and the fiber. Every
// client of the PoP shares the field, which settles only as far as their
// queries reach.
type popField struct {
	tree     *routing.SPTree
	stations []groundseg.GroundStation // the PoP's, as the catalog lists them
	downs    []fieldDown               // by satellite, then rank
	isDown   routing.Bitset            // the satellites in downs
}

// fieldDown is one (covered station, visible satellite) pair: a downlink a
// ground path can end on.
type fieldDown struct {
	sat     constellation.SatID
	rank    int32 // position in (station, elevation) enumeration order
	station int32 // index into popField.stations
	delay   time.Duration
	fiber   time.Duration
}

// firstDown returns the index of sat's first entry in downs, or len(downs).
func (f *popField) firstDown(sat constellation.SatID) int {
	return sort.Search(len(f.downs), func(i int) bool { return f.downs[i].sat >= sat })
}

// fieldFor returns the PoP's field over topo. Where topo names a snapshot
// it is memoized in the slot of the PoP's location, keyed by (model, PoP,
// fault epoch), and published like a ground path: racing first callers each
// build one and all adopt the winner's, so they share its settling. The slot
// dies with the snapshot's generation, so a sweep advance never serves a
// field of an earlier step. Without a snapshot, or on one whose memo is
// full, the call gets a field of its own. Errors are not memoized.
func (m *Model) fieldFor(topo groundTopo, pop groundseg.PoP) (*popField, error) {
	var slot *atomic.Pointer[any]
	if topo.snap != nil {
		slot = topo.snap.PointSlot(pop.Loc)
	}
	if slot != nil {
		if list, i := m.find(slot.Load(), pop.Name, topo.epoch, true); i >= 0 {
			return list[i].field, nil
		}
	}
	f, err := m.newField(topo, pop)
	if err != nil || slot == nil {
		return f, err
	}
	return m.publish(slot, groundEntry{model: m, key: pop.Name, epoch: topo.epoch, field: f}).field, nil
}

// newField builds the PoP's field over topo; nothing is settled yet.
func (m *Model) newField(topo topology, pop groundseg.PoP) (*popField, error) {
	stations := m.Ground.StationsForPoP(pop.Name)
	if len(stations) == 0 {
		return nil, fmt.Errorf("lsn: PoP %s has no ground stations", pop.Name)
	}
	f := &popField{stations: stations}
	for i := range stations {
		vis := topo.VisibleShared(stations[i].Loc)
		fiber := terrestrial.FiberDelay(geo.HaversineKm(stations[i].Loc, pop.Loc) * 1.4)
		for _, down := range vis {
			f.downs = append(f.downs, fieldDown{
				sat:     down.ID,
				rank:    int32(len(f.downs)),
				station: int32(i),
				delay:   orbit.PropagationDelay(down.SlantKm),
				fiber:   fiber,
			})
		}
	}
	if len(f.downs) == 0 {
		return nil, fmt.Errorf("%w: no station of PoP %s has coverage", ErrNoVisibility, pop.Name)
	}
	g := topo.ISLGraph()
	srcs := make([]routing.NodeID, len(f.downs))
	d0 := make([]float64, len(f.downs))
	f.isDown = routing.NewBitset(g.Len())
	for i, d := range f.downs {
		srcs[i] = routing.NodeID(d.sat)
		d0[i] = float64(d.delay+d.fiber) / float64(time.Millisecond)
		f.isDown.Set(int(d.sat))
	}
	f.tree = g.SPTreeFromSources(srcs, d0)
	if f.tree == nil {
		return nil, fmt.Errorf("%w: no ISL route to PoP %s", ErrNoVisibility, pop.Name)
	}
	slices.SortFunc(f.downs, func(a, b fieldDown) int {
		return cmp.Or(cmp.Compare(a.sat, b.sat), cmp.Compare(a.rank, b.rank))
	})
	return f, nil
}
