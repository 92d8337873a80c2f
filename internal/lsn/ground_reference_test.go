package lsn

import (
	"math/rand"
	"testing"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/geo"
	"spacecdn/internal/routing"
)

// degraded returns a view of snap with a scattering of dead satellites and
// failed links, the same for every snapshot it is given.
func degraded(snap *constellation.Snapshot) *constellation.MaskedView {
	rng := rand.New(rand.NewSource(99))
	n := testConst.Total()
	dead := routing.NewBitset(n)
	for i := 0; i < n/12; i++ {
		dead.Set(rng.Intn(n))
	}
	var links []constellation.LinkID
	g := snap.ISLGraph()
	for i := 0; i < n/10; i++ {
		a := routing.NodeID(rng.Intn(n))
		if nb := g.Neighbors(a); len(nb) > 0 {
			links = append(links, constellation.NormalizedLink(constellation.SatID(a), constellation.SatID(nb[rng.Intn(len(nb))].To)))
		}
	}
	return snap.Masked(1, dead, links)
}

// Every dataset city, at instants spread over one orbit, on the healthy
// shell and on a degraded one: the pruned ground stage and the exhaustive one
// agree on every field of the Path. Each side prices off its own snapshot, so
// neither sees trees the other has already settled.
func TestResolvePathViaMatchesExhaustive(t *testing.T) {
	m := testModel()
	period := testConst.Elements(0).Period()
	const instants = 8
	resolved, unserved := 0, 0
	for k := 0; k < instants; k++ {
		at := time.Duration(k)*period/instants + 7*time.Second
		got, want := testConst.Snapshot(at), testConst.Snapshot(at)
		for _, topo := range []struct {
			name string
			got  groundTopo
			want topology
		}{
			{"healthy", healthyTopo(got), want},
			{"degraded", groundTopo{degraded(got), got, 1}, degraded(want)},
		} {
			for _, city := range geo.Cities() {
				pop, ok := m.Ground.AssignPoPForClient(city.Country, city.Loc)
				if !ok {
					t.Fatalf("%s: no PoP", city.Name)
				}
				p, err := m.resolvePathVia(topo.got, city.Loc, pop)
				ref, refErr := m.resolvePathViaReference(topo.want, city.Loc, pop)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s %s t=%v: err %v, reference err %v", topo.name, city.Name, at, err, refErr)
				}
				if err != nil {
					unserved++
					continue
				}
				resolved++
				if p != ref {
					t.Fatalf("%s %s t=%v:\n got %+v\nwant %+v", topo.name, city.Name, at, p, ref)
				}
			}
		}
	}
	if resolved < instants*len(geo.Cities()) {
		t.Fatalf("only %d paths resolved (%d unserved): the comparison is not exercising the ground stage", resolved, unserved)
	}
}

// tieTopology is a hand-built sky: two uplink candidates over the client, two
// downlink candidates over every ground station, all at the same slant range,
// joined by an ISL graph the test controls.
type tieTopology struct {
	client geo.Point
	g      *routing.Graph
}

func (tt tieTopology) VisibleShared(p geo.Point) []constellation.VisibleSat {
	if p == tt.client {
		return []constellation.VisibleSat{{ID: 0, SlantKm: 600}, {ID: 1, SlantKm: 600}}
	}
	return []constellation.VisibleSat{{ID: 2, SlantKm: 600}, {ID: 3, SlantKm: 600}}
}

func (tt tieTopology) ISLGraph() *routing.Graph { return tt.g }

func TestResolvePathViaKeepsEarlierCandidateOnTies(t *testing.T) {
	m := testModel()
	// A client no ground station shares its coordinates with.
	client := mustCity(t, "Madrid, ES").Loc
	client.LatDeg += 0.25
	pop, _ := m.Ground.AssignPoPForClient("ES", client)
	// ISL weights in ms for the edges 0-2, 0-3, 1-2, 1-3. Path delays are
	// whole nanoseconds, so weights that differ below a nanosecond tie too.
	for _, tc := range []struct {
		name         string
		w            [4]float64
		wantUp, down constellation.SatID
	}{
		{"all equal", [4]float64{1, 1, 1, 1}, 0, 2},
		{"later cheaper below a nanosecond", [4]float64{1.0000004, 1.0000001, 1.0000002, 1.0000003}, 0, 2},
		{"later dearer below a nanosecond", [4]float64{1.0000001, 1.0000004, 1.0000003, 1.0000002}, 0, 2},
		{"later cheaper by one nanosecond", [4]float64{1.0000025, 1.0000015, 1.0000015, 1.0000015}, 0, 3},
		{"second uplink cheaper by one nanosecond", [4]float64{1.0000025, 1.0000025, 1.0000015, 1.0000015}, 1, 2},
	} {
		g := routing.NewGraph(4)
		g.AddUndirected(0, 2, tc.w[0])
		g.AddUndirected(0, 3, tc.w[1])
		g.AddUndirected(1, 2, tc.w[2])
		g.AddUndirected(1, 3, tc.w[3])
		topo := tieTopology{client: client, g: g}
		p, err := m.resolvePathVia(groundTopo{topology: topo}, client, pop)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref, err := m.resolvePathViaReference(topo, client, pop)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if p != ref {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, p, ref)
		}
		if p.UpSat != tc.wantUp || p.DownSat != tc.down || p.ISLHops != 1 {
			t.Errorf("%s: won by up %d down %d (%d hops), want up %d down %d", tc.name,
				p.UpSat, p.DownSat, p.ISLHops, tc.wantUp, tc.down)
		}
	}
}
