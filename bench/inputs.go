package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/traffic"
)

// Inputs are generated from the seed alone; the program under test receives
// only the generated requests.

// Placement tiers, as experiments.Traffic places them: the hottest objects
// ride four replicas per plane, the next tier one.
const (
	hotTier  = 24
	warmTier = 96
)

// scale sizes one run. The full scale is what BENCHMARK.json measures; the
// smoke scale exists so `go test` can drive every code path in seconds.
type scale struct {
	StreamLen    int           // requests of the traffic day materialised for the serve workloads
	SimSteps     int           // traffic-day steps sim-day resolves at RefSeconds
	HashSteps    int           // leading sim-day steps re-run at one worker for the determinism check
	TraceReqs    int           // requests per traced pass
	ProbeHorizon time.Duration // sim span probed for coverage gaps
	MicroSteps   int           // consecutive 15 s steps for the epoch-build timings
	RefSeconds   float64       // measured time at which sim-day resolves all SimSteps
	// SetupBudget keeps timing set-ups past setupRepeats until this much time
	// has gone into them, so a set-up of a few milliseconds (sim-day) is a
	// median of dozens and not of five.
	SetupBudget time.Duration
}

var (
	fullScale  = scale{StreamLen: 400_000, SimSteps: 288, HashSteps: 24, TraceReqs: 20_000, ProbeHorizon: 24 * time.Hour, MicroSteps: 200, RefSeconds: 20, SetupBudget: time.Second}
	smokeScale = scale{StreamLen: 2_000, SimSteps: 6, HashSteps: 2, TraceReqs: 200, ProbeHorizon: 30 * time.Minute, MicroSteps: 10, RefSeconds: 1.5, SetupBudget: 50 * time.Millisecond}
)

// trafficConfig is the production day at the given seed.
func trafficConfig(seed int64, workers int) traffic.Config {
	cfg := traffic.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// classOf gives a catalog object its content class as a pure function of its
// catalog slot k in "t-%05d". The engine emits all-static objects, which
// would leave every TTL path of the lifecycle layer dead.
func classOf(id content.ID) content.Class {
	k, err := strconv.Atoi(string(id[2:]))
	if err != nil {
		return content.ClassStatic
	}
	switch k % 20 {
	case 0:
		return content.ClassLiveSegment
	case 1, 2:
		return content.ClassAPI
	case 3, 4, 5:
		return content.ClassNews
	}
	return content.ClassStatic
}

// uncoveredCells probes every Starlink city at 15 s instants across the
// horizon and returns the ones with a visibility gap. Shell 1 covers up to
// about 61.5°N, so Reykjavik is never served and Anchorage only two thirds
// of the time; a terminal without a satellite in view cannot send a request
// at all, so those cells are left out of the stream and no operation of the
// benchmark fails by construction. The probe depends on the constellation
// only, never on the seed or on a result.
func uncoveredCells(c *constellation.Constellation, horizon time.Duration) map[geo.Point]bool {
	var cities []geo.City
	for _, city := range geo.Cities() {
		if country, ok := geo.CountryByISO(city.Country); ok && country.Starlink {
			cities = append(cities, city)
		}
	}
	const step = 15 * time.Second
	out := make(map[geo.Point]bool)
	cur := c.Sweep(0, step)
	defer cur.Close()
	for t := time.Duration(0); t <= horizon; t += step {
		snap := cur.AdvanceTo(t)
		for _, city := range cities {
			if out[city.Loc] {
				continue
			}
			if _, ok := snap.BestVisible(city.Loc); !ok {
				out[city.Loc] = true
			}
		}
	}
	return out
}

// keepCovered compacts a batch in place, dropping requests from uncovered
// cells.
func keepCovered(reqs []spacecdn.Request, uncovered map[geo.Point]bool) []spacecdn.Request {
	if len(uncovered) == 0 {
		return reqs
	}
	kept := reqs[:0]
	for _, r := range reqs {
		if !uncovered[r.Client] {
			kept = append(kept, r)
		}
	}
	return kept
}

// inputs is everything a serve workload is driven with.
type inputs struct {
	Catalog []content.Object   // every object, classes assigned
	Top     []content.Object   // placement tiers: the stream's most requested objects, hottest first
	Stream  []spacecdn.Request // first StreamLen covered requests of the day
	// HTTP holds the pre-encoded GET for Stream[i] at HTTP[HTTPOff[i]:HTTPOff[i+1]];
	// nil unless the workload speaks HTTP.
	HTTP    []byte
	HTTPOff []uint32

	GenWall   time.Duration // time spent inside NextBatch
	GenReqs   int           // requests NextBatch produced in that time
	PeakBatch int
}

// generateInputs materialises the stream: the first n requests of the
// traffic day from covered cells.
func generateInputs(seed int64, n int, uncovered map[geo.Point]bool, workers int, encodeHTTP bool) (*inputs, error) {
	cfg := trafficConfig(seed, workers)
	gen, err := traffic.New(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{Catalog: gen.Top(cfg.CatalogSize)}
	byID := make(map[content.ID]int, len(in.Catalog))
	for i := range in.Catalog {
		in.Catalog[i].Class = classOf(in.Catalog[i].ID)
		byID[in.Catalog[i].ID] = i
	}
	demand := make([]int, len(in.Catalog))
	in.Stream = make([]spacecdn.Request, 0, n)
	for len(in.Stream) < n {
		t0 := time.Now()
		reqs, _, ok := gen.NextBatch()
		in.GenWall += time.Since(t0)
		if !ok {
			break
		}
		in.GenReqs += len(reqs)
		if len(reqs) > in.PeakBatch {
			in.PeakBatch = len(reqs)
		}
		for _, r := range keepCovered(reqs, uncovered) {
			if len(in.Stream) == n {
				break
			}
			r.Obj.Class = classOf(r.Obj.ID)
			in.Stream = append(in.Stream, r)
			demand[byID[r.Obj.ID]]++
		}
	}
	if len(in.Stream) == 0 {
		return nil, fmt.Errorf("traffic day at seed %d produced no covered request", seed)
	}
	in.Top = topByDemand(in.Catalog, demand, hotTier+warmTier)
	if encodeHTTP {
		in.HTTP = make([]byte, 0, 96*len(in.Stream))
		in.HTTPOff = make([]uint32, 0, len(in.Stream)+1)
		for _, r := range in.Stream {
			in.HTTPOff = append(in.HTTPOff, uint32(len(in.HTTP)))
			in.HTTP = appendHTTPRequest(in.HTTP, r)
		}
		in.HTTPOff = append(in.HTTPOff, uint32(len(in.HTTP)))
	}
	return in, nil
}

// topByDemand returns the n most requested objects, hottest first. A serve
// workload places once, so it places what a popularity-driven control plane
// would have converged to for this stream; the generator's rank table at the
// start of the day goes stale at the first release, and whether a release
// falls inside the stream depends on the seed (ground share 51 % or 63 %).
func topByDemand(catalog []content.Object, demand []int, n int) []content.Object {
	order := make([]int, len(catalog))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demand[order[a]] > demand[order[b]] })
	if n > len(order) {
		n = len(order)
	}
	top := make([]content.Object, n)
	for i := range top {
		top[i] = catalog[order[i]]
	}
	return top
}

// appendHTTPRequest encodes the GET the daemon's /resolve handler parses.
// Coordinates are written with every digit so the handler resolves the same
// point the in-process workloads pass.
func appendHTTPRequest(b []byte, r spacecdn.Request) []byte {
	b = append(b, "GET /resolve?lat="...)
	b = strconv.AppendFloat(b, r.Client.LatDeg, 'f', -1, 64)
	b = append(b, "&lon="...)
	b = strconv.AppendFloat(b, r.Client.LonDeg, 'f', -1, 64)
	b = append(b, "&iso2="...)
	b = append(b, r.ISO2...)
	b = append(b, "&obj="...)
	b = append(b, r.Obj.ID...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	return b
}
