// Package groundseg models the LEO operator's ground segment: points of
// presence (PoPs) where subscriber traffic enters the Internet, ground
// stations (GSs) that terminate the space segment, and the country-to-PoP
// assignment policy that the paper identifies as the root cause of poor CDN
// mapping for satellite subscribers.
//
// The catalog mirrors the 22 operational Starlink PoP locations shown in the
// paper's Figure 2 (as of mid-2024): nine in the United States, four in
// Latin America, five in Europe, Tokyo, Sydney, Auckland, and Lagos as the
// single African PoP. Countries without a local PoP are assigned to a remote
// one — the paper's Table 1 implies Frankfurt for most of southern/eastern
// Africa and Lagos for a few (Rwanda, Eswatini), which this table encodes.
package groundseg

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spacecdn/internal/geo"
)

// PoP is a point of presence: the carrier-grade-NAT egress where subscriber
// traffic is handed to the terrestrial Internet and where anycast "sees" the
// subscriber.
type PoP struct {
	Name    string // short code, e.g. "fra"
	City    string
	Country string // ISO2
	Loc     geo.Point
}

// GroundStation terminates satellite downlinks and forwards traffic to its
// home PoP over terrestrial fiber.
type GroundStation struct {
	Name string
	Loc  geo.Point
	PoP  string // Name of the home PoP
}

func pop(name, cityName string) PoP {
	c, ok := geo.CityByName(cityName)
	if !ok {
		panic(fmt.Sprintf("groundseg: unknown city %q", cityName))
	}
	return PoP{Name: name, City: c.Name, Country: c.Country, Loc: c.Loc}
}

// pops is the embedded 22-PoP catalog (paper Fig. 2).
var pops = []PoP{
	// United States (9)
	pop("sea", "Seattle, US"),
	pop("lax", "Los Angeles, US"),
	pop("dfw", "Dallas, US"),
	pop("den", "Denver, US"),
	pop("ord", "Chicago, US"),
	pop("iad", "Ashburn, US"),
	pop("atl", "Atlanta, US"),
	pop("nyc", "New York, US"),
	pop("mia", "Miami, US"),
	// Latin America (4)
	pop("qro", "Queretaro, MX"),
	pop("lim", "Lima, PE"),
	pop("scl", "Santiago, CL"),
	pop("gru", "Sao Paulo, BR"),
	// Europe (5)
	pop("lhr", "London, GB"),
	pop("fra", "Frankfurt, DE"),
	pop("mad", "Madrid, ES"),
	pop("mxp", "Milan, IT"),
	pop("waw", "Warsaw, PL"),
	// Asia-Pacific (3)
	pop("tyo", "Tokyo, JP"),
	pop("syd", "Sydney, AU"),
	pop("akl", "Auckland, NZ"),
	// Africa (1)
	pop("los", "Lagos, NG"),
}

// extraGS places additional ground stations away from PoP cities so that
// domestic bent-pipe paths in large well-served countries do not all land on
// a PoP rooftop. Each is homed on its nearest PoP.
var extraGS = []struct {
	name string
	lat  float64
	lon  float64
	pop  string
}{
	{"gs-kansas", 39.1, -94.6, "ord"},
	{"gs-boise", 43.6, -116.2, "sea"},
	{"gs-elpaso", 31.8, -106.4, "dfw"},
	{"gs-charlotte", 35.2, -80.8, "atl"},
	{"gs-winnipeg", 49.9, -97.1, "ord"},
	{"gs-calgary", 51.0, -114.1, "sea"},
	{"gs-hermosillo", 29.1, -110.9, "qro"},
	{"gs-cordoba-ar", -31.4, -64.2, "scl"},
	{"gs-fortaleza", -3.7, -38.5, "gru"},
	{"gs-manchester", 53.5, -2.2, "lhr"},
	{"gs-toulouse", 43.6, 1.4, "mad"},
	{"gs-hamburg", 53.6, 10.0, "fra"},
	{"gs-turin", 45.1, 7.7, "mxp"},
	{"gs-gdansk", 54.4, 18.6, "waw"},
	{"gs-sendai", 38.3, 140.9, "tyo"},
	{"gs-brisbane", -27.5, 153.0, "syd"},
	{"gs-perth", -31.9, 115.9, "syd"},
	{"gs-christchurch", -43.5, 172.6, "akl"},
	{"gs-abuja", 9.1, 7.4, "los"},
}

// countryPoP assigns countries without their own obvious nearest PoP. It
// encodes the paper's observed routing: most of sub-Saharan Africa lands in
// Frankfurt; Rwanda and Eswatini land in Lagos (their Table 1 distances match
// the Lagos geodesic); the Caribbean lands in Ashburn (Haiti's 2,063 km
// matches Ashburn, not Miami); Southeast Asia lands in Sydney or Tokyo.
var countryPoP = map[string]string{
	// Africa
	"NG": "los",
	"RW": "los",
	"SZ": "los",
	"MZ": "fra",
	"KE": "fra",
	"ZM": "fra",
	"ZW": "fra",
	"BW": "fra",
	"MG": "fra",
	"MW": "fra",

	// Europe
	"GB": "lhr", "IE": "lhr", "FR": "lhr", "BE": "lhr", "NL": "lhr", "IS": "lhr",
	"DE": "fra", "AT": "fra", "CH": "fra", "CZ": "fra",
	"DK": "fra", "SE": "fra", "NO": "fra", "FI": "fra",
	"LT": "fra", "LV": "fra", "EE": "fra", "CY": "fra", "GR": "fra",
	"PL": "waw", "UA": "waw", "HU": "waw", "RO": "waw", "BG": "waw", "HR": "waw",
	"ES": "mad", "PT": "mad",
	"IT": "mxp",

	// Americas
	"MX": "qro", "GT": "qro", "CR": "qro", "PA": "qro",
	"HT": "iad", "PR": "iad", "DO": "iad", "JM": "iad",
	"PE": "lim", "CO": "lim", "EC": "lim",
	"CL": "scl", "BO": "scl",
	"BR": "gru", "AR": "gru", "PY": "gru", "UY": "gru",

	// Asia-Pacific
	"JP": "tyo", "MN": "tyo",
	"MY": "syd", "ID": "syd", "PH": "syd",
	"AU": "syd", "PG": "syd",
	"NZ": "akl", "FJ": "akl",
}

// Catalog bundles the ground segment and answers assignment queries. It is
// immutable after construction and safe for concurrent use; construct with
// NewCatalog, optionally extended with WithPoP/WithAssignment options (the
// paper's §5 discusses how ground-segment expansion changes the picture).
type Catalog struct {
	pops     []PoP
	popIdx   map[string]int
	stations []GroundStation
	byPoP    map[string][]GroundStation // PoP name -> its stations, in catalog order
	assign   map[string]string          // ISO2 -> PoP name
}

// Option customizes a Catalog under construction.
type Option func(*Catalog)

// WithPoP deploys an additional PoP (with a colocated ground station) in the
// named city — modelling ground-segment expansion.
func WithPoP(name, cityName string) Option {
	return func(c *Catalog) {
		p := pop(name, cityName)
		if _, dup := c.popIdx[p.Name]; dup {
			panic(fmt.Sprintf("groundseg: duplicate PoP %q", p.Name))
		}
		c.popIdx[p.Name] = len(c.pops)
		c.pops = append(c.pops, p)
		c.addStation(GroundStation{Name: "gs-" + p.Name, Loc: p.Loc, PoP: p.Name})
	}
}

// WithAssignment overrides the serving PoP for a country (applied after all
// PoPs are registered; the PoP must exist).
func WithAssignment(iso2, popName string) Option {
	return func(c *Catalog) {
		if _, ok := c.popIdx[strings.ToLower(popName)]; !ok {
			panic(fmt.Sprintf("groundseg: assignment for %s references unknown PoP %q", iso2, popName))
		}
		c.assign[strings.ToUpper(iso2)] = strings.ToLower(popName)
	}
}

// NewCatalog builds the embedded ground-segment catalog: the 22 PoPs, one
// colocated ground station per PoP, and the extra inland stations. Options
// add PoPs and reassign countries on top of the baseline.
func NewCatalog(opts ...Option) *Catalog {
	c := &Catalog{
		pops:   append([]PoP(nil), pops...),
		popIdx: make(map[string]int, len(pops)),
		byPoP:  make(map[string][]GroundStation),
		assign: make(map[string]string, len(countryPoP)),
	}
	for i, p := range c.pops {
		c.popIdx[p.Name] = i
	}
	for _, p := range c.pops {
		c.addStation(GroundStation{Name: "gs-" + p.Name, Loc: p.Loc, PoP: p.Name})
	}
	for _, e := range extraGS {
		if _, ok := c.popIdx[e.pop]; !ok {
			panic(fmt.Sprintf("groundseg: extra GS %s references unknown PoP %s", e.name, e.pop))
		}
		c.addStation(GroundStation{Name: e.name, Loc: geo.NewPoint(e.lat, e.lon), PoP: e.pop})
	}
	for iso, name := range countryPoP {
		c.assign[iso] = name
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Catalog) addStation(gs GroundStation) {
	c.byPoP[gs.PoP] = append(c.byPoP[gs.PoP], gs)
	c.stations = append(c.stations, gs)
}

// PoPs returns the PoP catalog (copy).
func (c *Catalog) PoPs() []PoP {
	return append([]PoP(nil), c.pops...)
}

// Stations returns all ground stations (copy).
func (c *Catalog) Stations() []GroundStation {
	return append([]GroundStation(nil), c.stations...)
}

// PoPByName resolves a PoP short code.
func (c *Catalog) PoPByName(name string) (PoP, bool) {
	i, ok := c.popIdx[strings.ToLower(name)]
	if !ok {
		return PoP{}, false
	}
	return c.pops[i], true
}

// NearestPoP returns the geographically closest PoP to a point.
func (c *Catalog) NearestPoP(p geo.Point) PoP {
	best := 0
	bestD := math.Inf(1)
	for i, pp := range c.pops {
		if d := geo.HaversineKm(p, pp.Loc); d < bestD {
			bestD = d
			best = i
		}
	}
	return c.pops[best]
}

// AssignPoP returns the PoP serving subscribers in the given country. The
// explicit table (including option overrides) wins; countries not listed
// fall back to the nearest PoP from the country centroid. ok is false for
// unknown countries.
func (c *Catalog) AssignPoP(iso2 string) (PoP, bool) {
	iso2 = strings.ToUpper(iso2)
	if name, ok := c.assign[iso2]; ok {
		p, ok2 := c.PoPByName(name)
		return p, ok2
	}
	centroid, ok := geo.CountryCentroid(iso2)
	if !ok {
		return PoP{}, false
	}
	return c.NearestPoP(centroid), true
}

// AssignPoPForClient returns the serving PoP for a client at a location in a
// country. US and Canadian subscribers use their nearest PoP (domestic PoP
// diversity); everyone else uses the country assignment.
func (c *Catalog) AssignPoPForClient(iso2 string, loc geo.Point) (PoP, bool) {
	iso2 = strings.ToUpper(iso2)
	if iso2 == "US" || iso2 == "CA" {
		return c.NearestPoP(loc), true
	}
	return c.AssignPoP(iso2)
}

// StationsForPoP returns the ground stations homed on a PoP. The slice is
// the catalog's own, built once at construction and shared by every caller
// (the ground stage asks on every request): treat it as read-only.
func (c *Catalog) StationsForPoP(name string) []GroundStation {
	return c.byPoP[strings.ToLower(name)]
}

// NearestStationForPoP returns, among the ground stations homed on the given
// PoP, the one closest to the reference point. This is the landing site for
// bent-pipe traffic that must egress at that specific PoP. ok is false for an
// unknown PoP.
func (c *Catalog) NearestStationForPoP(name string, ref geo.Point) (GroundStation, bool) {
	stations := c.byPoP[strings.ToLower(name)]
	if len(stations) == 0 {
		return GroundStation{}, false
	}
	best := 0
	bestD := math.Inf(1)
	for i := range stations {
		if d := geo.HaversineKm(ref, stations[i].Loc); d < bestD {
			bestD = d
			best = i
		}
	}
	return stations[best], true
}

// CountriesServed returns the ISO codes with an explicit PoP assignment,
// sorted. Useful for reporting and tests.
func CountriesServed() []string {
	out := make([]string, 0, len(countryPoP))
	for iso := range countryPoP {
		out = append(out, iso)
	}
	sort.Strings(out)
	return out
}
