package measure

import (
	"fmt"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/parallel"
	"spacecdn/internal/stats"
	"spacecdn/internal/webmodel"
)

// WebMeasurement is one NetMet-style page-load record.
type WebMeasurement struct {
	Country string // ISO2
	City    string
	Network Network
	Site    string
	Run     int // paired index: the same (site, run) exists on both networks
	HRTMs   float64
	FCPMs   float64
}

// WebConfig controls a NetMet campaign.
type WebConfig struct {
	// Countries to probe (ISO2). Each uses its reference city.
	Countries []string
	// LoadsPerSite per network.
	LoadsPerSite int
	// Snapshot is the constellation time used for Starlink paths.
	Snapshot time.Duration
	Seed     int64
	// Workers bounds the goroutines probing countries; <= 0 means one per
	// CPU. Results are identical for every worker count.
	Workers int
}

// DefaultWebConfig probes the paper's NetMet deployment countries: LEOScope
// probes in GB, DE, CA and NG plus volunteer locations.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		Countries:    []string{"GB", "DE", "CA", "NG", "ES", "US", "AU", "BR"},
		LoadsPerSite: 25,
		Snapshot:     0,
		Seed:         7,
	}
}

// RunNetMet performs the paired web-browsing campaign: for each country it
// loads the top-20 page set over both Starlink and a terrestrial ISP from
// the same location, exactly like the paper's dockerized probe setup.
// Countries probe in parallel (cfg.Workers); every country's randomness is
// an independent stream keyed on its ISO code and results merge in country
// order, so the campaign is identical for any worker count.
func (e *Environment) RunNetMet(cfg WebConfig) ([]WebMeasurement, error) {
	if cfg.LoadsPerSite <= 0 {
		return nil, fmt.Errorf("measure: need positive loads per site")
	}
	if len(cfg.Countries) == 0 {
		return nil, fmt.Errorf("measure: no countries configured")
	}
	pages := webmodel.Top20Pages(cfg.Seed)
	type countryJob struct {
		iso     string
		country geo.Country
		city    geo.City
	}
	jobs := make([]countryJob, 0, len(cfg.Countries))
	for _, iso := range cfg.Countries {
		country, ok := geo.CountryByISO(iso)
		if !ok {
			return nil, fmt.Errorf("measure: unknown country %q", iso)
		}
		city, ok := geo.CityByName(country.Capital + ", " + country.ISO2)
		if !ok {
			return nil, fmt.Errorf("measure: no reference city for %s", iso)
		}
		jobs = append(jobs, countryJob{iso: iso, country: country, city: city})
	}
	e.Snapshot(cfg.Snapshot)
	results := make([][]WebMeasurement, len(jobs))
	err := parallel.Run(cfg.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		recs, err := e.netmetCountry(j.iso, j.country, j.city, pages, cfg)
		results[i] = recs
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []WebMeasurement
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// netmetCountry runs one country's paired campaign. Its rng derives from the
// seed and ISO code alone, never from another country's draws.
func (e *Environment) netmetCountry(iso string, country geo.Country, city geo.City, pages []webmodel.Page, cfg WebConfig) ([]WebMeasurement, error) {
	rng := stats.NewRand(cfg.Seed).Fork("netmet/" + iso)
	var out []WebMeasurement

	// Terrestrial side.
	tEdge := e.CDN.NearestEdge(city.Loc)
	tParams := webmodel.NetParams{
		RTTSample: func(r *stats.Rand) time.Duration {
			return e.Terrestrial.SampleRTT(city.Loc, tEdge.City.Loc, city.Region, tEdge.City.Region, r)
		},
		DownlinkMbps: e.Terrestrial.DownlinkMbps(city.Region, rng),
		DNSCachedP:   0.3,
		Connections:  6,
	}
	tms, err := e.runLoads(pages, tParams, cfg.LoadsPerSite, rng.Fork("terr"))
	if err != nil {
		return nil, err
	}
	for i, m := range tms {
		out = append(out, WebMeasurement{
			Country: iso, City: city.Name, Network: NetworkTerrestrial,
			Site: pages[i%len(pages)].Name, Run: i / len(pages),
			HRTMs: ms(m.HRT), FCPMs: ms(m.FCP),
		})
	}

	// Starlink side (skip countries without coverage).
	if !country.Starlink {
		return out, nil
	}
	path, err := e.LSN.ResolvePath(city.Loc, iso, e.Snapshot(cfg.Snapshot))
	if err != nil {
		return out, nil
	}
	sEdge := e.CDN.NearestEdge(path.PoP.Loc)
	sParams := webmodel.NetParams{
		RTTSample: func(r *stats.Rand) time.Duration {
			return e.LSN.RTTToHost(path, sEdge.City.Loc, sEdge.City.Region, e.Terrestrial, r)
		},
		DownlinkMbps: e.LSN.DownlinkMbps(rng),
		DNSCachedP:   0.3,
		Connections:  6,
	}
	sms, err := e.runLoads(pages, sParams, cfg.LoadsPerSite, rng.Fork("sl"))
	if err != nil {
		return nil, err
	}
	for i, m := range sms {
		out = append(out, WebMeasurement{
			Country: iso, City: city.Name, Network: NetworkStarlink,
			Site: pages[i%len(pages)].Name, Run: i / len(pages),
			HRTMs: ms(m.HRT), FCPMs: ms(m.FCP),
		})
	}
	return out, nil
}

func (e *Environment) runLoads(pages []webmodel.Page, p webmodel.NetParams, runs int, rng *stats.Rand) ([]webmodel.LoadResult, error) {
	var out []webmodel.LoadResult
	for run := 0; run < runs; run++ {
		for _, pg := range pages {
			r, err := webmodel.LoadPage(pg, p, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// HRTDifference pairs Starlink and terrestrial loads by (site, run) within a
// country and returns the per-pair HRT differences (Starlink minus
// terrestrial) in milliseconds — the series behind Figure 4.
func HRTDifference(ms []WebMeasurement, country string) []float64 {
	type key struct {
		site string
		run  int
	}
	sl := map[key]float64{}
	te := map[key]float64{}
	for _, m := range ms {
		if m.Country != country {
			continue
		}
		k := key{site: m.Site, run: m.Run}
		switch m.Network {
		case NetworkStarlink:
			sl[k] = m.HRTMs
		case NetworkTerrestrial:
			te[k] = m.HRTMs
		}
	}
	var out []float64
	for k, s := range sl {
		if t, ok := te[k]; ok {
			out = append(out, s-t)
		}
	}
	return out
}

// FCPByNetwork extracts a country's FCP samples per network in milliseconds
// — the series behind Figure 5.
func FCPByNetwork(ms []WebMeasurement, country string) map[Network][]float64 {
	out := map[Network][]float64{}
	for _, m := range ms {
		if m.Country == country {
			out[m.Network] = append(out[m.Network], m.FCPMs)
		}
	}
	return out
}
