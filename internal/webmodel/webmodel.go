// Package webmodel reproduces what the paper's NetMet browser plugin
// measures: it loads a model of a popular landing page over a parameterized
// access network and reports HTTP response time (HRT — request to first
// byte, excluding DNS and transport setup, exactly as the paper defines it)
// and First Contentful Paint (FCP — including the downloads needed to render
// the first element).
//
// Page structure is synthetic but shaped like the Tranco top-20 landing
// pages NetMet fetches: an HTML document plus a handful of render-critical
// assets fetched over a few parallel connections, served from a CDN edge.
// Downloads are serialized on the access downlink, so access bandwidth
// shapes the result, not just RTT math.
package webmodel

import (
	"fmt"
	"time"

	"spacecdn/internal/stats"
)

// Page is a synthetic landing-page profile.
type Page struct {
	Name         string
	HTMLBytes    int64
	Critical     []int64 // render-critical subresources (CSS, fonts, hero)
	ServerProcMs float64 // edge processing before first byte
	ScriptExecMs float64 // render-blocking script execution on the client
}

// TotalBytes returns HTML plus critical bytes.
func (p Page) TotalBytes() int64 {
	t := p.HTMLBytes
	for _, b := range p.Critical {
		t += b
	}
	return t
}

// Top20Pages generates the study's page set: twenty deterministic profiles
// shaped like popular landing pages (tens of KB of HTML, 4-10 critical
// assets of 10-300 KB).
func Top20Pages(seed int64) []Page {
	rng := stats.NewRand(seed)
	pages := make([]Page, 20)
	for i := range pages {
		nCrit := 6 + rng.Intn(7)
		crit := make([]int64, nCrit)
		for j := range crit {
			crit[j] = int64(rng.LogNormal(0, 0.7) * float64(110<<10)) // ~110 KB median
			if crit[j] < 5<<10 {
				crit[j] = 5 << 10
			}
		}
		pages[i] = Page{
			Name:         fmt.Sprintf("site-%02d", i),
			HTMLBytes:    int64(rng.LogNormal(0, 0.5) * float64(120<<10)),
			Critical:     crit,
			ServerProcMs: rng.Uniform(10, 60),
			ScriptExecMs: rng.Uniform(80, 250),
		}
		if pages[i].HTMLBytes < 10<<10 {
			pages[i].HTMLBytes = 10 << 10
		}
	}
	return pages
}

// NetParams describes the client's access network for one page load.
type NetParams struct {
	// RTTSample draws one idle round-trip time to the CDN edge.
	RTTSample func(rng *stats.Rand) time.Duration
	// DownlinkMbps is the access downlink rate for this load.
	DownlinkMbps float64
	// ExchangeJitter draws extra delay added to each request/response
	// exchange (frame scheduling on satellite links; ~0 terrestrially).
	ExchangeJitter func(rng *stats.Rand) time.Duration
	// DNSCachedP is the probability the resolver answer is already cached.
	DNSCachedP float64
	// Connections is the number of parallel connections for subresources.
	Connections int
}

// Validate reports a descriptive error for unusable parameters.
func (p NetParams) Validate() error {
	if p.RTTSample == nil {
		return fmt.Errorf("webmodel: RTTSample is required")
	}
	if p.DownlinkMbps <= 0 {
		return fmt.Errorf("webmodel: downlink must be positive, got %v", p.DownlinkMbps)
	}
	if p.Connections <= 0 {
		return fmt.Errorf("webmodel: need at least one connection")
	}
	return nil
}

// LoadResult is one simulated page load.
type LoadResult struct {
	// HRT is the paper's HTTP response time: request to first byte,
	// excluding DNS and transport setup.
	HRT time.Duration
	// FCP is first contentful paint: navigation start to first render,
	// including DNS, TCP, TLS, HTML and critical-asset downloads.
	FCP time.Duration
	// DNS, Connect and TLS are the setup phases (diagnostics).
	DNS     time.Duration
	Connect time.Duration
	TLS     time.Duration
	// Bytes downloaded up to FCP.
	Bytes int64
}

// renderDelay is the browser's layout+paint time after the critical set is
// available.
const renderDelay = 120 * time.Millisecond

// LoadPage simulates one page load and returns its timings.
func LoadPage(page Page, p NetParams, rng *stats.Rand) (LoadResult, error) {
	if err := p.Validate(); err != nil {
		return LoadResult{}, err
	}
	var res LoadResult

	exchange := func() time.Duration {
		d := p.RTTSample(rng)
		if p.ExchangeJitter != nil {
			d += p.ExchangeJitter(rng)
		}
		return d
	}

	// Setup phases.
	if !rng.Bool(p.DNSCachedP) {
		res.DNS = exchange() // recursive resolver round trip
	}
	res.Connect = exchange() // TCP SYN/SYNACK
	res.TLS = exchange()     // TLS 1.3, one round trip
	serverProc := time.Duration(page.ServerProcMs * float64(time.Millisecond))
	res.HRT = exchange() + serverProc // request -> first byte

	// Downloads over the access link: the HTML first, then the critical
	// assets over Connections parallel connections sharing the downlink.
	rate := p.DownlinkMbps * 1e6
	htmlDone := downloadTime(page.HTMLBytes, rate)

	// Critical assets are discovered once HTML is parsed; fetch them in
	// waves of Connections. Each wave pays one request exchange (connection
	// reuse), then the wave's bytes share the downlink, so the wave ends
	// when all of them have crossed it.
	var waveTime time.Duration
	crit := page.Critical
	for len(crit) > 0 {
		n := p.Connections
		if n > len(crit) {
			n = len(crit)
		}
		wave := crit[:n]
		crit = crit[n:]

		waveTime += exchange() // request round trip for the wave
		for _, b := range wave {
			waveTime += downloadTime(b, rate)
			res.Bytes += b
		}
	}

	res.Bytes += page.HTMLBytes
	scriptExec := time.Duration(page.ScriptExecMs * float64(time.Millisecond))
	res.FCP = res.DNS + res.Connect + res.TLS + res.HRT + htmlDone + waveTime + scriptExec + renderDelay
	return res, nil
}

// segmentBytes is the unit a transfer is serialized in.
const segmentBytes = 64 << 10

// downloadTime returns how long n bytes take on a downlink of rateBps with
// no propagation delay and no queue limit: the sum of the per-segment
// serialization times, each truncated to the nanosecond.
func downloadTime(n int64, rateBps float64) time.Duration {
	var d time.Duration
	for ; n > 0; n -= segmentBytes {
		seg := min(n, segmentBytes)
		d += time.Duration(float64(seg) * 8 / rateBps * float64(time.Second))
	}
	return d
}

// LoadMany performs n independent loads of each page and returns all
// results, deterministic for a given seed stream.
func LoadMany(pages []Page, p NetParams, n int, rng *stats.Rand) ([]LoadResult, error) {
	var out []LoadResult
	for i := 0; i < n; i++ {
		for _, pg := range pages {
			r, err := LoadPage(pg, p, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// HRTs extracts HRT milliseconds from results.
func HRTs(rs []LoadResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.HRT) / float64(time.Millisecond)
	}
	return out
}

// FCPs extracts FCP milliseconds from results.
func FCPs(rs []LoadResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.FCP) / float64(time.Millisecond)
	}
	return out
}
