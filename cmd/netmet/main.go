// Command netmet is the NetMet browser-plugin equivalent run over a real
// network stack: it starts a loopback HTTP server whose responses are
// latency- and rate-shaped by the simulated access network (Starlink or
// terrestrial, for a chosen country), then fetches page models through
// net/http and reports per-load HTTP response time and a first-contentful-
// paint approximation measured with httptrace on real sockets.
//
// Usage:
//
//	netmet [-country ISO2] [-network starlink|terrestrial] [-loads N] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"time"

	"spacecdn/internal/geo"
	"spacecdn/internal/measure"
	"spacecdn/internal/report"
	"spacecdn/internal/stats"
	"spacecdn/internal/webmodel"
)

func main() {
	var (
		country = flag.String("country", "DE", "client country (ISO2)")
		network = flag.String("network", "starlink", "starlink or terrestrial")
		loads   = flag.Int("loads", 3, "loads per page")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	if err := run(os.Stdout, *country, *network, *loads, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "netmet:", err)
		os.Exit(1)
	}
}

// shapedServer serves synthetic pages with injected one-way latency and a
// bounded serving rate, approximating the simulated access path on real
// sockets.
type shapedServer struct {
	mu      sync.Mutex
	rng     *stats.Rand
	rttFn   func(*stats.Rand) time.Duration
	rateBps float64
	pages   map[string]webmodel.Page
}

func (s *shapedServer) delayAndRate() (time.Duration, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rttFn(s.rng), s.rateBps
}

func (s *shapedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rtt, rate := s.delayAndRate()
	// The response's first byte arrives one simulated RTT after the request
	// (request propagation + server turn-around + response propagation).
	time.Sleep(rtt)
	var size int64
	if page, ok := s.pages[r.URL.Path]; ok {
		size = page.HTMLBytes
	} else {
		// Assets: size is carried in the query to keep the server stateless.
		if n, err := fmt.Sscanf(r.URL.RawQuery, "bytes=%d", &size); n != 1 || err != nil {
			http.NotFound(w, r)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// Rate-shape the body in 32 KiB chunks.
	chunk := make([]byte, 32<<10)
	remaining := size
	for remaining > 0 {
		n := int64(len(chunk))
		if n > remaining {
			n = remaining
		}
		if _, err := w.Write(chunk[:n]); err != nil {
			return
		}
		remaining -= n
		time.Sleep(time.Duration(float64(n) * 8 / rate * float64(time.Second)))
	}
}

func run(w io.Writer, iso, network string, loads int, seed int64) error {
	if loads <= 0 {
		return fmt.Errorf("loads must be positive")
	}
	env, err := measure.NewEnvironment()
	if err != nil {
		return err
	}
	country, ok := geo.CountryByISO(iso)
	if !ok {
		return fmt.Errorf("unknown country %q", iso)
	}
	city, ok := geo.CityByName(country.Capital + ", " + country.ISO2)
	if !ok {
		return fmt.Errorf("no reference city for %s", iso)
	}
	rng := stats.NewRand(seed)

	// Build the simulated access network for the chosen country+network.
	var rttFn func(*stats.Rand) time.Duration
	var rate float64
	switch network {
	case "terrestrial":
		edge := env.CDN.NearestEdge(city.Loc)
		rttFn = func(r *stats.Rand) time.Duration {
			return env.Terrestrial.SampleRTT(city.Loc, edge.City.Loc, city.Region, edge.City.Region, r)
		}
		rate = env.Terrestrial.DownlinkMbps(city.Region, rng) * 1e6
	case "starlink":
		if !country.Starlink {
			return fmt.Errorf("%s has no Starlink coverage in the modelled window", iso)
		}
		path, err := env.LSN.ResolvePath(city.Loc, iso, env.Snapshot(0))
		if err != nil {
			return err
		}
		edge := env.CDN.NearestEdge(path.PoP.Loc)
		rttFn = func(r *stats.Rand) time.Duration {
			return env.LSN.RTTToHost(path, edge.City.Loc, edge.City.Region, env.Terrestrial, r)
		}
		rate = env.LSN.DownlinkMbps(rng) * 1e6
		fmt.Fprintf(w, "starlink path: %s\n", path)
	default:
		return fmt.Errorf("unknown network %q", network)
	}

	// To keep wall-clock time sane we scale the simulated latency down on
	// the real sockets and scale measurements back up.
	const timeScale = 4.0
	pages := webmodel.Top20Pages(seed)[:5]
	srv := &shapedServer{
		rng: rng.Fork("server"),
		rttFn: func(r *stats.Rand) time.Duration {
			return time.Duration(float64(rttFn(r)) / timeScale)
		},
		rateBps: rate * timeScale,
		pages:   map[string]webmodel.Page{},
	}
	for _, p := range pages {
		srv.pages["/"+p.Name] = p
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 120 * time.Second}
	table := report.NewTable(
		fmt.Sprintf("NetMet over real sockets: %s / %s (latency shaped 1/%v)", iso, network, timeScale),
		"Page", "Run", "HRT ms", "FCP ms", "Bytes")

	var hrts, fcps []float64
	for run := 0; run < loads; run++ {
		for _, p := range pages {
			res, err := loadPage(client, base, p)
			if err != nil {
				return fmt.Errorf("load %s: %w", p.Name, err)
			}
			hrt := float64(res.hrt) / float64(time.Millisecond) * timeScale
			fcp := float64(res.fcp) / float64(time.Millisecond) * timeScale
			hrts = append(hrts, hrt)
			fcps = append(fcps, fcp)
			table.AddRow(p.Name, run, hrt, fcp, res.bytes)
		}
	}
	if err := table.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "median HRT %.1f ms, median FCP %.1f ms over %d loads\n",
		stats.Median(hrts), stats.Median(fcps), len(hrts))
	return err
}

type loadResult struct {
	hrt   time.Duration
	fcp   time.Duration
	bytes int64
}

// loadPage fetches the page HTML and its critical assets sequentially in
// waves of six, timing TTFB with httptrace — a miniature browser over a real
// TCP stack.
func loadPage(client *http.Client, base string, p webmodel.Page) (loadResult, error) {
	start := time.Now()
	var firstByte time.Duration

	fetch := func(url string) (int64, error) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		reqStart := time.Now()
		gotFirst := false
		trace := &httptrace.ClientTrace{
			GotFirstResponseByte: func() {
				if !gotFirst {
					gotFirst = true
					if firstByte == 0 {
						firstByte = time.Since(reqStart)
					}
				}
			},
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return io.Copy(io.Discard, resp.Body)
	}

	total, err := fetch(base + "/" + p.Name)
	if err != nil {
		return loadResult{}, err
	}
	// Critical assets in waves of six parallel requests.
	crit := p.Critical
	for len(crit) > 0 {
		n := 6
		if n > len(crit) {
			n = len(crit)
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		sizes := make([]int64, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int, bytes int64) {
				defer wg.Done()
				sizes[i], errs[i] = fetch(fmt.Sprintf("%s/asset?bytes=%d", base, bytes))
			}(i, crit[i])
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				return loadResult{}, errs[i]
			}
			total += sizes[i]
		}
		crit = crit[n:]
	}
	return loadResult{hrt: firstByte, fcp: time.Since(start), bytes: total}, nil
}
