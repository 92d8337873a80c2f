// Command spacecdn regenerates the paper's tables and figures.
//
// Usage:
//
//	spacecdn -exp table1|fig2|fig3|fig4|fig5|fig7|fig8|ablation-replicas|capacity|workload|resilience|traffic|lifecycle|scale-bench|all
//	         [-fast] [-seed N] [-json] [-city NAME] [-workers N]
//	         [-metrics-out FILE] [-trace-sample RATE]
//	         [-series-out FILE] [-series-window DUR]
//	         [-serve ADDR] [-serve-linger DUR]
//	         [-fault-isls F] [-fault-pops F] [-fault-seed N]
//	spacecdn -list
//
// Each experiment prints an aligned text table (or figure sketch) to stdout;
// -json emits machine-readable output instead. -list prints every registered
// experiment id with a one-line description and exits.
//
// -workers bounds the goroutines each experiment fans work across (0, the
// default, means one per CPU). Results are identical for every worker count.
//
// -metrics-out attaches telemetry to the run and writes the accumulated
// metrics (and sampled request traces) to FILE when every experiment has
// finished: Prometheus text exposition for .prom/.txt files, a JSON snapshot
// otherwise. The resolve-path "workload" experiment is forced into the run
// so the request counters and RTT histogram are populated; -trace-sample
// sets the fraction of requests retained as traces.
//
// -series-out adds the time-resolved layer: a windowed series collector rides
// the sweep cursor (window width set by -series-window, default 1m of sim
// time) and its snapshot — per-window counter deltas and per-window histogram
// quantiles — is written as JSON when the run ends. -serve starts a live
// introspection endpoint on ADDR (host:0 picks a free port; the bound address
// is printed) with /metrics, /series, /traces (the sampled request traces as
// JSON), /healthz and /debug/pprof/; -serve-linger keeps it up that long
// after the experiments finish so a scraper can catch the final state. Either
// flag attaches telemetry, same as -metrics-out.
//
// The -fault-* flags tune the resilience experiment: -fault-isls / -fault-pops
// pin the ISL and PoP failure fractions (negative, the default, derives them
// from the swept satellite fraction), and -fault-seed seeds fault-plan
// generation (0 reuses -seed).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spacecdn/internal/experiments"
	"spacecdn/internal/geo"
	"spacecdn/internal/lsn"
	"spacecdn/internal/report"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// options collects every flag the command accepts, so flag parsing can be
// tested as a round trip and run() has one stable signature.
type options struct {
	Exp         string
	Fast        bool
	Seed        int64
	JSON        bool
	City        string
	MetricsOut  string
	TraceSample float64
	Workers     int
	List        bool

	// Time-resolved observability (any of these attaches telemetry).
	SeriesOut    string
	SeriesWindow time.Duration
	Serve        string
	ServeLinger  time.Duration

	// Fault-injection knobs for the resilience experiment; negative
	// fractions mean "derive from the swept satellite fraction", fault seed
	// 0 means "reuse Seed".
	FaultISLs float64
	FaultPoPs float64
	FaultSeed int64
}

// defaultOptions mirrors the flag defaults.
func defaultOptions() options {
	return options{
		Exp: "all", Seed: 42, TraceSample: 0.01, FaultISLs: -1, FaultPoPs: -1,
		SeriesWindow: telemetry.DefaultSeriesWindow,
	}
}

// parseFlags binds the command's flags onto an options value and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	opts := defaultOptions()
	fs.StringVar(&opts.Exp, "exp", opts.Exp, "experiment id (comma-separable; see -list), or all")
	fs.BoolVar(&opts.Fast, "fast", opts.Fast, "reduced sample counts (quick preview)")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	fs.BoolVar(&opts.JSON, "json", opts.JSON, "emit JSON instead of text tables")
	fs.StringVar(&opts.City, "city", opts.City, "city for fig3 (default Maputo)")
	fs.StringVar(&opts.MetricsOut, "metrics-out", opts.MetricsOut, "write accumulated telemetry to this file (.prom/.txt: Prometheus text, else JSON snapshot)")
	fs.Float64Var(&opts.TraceSample, "trace-sample", opts.TraceSample, "fraction of resolve requests retained as traces (with -metrics-out)")
	fs.IntVar(&opts.Workers, "workers", opts.Workers, "worker goroutines per experiment (0 = one per CPU; results are identical for any value)")
	fs.BoolVar(&opts.List, "list", opts.List, "list registered experiments and exit")
	fs.StringVar(&opts.SeriesOut, "series-out", opts.SeriesOut, "write the windowed series (JSON) to this file")
	fs.DurationVar(&opts.SeriesWindow, "series-window", opts.SeriesWindow, "sim-time width of each metric window (with -series-out or -serve)")
	fs.StringVar(&opts.Serve, "serve", opts.Serve, "serve live introspection (/metrics /series /traces /healthz /debug/pprof) on this host:port; host:0 picks a port")
	fs.DurationVar(&opts.ServeLinger, "serve-linger", opts.ServeLinger, "keep the -serve endpoint up this long after experiments finish")
	fs.Float64Var(&opts.FaultISLs, "fault-isls", opts.FaultISLs, "resilience: ISL failure fraction (negative = half the satellite fraction)")
	fs.Float64Var(&opts.FaultPoPs, "fault-pops", opts.FaultPoPs, "resilience: PoP failure fraction (negative = a quarter of the satellite fraction)")
	fs.Int64Var(&opts.FaultSeed, "fault-seed", opts.FaultSeed, "resilience: fault-plan seed (0 = reuse -seed)")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	return opts, nil
}

func main() {
	opts, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "spacecdn:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, opts options) error {
	if opts.List {
		return listExperiments(w)
	}
	suite, err := experiments.NewSuite(opts.Fast, opts.Seed)
	if err != nil {
		return err
	}
	suite.SetWorkers(opts.Workers)
	suite.FaultISLFraction = opts.FaultISLs
	suite.FaultPoPFraction = opts.FaultPoPs
	suite.FaultSeed = opts.FaultSeed
	var tel *telemetry.Telemetry
	if opts.MetricsOut != "" || opts.SeriesOut != "" || opts.Serve != "" {
		tel = telemetry.New(opts.TraceSample)
		if opts.SeriesOut != "" || opts.Serve != "" {
			// The series collector rides the experiments' sweep cursors and
			// backs the /series endpoint.
			tel.SetSeries(telemetry.NewSeriesCollector(tel.Registry(), opts.SeriesWindow, 0))
		}
		suite.SetTelemetry(tel)
	}
	var srv *telemetry.Server
	if opts.Serve != "" {
		srv, err = telemetry.Serve(opts.Serve, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		// Printed before any experiment runs so a scraper tailing stdout can
		// hit the endpoint while the sweep is still advancing.
		fmt.Fprintf(w, "introspection listening on http://%s\n", srv.Addr())
	}
	ids := strings.Split(opts.Exp, ",")
	if opts.Exp == "all" {
		ids = ids[:0]
		for _, e := range registry() {
			if e.inAll {
				ids = append(ids, e.id)
			}
		}
	}
	if tel != nil && !containsID(ids, "workload") {
		// The resolve-path workload populates the request counters and RTT
		// histogram the metrics file is expected to carry.
		ids = append(ids, "workload")
	}
	for _, id := range ids {
		if err := runOne(w, suite, strings.TrimSpace(id), opts); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(w)
	}
	if opts.MetricsOut != "" {
		if err := tel.WriteFile(opts.MetricsOut); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Fprintf(w, "telemetry written to %s\n", opts.MetricsOut)
	}
	if opts.SeriesOut != "" {
		if err := writeArtifact(opts.SeriesOut, tel.WriteSeriesJSON); err != nil {
			return fmt.Errorf("series-out: %w", err)
		}
		fmt.Fprintf(w, "series written to %s\n", opts.SeriesOut)
	}
	if srv != nil && opts.ServeLinger > 0 {
		fmt.Fprintf(w, "lingering %v for scrapes\n", opts.ServeLinger)
		time.Sleep(opts.ServeLinger)
	}
	return nil
}

// writeArtifact creates path and streams one telemetry artifact into it.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// listExperiments prints every registry entry as "id - description", marking
// the ones "all" skips.
func listExperiments(w io.Writer) error {
	for _, e := range registry() {
		suffix := ""
		if !e.inAll {
			suffix = " (not in \"all\")"
		}
		if _, err := fmt.Fprintf(w, "%-18s %s%s\n", e.id, e.desc, suffix); err != nil {
			return err
		}
	}
	return nil
}

// runOne dispatches a single experiment id through the registry.
func runOne(w io.Writer, s *experiments.Suite, id string, opts options) error {
	for _, e := range registry() {
		if e.id == id {
			return e.run(w, s, opts)
		}
	}
	return fmt.Errorf("unknown experiment %q", id)
}

func containsID(ids []string, want string) bool {
	for _, id := range ids {
		if strings.TrimSpace(id) == want {
			return true
		}
	}
	return false
}

func geoCity(name string) (geo.City, bool) { return geo.CityByName(name) }

func lsnHandoverRate(series []lsn.RTTSample) float64 { return lsn.HandoverRate(series) }

func quantiles(c *stats.CDF) []float64 {
	qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = c.Quantile(q)
	}
	return out
}

func cdfSeries(name string, c *stats.CDF) report.Series {
	pts := c.Points(41)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.P
	}
	return report.Series{Name: name, X: xs, Y: ys}
}
