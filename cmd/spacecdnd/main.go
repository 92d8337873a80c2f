// Command spacecdnd is the long-running SpaceCDN serving daemon: an HTTP
// front end over one deployed system, with a background sweeper advancing
// the constellation by epoch publication (DESIGN.md §16).
//
// Usage:
//
//	spacecdnd [-addr HOST:PORT] [-seed N] [-step DUR] [-interval DUR]
//	          [-cities N] [-replay-seed N] [-trace-sample RATE]
//	          [-metrics-out FILE]
//
// The daemon deploys a default constellation, places the standard
// hot/warm/cold serving workload (over the -cities largest Starlink
// cities), attaches a content-lifecycle manager, and serves:
//
//	/resolve?lat=&lon=&iso2=&obj=   resolve one request on the current epoch
//	/metrics /traces /healthz /debug/pprof   telemetry introspection
//
// The daemon attaches no series collector, so /series answers 404.
//
// Every -interval of wall time the sweeper publishes a fresh epoch -step
// further into sim time; requests pin epochs with one atomic load and are
// never blocked by the swap.
//
// Keep-alive GET /resolve requests over HTTP/1.1 are parsed, resolved and
// answered on the connection by the daemon's own loop; every other request
// hands its connection to net/http, which serves the rest of the surface
// unchanged (DESIGN.md §16).
//
// The daemon serves until SIGINT/SIGTERM, then drains — idle connections
// close at once, requests in flight get the shutdown deadline — exports and
// exits 0. The verify.sh serve stage boots the built binary, drives /resolve
// and /metrics over real sockets and signals it.
//
// -metrics-out writes the accumulated telemetry on shutdown (Prometheus
// text for .prom/.txt files, a JSON snapshot otherwise — the format
// scripts/checkmetrics.go consumes). -replay-seed switches request rng to
// per-request-index streams so a recorded request log replays
// byte-identically (see internal/serve.Replay).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacecdn/internal/lifecycle"
	"spacecdn/internal/measure"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/telemetry"
)

// options collects every flag so parsing round-trips in tests and run()
// has one stable signature.
type options struct {
	Addr        string
	Seed        int64
	Step        time.Duration
	Interval    time.Duration
	Cities      int
	ReplaySeed  int64
	TraceSample float64
	MetricsOut  string
}

// defaultOptions mirrors the flag defaults: a live local daemon sweeping
// 15 s of sim time every 100 ms.
func defaultOptions() options {
	cfg := serve.DefaultConfig()
	return options{
		Addr:        "127.0.0.1:8080",
		Seed:        cfg.Seed,
		Step:        cfg.Step,
		Interval:    cfg.Interval,
		Cities:      12,
		TraceSample: 0.01,
	}
}

// parseFlags binds the daemon's flags onto an options value and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	opts := defaultOptions()
	fs.StringVar(&opts.Addr, "addr", opts.Addr, "HTTP listen address (host:0 picks a port; empty = in-process only)")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "seed for per-connection rng streams")
	fs.DurationVar(&opts.Step, "step", opts.Step, "sim time each epoch advances")
	fs.DurationVar(&opts.Interval, "interval", opts.Interval, "wall-clock period between epoch swaps (<= 0 pins the first epoch)")
	fs.IntVar(&opts.Cities, "cities", opts.Cities, "Starlink cities the serving workload spans")
	fs.Int64Var(&opts.ReplaySeed, "replay-seed", opts.ReplaySeed, "non-zero switches to per-request-index rng streams for byte-reproducible replay")
	fs.Float64Var(&opts.TraceSample, "trace-sample", opts.TraceSample, "fraction of requests retained as telemetry traces")
	fs.StringVar(&opts.MetricsOut, "metrics-out", opts.MetricsOut, "write telemetry on shutdown (.prom/.txt: Prometheus text, else JSON snapshot)")
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
	if err := run(os.Stdout, opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "spacecdnd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until stop (nil means OS signals) fires.
// It owns the full lifecycle: deploy, serve, drain, export, close.
func run(w io.Writer, opts options, stop <-chan struct{}) error {
	// Registered before the address is printed, so a supervisor that
	// signals as soon as it sees the line still gets the clean shutdown.
	sig := make(chan os.Signal, 1)
	if stop == nil {
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
	}
	env, err := measure.NewEnvironment()
	if err != nil {
		return err
	}
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), env.Constellation, env.LSN)
	if err != nil {
		return err
	}
	sys.SetTelemetry(telemetry.New(opts.TraceSample))
	sys.SetLifecycle(lifecycle.NewManager(lifecycle.DefaultPolicy(), env.Constellation.Total()))

	srv, err := serve.New(sys, serve.Config{
		Addr:       opts.Addr,
		Seed:       opts.Seed,
		Step:       opts.Step,
		Interval:   opts.Interval,
		ReplaySeed: opts.ReplaySeed,
	})
	if err != nil {
		return err
	}
	if _, err := srv.PlaceWorkload(opts.Cities); err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	if addr := srv.Addr(); addr != "" {
		fmt.Fprintf(w, "spacecdnd serving on http://%s (epoch %d, step %v every %v)\n",
			addr, srv.Epoch().Seq(), opts.Step, opts.Interval)
	}

	select {
	case <-sig:
	case <-stop:
	}
	fmt.Fprintln(w, "shutting down")

	if err := srv.Close(); err != nil {
		return err
	}
	if opts.MetricsOut != "" {
		if err := srv.Telemetry().WriteFile(opts.MetricsOut); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Fprintf(w, "telemetry written to %s\n", opts.MetricsOut)
	}
	return nil
}
