// Command bench is the repository's benchmark: it replays the traffic
// engine's production day through an in-process spacecdnd-equivalent stack
// and through the batch simulator loop, reports the end-to-end metrics of
// four workloads with tracing off, and makes a separate traced pass that
// attributes a request's wall time to the layers from outside. README.md
// says how to run it and what every number means.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: day-http, day-inproc, static-pinned or sim-day")
		all      = fs.Bool("all", false, "run every workload, each in its own child process, and write result.json")
		seed     = fs.Int64("seed", 42, "seed of the traffic day; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 20, "measured time of one run")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics and the traced pass only; -1: both")
		smoke    = fs.Bool("smoke", false, "tiny inputs and short segments: drives every code path in seconds, measures nothing")
		compare  = fs.Bool("compare", false, "compare two result.json files given as arguments: base then new")
		out      = fs.String("out", "out", "directory for result and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
		seen := false
		fs.Visit(func(f *flag.Flag) { seen = seen || f.Name == "seconds" })
		if !seen {
			*seconds = 1.5
		}
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare base.json new.json")
			return 2
		}
		return runCompare(stdout, stderr, fs.Arg(0), fs.Arg(1))
	case *all:
		return runAll(stdout, stderr, *seed, *seconds, *smoke, *out)
	case *workload != "":
		return runOne(stdout, stderr, runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds,
			E2E: *trace != 1, Layers: *trace != 0,
			Scale: sc, Clients: defaultClients(), OutDir: *out,
		}, *trace >= 0)
	}
	fs.Usage()
	return 2
}

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runOne runs one workload in this process, prints its metrics, and — for the
// benchmark driver — ends standard output with one JSON object.
func runOne(stdout, stderr io.Writer, cfg runConfig, driver bool) int {
	if !knownWorkload(cfg.Workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	printResult(stdout, res)
	if err := writeJSON(filepath.Join(cfg.OutDir, "result-"+cfg.Workload+".json"), res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if driver {
		line, err := driverJSON(res, !cfg.E2E)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		for _, f := range res.Checks.Failures {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", cfg.Workload, f)
		}
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so peak RSS and
// the process-wide routing and path-memo counters are per workload.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, smoke bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	file := resultFile{Stamp: stamp(seed, defaultClients())}
	failed := 0
	for _, w := range workloadSpecs {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", out}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.Name, err)
			failed++
			continue
		}
		var res workloadResult
		if err := readJSON(filepath.Join(out, "result-"+w.Name+".json"), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			failed++
			continue
		}
		file.Workloads = append(file.Workloads, &res)
	}
	if err := writeJSON(filepath.Join(out, "result.json"), file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d workloads failed\n", failed, len(workloadSpecs))
		return 1
	}
	fmt.Fprintf(stdout, "all %d workloads passed their checks; results in %s\n", len(workloadSpecs), filepath.Join(out, "result.json"))
	return 0
}
