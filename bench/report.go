package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// commit is set by run.sh with -ldflags; `go run` leaves it to the VCS stamp.
var commit string

// machineStamp heads every output: a number counts only with the machine
// that produced it.
type machineStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Transport  string `json:"transport"`
}

func stamp(seed int64, clients int) machineStamp {
	return machineStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Seed:       seed,
		Clients:    clients,
		Transport:  "host loopback; load clients and server share one process",
	}
}

func commitID() string {
	if commit != "" {
		return commit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func (s machineStamp) String() string {
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d clients=%d (%s)",
		s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Commit, s.Seed, s.Clients, s.Transport)
}

// defaultClients is min(nproc, 4): enough callers to load two cores, few
// enough that the clients do not crowd out the server they share them with.
func defaultClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// printResult writes every metric of one workload as `name value unit`.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s ==\n%s\n", r.Workload, r.Stamp)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	unresolved := map[string]bool{}
	for _, n := range r.Unresolved {
		unresolved[n] = true
	}
	for _, m := range e2eSpecs {
		s, ok := r.E2E[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-44s %14.4f %-6s  min %.4f max %.4f", m.Name, s.Median, m.Unit, s.Min, s.Max)
		if unresolved[m.Name] {
			fmt.Fprintf(w, "  unresolved: quartile spread %.1f %% over bound %.1f %%", 100*s.spread(), 100*m.Bound)
		}
		fmt.Fprintln(w)
	}
	if len(r.Attempts) > 0 {
		fmt.Fprintf(w, "note: lat_p99_us has at least %d samples beyond it per segment\n", r.Attempts[len(r.Attempts)-1].P99Beyond)
	}
	if len(r.Layers) > 0 {
		for _, l := range layerSpecs {
			fmt.Fprintf(w, "%-44s %14.4f %s\n", l.Name, r.Layers[l.Name], l.Unit)
		}
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(w, "stage table (warm traced pass, mean ns per request; rows sum to the root span):\n")
		for _, row := range r.Stages {
			fmt.Fprintf(w, "  %-28s %10.1f ns  %5.1f %%\n", row.Name, row.Ns, 100*row.Share)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.Attempted, r.Failed)
	if r.Checks.ok() {
		fmt.Fprintln(w, "checks: all passed")
	}
	for _, f := range r.Checks.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverJSON(r *workloadResult, layers bool) ([]byte, error) {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	if layers {
		for _, l := range layerSpecs {
			line.Metrics[l.Name] = driverValue{Value: r.Layers[l.Name], Unit: l.Unit}
		}
	} else {
		for _, m := range e2eSpecs {
			line.Metrics[m.Name] = driverValue{Value: r.E2E[m.Name].Median, Unit: m.Unit}
		}
	}
	return json.Marshal(line)
}

// resultFile is bench/out/result.json: one entry per workload.
type resultFile struct {
	Stamp     machineStamp      `json:"stamp"`
	Workloads []*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
