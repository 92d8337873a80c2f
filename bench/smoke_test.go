package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// childEnv makes the test binary behave as the benchmark binary, so the
// smoke test can run `-all` — which re-executes itself once per workload —
// without building anything.
const childEnv = "SPACECDN_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads is the tier-1 smoke: every workload end to end at the
// smoke scale, all checks on, a complete result.json.
func TestSmokeAllWorkloads(t *testing.T) {
	if raceEnabled {
		t.Skip("go test -race is red on internal/spacecdn at this commit (ROADMAP); the smoke run drives that code concurrently")
	}
	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "-all", "-smoke", "-seed", "7", "-out", out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	begin := time.Now()
	if err := cmd.Run(); err != nil {
		t.Fatalf("bench -all -smoke: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	t.Logf("smoke run took %v", time.Since(begin))

	var file resultFile
	if err := readJSON(filepath.Join(out, "result.json"), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("result.json holds %d workloads, want %d", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range file.Workloads {
		if w.Workload != workloadSpecs[i].Name {
			t.Errorf("workload %d is %q, want %q", i, w.Workload, workloadSpecs[i].Name)
		}
		if !w.Correct || len(w.Checks.Failures) > 0 {
			t.Errorf("%s: checks failed: %v", w.Workload, w.Checks.Failures)
		}
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", w.Workload, w.Attempted, w.Failed)
		}
		for _, m := range e2eSpecs {
			if s, ok := w.E2E[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.Workload, m.Name, s)
			}
			if !strings.Contains(stdout.String(), m.Name) {
				t.Errorf("metric %s never printed", m.Name)
			}
		}
		for _, l := range layerSpecs {
			if _, ok := w.Layers[l.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Workload, l.Name)
			}
		}
		if len(w.Layers) != len(layerSpecs) {
			t.Errorf("%s: %d per-layer metrics in the result, %d declared", w.Workload, len(w.Layers), len(layerSpecs))
		}
		if len(w.Stages) == 0 {
			t.Errorf("%s: no stage table", w.Workload)
		}
		var sum float64
		for _, row := range w.Stages[:len(w.Stages)-1] {
			sum += row.Ns
		}
		if root := w.Stages[len(w.Stages)-1].Ns; root <= 0 || sum < root*0.999 || sum > root*1.001 {
			t.Errorf("%s: stage rows sum to %.1f ns, root span is %.1f ns", w.Workload, sum, root)
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+w.Workload+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", w.Workload, err)
		}
	}
	if !strings.Contains(stdout.String(), "loopback") {
		t.Error("output does not say that traffic crosses the loopback and shares the process")
	}
}

// TestDriverLine checks the contract with the benchmark driver: the last line
// of standard output is one JSON object with exactly the declared metrics.
func TestDriverLine(t *testing.T) {
	if raceEnabled {
		t.Skip("see TestSmokeAllWorkloads")
	}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command(os.Args[0], "--workload", "static-pinned", "--seed", "3", "--seconds", "1", "--trace", trace, "-smoke", "-out", t.TempDir())
		cmd.Env = append(os.Environ(), childEnv+"=1")
		outBytes, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
		var line driverLine
		dec := jsonStrict(lines[len(lines)-1])
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the driver object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		want := len(e2eSpecs)
		if trace == "1" {
			want = len(layerSpecs)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != want {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d metrics=%d (want %d)", trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), want)
		}
	}
}
