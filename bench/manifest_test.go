package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadManifest(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var m benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func sameSet(t *testing.T, what string, declared, emitted []string) {
	t.Helper()
	sort.Strings(declared)
	sort.Strings(emitted)
	if strings.Join(declared, "\n") != strings.Join(emitted, "\n") {
		t.Errorf("%s: BENCHMARK.json declares\n  %v\nthe emitter prints\n  %v", what, declared, emitted)
	}
	for i := 1; i < len(declared); i++ {
		if declared[i] == declared[i-1] {
			t.Errorf("%s: %q declared twice", what, declared[i])
		}
	}
}

func TestManifestMatchesEmitter(t *testing.T) {
	m := loadManifest(t)

	// What the emitter prints is what driverJSON builds from the specs.
	res := &workloadResult{E2E: map[string]summary{}, Layers: map[string]float64{}}
	var e2e, layers, declared []string
	line, err := driverJSON(res, false)
	if err != nil {
		t.Fatal(err)
	}
	var parsed driverLine
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	for name := range parsed.Metrics {
		e2e = append(e2e, name)
	}
	if line, err = driverJSON(res, true); err != nil {
		t.Fatal(err)
	}
	parsed = driverLine{}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	for name := range parsed.Metrics {
		layers = append(layers, name)
	}

	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	var known []string
	for _, w := range workloadSpecs {
		known = append(known, w.Name)
	}
	sameSet(t, "workloads", declared, known)

	declared = nil
	for _, e := range m.EndToEnd {
		declared = append(declared, e.Name)
	}
	sameSet(t, "end-to-end metrics", declared, e2e)

	declared = nil
	for _, l := range m.PerLayer {
		declared = append(declared, l.Name)
	}
	sameSet(t, "per-layer metrics", declared, layers)
}

func TestManifestLimits(t *testing.T) {
	m := loadManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d elements", len(m.Command))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
	}
	setup := false
	specs := map[string]e2eSpec{}
	for _, s := range e2eSpecs {
		specs[s.Name] = s
	}
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if s := specs[e.Name]; e.Bound != nil && (s.Unit != e.Unit || s.Better != e.Better || s.Bound != *e.Bound) {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, manifest.go says %s/%s/%v", e.Name, e.Unit, e.Better, *e.Bound, s.Unit, s.Better, s.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := map[string]layerSpec{}
	for _, l := range layerSpecs {
		layers[l.Name] = l
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q", l.Name, l.Unit)
		}
		if s := layers[l.Name]; s.Unit != l.Unit || s.Better != l.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, manifest.go says %s/%s", l.Name, l.Unit, l.Better, s.Unit, s.Better)
		}
	}
}

// Every layer metric names its layer (a module of the repository, or the
// benchmark's own bench/trace/process groups), how it is measured, and the
// end-to-end metric and workload it should move.
func TestLayerSpecsSayWhatTheyMove(t *testing.T) {
	layersOK := map[string]bool{
		"traffic": true, "constellation": true, "routing": true, "lsn": true, "cache": true,
		"lifecycle": true, "spacecdn": true, "parallel": true, "serve": true, "telemetry": true,
		"process": true, "bench": true, "trace": true,
	}
	for _, l := range layerSpecs {
		layer, _, ok := strings.Cut(l.Name, ".")
		if !ok || !layersOK[layer] {
			t.Errorf("%s: no known layer before the first dot", l.Name)
		}
		if l.How == "" || l.Moves == "" {
			t.Errorf("%s: how and moves must both be stated", l.Name)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better %q", l.Name, l.Better)
		}
	}
}

func jsonStrict(s string) *json.Decoder {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	return dec
}
