package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenCheck is one row of testdata/golden.json.
type goldenCheck struct {
	Op   string  `json:"op"`
	Want float64 `json:"want"`
	Rel  float64 `json:"rel"`
}

// compare applies the check; the empty string means pass. There are two ops
// and no others: a floor or a ceiling would let a wall-clock number in.
func (c goldenCheck) compare(got float64) string {
	switch c.Op {
	case "eq":
		if got != c.Want {
			return fmt.Sprintf("want exactly %v, got %v", c.Want, got)
		}
	case "band":
		if tol := c.Rel * math.Abs(c.Want); math.Abs(got-c.Want) > tol {
			return fmt.Sprintf("want %v +/- %v, got %v", c.Want, tol, got)
		}
	default:
		return fmt.Sprintf("unknown op %q (the golden file holds only eq and band rows)", c.Op)
	}
	return ""
}

// goldenLookup walks a dot-path ("Rows.2.UplinkFailovers") through decoded
// JSON. Booleans read as 1/0 so flags share the eq op with counts.
func goldenLookup(doc any, path string) (float64, error) {
	cur := doc
	for _, part := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			next, ok := node[part]
			if !ok {
				return 0, fmt.Errorf("no field %q", part)
			}
			cur = next
		case []any:
			i, err := strconv.Atoi(part)
			if err != nil || i < 0 || i >= len(node) {
				return 0, fmt.Errorf("index %q outside %d elements", part, len(node))
			}
			cur = node[i]
		default:
			return 0, fmt.Errorf("%q descends into a scalar", part)
		}
	}
	switch v := cur.(type) {
	case float64:
		return v, nil
	case bool:
		if v {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("not a number or flag: %T", cur)
}

// TestGoldenExperiments holds the three seeded experiments whose results are
// the repository's reproduction numbers — the traffic day, the resilience
// sweep and the lifecycle sweep — to testdata/golden.json, at the CLI's
// defaults (-fast, seed 42). Every row is a pure function of the seed; a row
// that moves means the model changed and the file is updated in the same
// commit, with the reason.
func TestGoldenExperiments(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("golden.json: %v", err)
	}
	s, err := NewSuite(true, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []struct {
		name string
		run  func() (any, error)
	}{
		{"traffic", func() (any, error) { return s.Traffic() }},
		{"resilience", func() (any, error) { return s.Resilience() }},
		{"lifecycle", func() (any, error) { return s.Lifecycle() }},
	} {
		var checks map[string]goldenCheck
		if err := json.Unmarshal(raw[exp.name], &checks); err != nil || len(checks) == 0 {
			t.Fatalf("golden.json: no rows for %q (%v)", exp.name, err)
		}
		res, err := exp.run()
		if err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		// Compare what -json prints: round-trip the result through its
		// encoding so paths are the artifact's field names.
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(enc, &doc); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, 0, len(checks))
		for p := range checks {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			got, err := goldenLookup(doc, p)
			if err != nil {
				t.Errorf("%s.%s: %v", exp.name, p, err)
				continue
			}
			if msg := checks[p].compare(got); msg != "" {
				t.Errorf("%s.%s: %s", exp.name, p, msg)
			}
		}
	}
}
