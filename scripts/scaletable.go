//go:build ignore

// Command scaletable renders the README's mega-constellation scale table
// from the scale sweep's JSON on stdin:
//
//	go run ./cmd/spacecdn -exp scale-bench -json | go run ./scripts/scaletable.go
//
// The markdown table goes to stdout; paste it over the table in README.md
// when refreshing the published numbers. Run the full (non -fast) sweep for
// the README so all three scale points appear.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type point struct {
	Name               string
	Sats               int
	Shells             int
	GridRows, GridCols int
	SnapshotBuildMs    float64
	SweepStepsPerSec   float64
	SweepAllocsPerStep float64
	ResolveReqPerSec   float64
}

type result struct {
	Points           []point
	ResolveSubLinear bool
	SweepZeroAlloc   bool
}

func main() {
	var res result
	if err := json.NewDecoder(os.Stdin).Decode(&res); err != nil {
		fmt.Fprintf(os.Stderr, "scaletable: parse: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("| Configuration | Sats | Shells | Grid | Snapshot build | Sweep steps/s | Resolve req/s |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, p := range res.Points {
		fmt.Printf("| %s | %d | %d | %dx%d | %.2f ms | %.0f | %.0f |\n",
			p.Name, p.Sats, p.Shells, p.GridRows, p.GridCols,
			p.SnapshotBuildMs, p.SweepStepsPerSec, p.ResolveReqPerSec)
	}
	fmt.Printf("\nresolve sub-linear in satellite count: %v; sweep advances allocation-free at every scale: %v\n",
		res.ResolveSubLinear, res.SweepZeroAlloc)
}
