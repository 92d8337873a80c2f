package main

import (
	"fmt"
	"io"
)

// verdict of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the before/after table.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              summary
	Ratio                  float64 // new / base
	Bound                  float64
	Verdict                string
}

// judge compares one metric of one workload. The new median may be worse
// than the base by at most the bound; where either side's own spread is
// wider than the bound the row cannot tell a regression from noise and is
// unresolved, never silently ok.
func judge(m e2eSpec, base, cur summary) compareRow {
	row := compareRow{Metric: m.Name, Unit: m.Unit, Base: base, New: cur, Bound: m.Bound, Verdict: verdictOK}
	if base.Median != 0 {
		row.Ratio = cur.Median / base.Median
	}
	worse := cur.Median > base.Median*(1+m.Bound)
	if m.Better == "higher" {
		worse = cur.Median < base.Median*(1-m.Bound)
	}
	switch {
	case worse:
		row.Verdict = verdictWorse
	case base.spread() > m.Bound || cur.spread() > m.Bound:
		row.Verdict = verdictUnresolved
	}
	return row
}

// compareResults builds one row per workload × end-to-end metric present in
// both files.
func compareResults(base, cur *resultFile) []compareRow {
	byName := map[string]*workloadResult{}
	for _, w := range base.Workloads {
		byName[w.Workload] = w
	}
	var rows []compareRow
	for _, w := range cur.Workloads {
		b, ok := byName[w.Workload]
		if !ok {
			continue
		}
		for _, m := range e2eSpecs {
			bs, okB := b.E2E[m.Name]
			cs, okC := w.E2E[m.Name]
			if !okB || !okC {
				continue
			}
			row := judge(m, bs, cs)
			row.Workload = w.Workload
			rows = append(rows, row)
		}
	}
	return rows
}

func runCompare(stdout, stderr io.Writer, basePath, newPath string) int {
	var base, cur resultFile
	err := readJSON(basePath, &base)
	if err == nil {
		err = readJSON(newPath, &cur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "base: %s\nnew:  %s\n", base.Stamp, cur.Stamp)
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %-6s %18s %7s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict")
	worse := 0
	for _, r := range compareResults(&base, &cur) {
		fmt.Fprintf(stdout, "%-14s %-16s %14.4f %14.4f %-6s %7.4f of %-8.4g %6.2f%%  %s", r.Workload, r.Metric, r.Base.Median, r.New.Median, r.Unit, r.Ratio, r.Base.Median, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictUnresolved {
			fmt.Fprintf(stdout, " (spread base %.1f %%, new %.1f %%)", 100*r.Base.spread(), 100*r.New.spread())
		}
		fmt.Fprintln(stdout)
		if r.Verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d rows worse than their bound\n", worse)
		return 1
	}
	return 0
}
