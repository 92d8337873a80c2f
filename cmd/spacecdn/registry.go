package main

import (
	"fmt"
	"io"

	"time"

	"spacecdn/internal/experiments"
	"spacecdn/internal/measure"
	"spacecdn/internal/report"
	"spacecdn/internal/stats"
)

// experiment is one registry entry: the id the -exp flag accepts, a one-line
// description (-list), whether "all" includes it, and its runner. The
// sweeps that deploy a system per point (resilience, traffic, lifecycle,
// scale-bench) stay out of "all" — they would dominate a full regeneration
// run.
type experiment struct {
	id    string
	desc  string
	inAll bool
	run   func(w io.Writer, s *experiments.Suite, opts options) error
}

// registry lists every experiment in presentation order; the "all" expansion
// and runOne dispatch both derive from it, so an entry added here is
// automatically listable, runnable, and (when inAll) part of "all".
func registry() []experiment {
	return []experiment{
		{"table1", "Table 1: distance and median minRTT to the best CDN per country", true, runTable1},
		{"fig2", "Figure 2: median RTT delta (Starlink - terrestrial) per country", true, runFig2},
		{"fig3", "Figure 3: per-CDN-site latency from one city (-city)", true, runFig3},
		{"fig4", "Figure 4: CDF of the HTTP response time difference", true, runFig4},
		{"fig5", "Figure 5: First Contentful Paint box plots", true, runFig5},
		{"fig7", "Figure 7: SpaceCDN latency by ISL hop distance vs AIM references", true, runFig7},
		{"fig8", "Figure 8: SpaceCDN latency under duty-cycled caching", true, runFig8},
		{"ablation-replicas", "Ablation: replicas per plane vs reachability and latency", true, runAblationReplicas},
		{"capacity", "Section 5 storage arithmetic: fleet-wide cache capacity", true, runCapacity},
		{"geoblock", "Extension: spurious geo-blocking via remote PoPs", true, runGeoblock},
		{"gs-expansion", "Extension: ground-segment expansion with local PoPs", true, runGSExpansion},
		{"duty-sweep", "Extension: duty-cycle sweep (one-way accounting)", true, runDutySweep},
		{"striping", "Extension: video striping prefetch ablation", true, runStriping},
		{"wormhole", "Extension: content wormholing vs WAN push", true, runWormhole},
		{"spacevms", "Extension: Space VM handovers", true, runSpaceVMs},
		{"bufferbloat", "Extension: access-link bufferbloat", true, runBufferbloat},
		{"thermal", "Extension: thermal feasibility of duty-cycled caching", true, runThermal},
		{"hitrate", "Extension: edge-cache hit rates for home-region content", true, runHitrate},
		{"rtt-series", "Subscriber RTT sawtooth across satellite handovers (-city)", true, runRTTSeries},
		{"workload", "Resolve workload: hot/warm/cold mix by serving source", true, runWorkload},
		{"resilience", "Resilience sweep: availability, tail latency and source mix vs failure fraction", false, runResilience},
		{"traffic", "Traffic engine: a million-user streaming day through the resolve path", false, runTraffic},
		{"lifecycle", "Content lifecycle: TTL class mix x churn x purge sweep, coalescing, purge floods", false, runLifecycle},
		{"scale-bench", "Scale sweep: snapshot, sweep and resolve costs vs constellation size (printed, ungated)", false, runScaleBench},
	}
}

func runTable1(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.Table1()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Table 1: distance to best CDN and median minRTT",
		"Country", "Terr km", "Terr minRTT ms", "Starlink km", "Starlink minRTT ms")
	for _, r := range rows {
		t.AddRow(r.Name, r.TerrDistKm, r.TerrMinRTT, r.StarDistKm, r.StarMinRTT)
	}
	return t.Render(w)
}

func runFig2(w io.Writer, s *experiments.Suite, opts options) error {
	rows, pops, err := s.Fig2()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, map[string]interface{}{"deltas": rows, "pops": pops})
	}
	t := report.NewTable("Figure 2: median RTT delta (Starlink - terrestrial) per country",
		"Country", "Delta ms")
	for _, r := range rows {
		t.AddRow(r.Country, r.DeltaMs)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	p := report.NewTable(fmt.Sprintf("Operational PoPs (%d)", len(pops)), "PoP", "City")
	for _, pp := range pops {
		p.AddRow(pp.Name, pp.City)
	}
	return p.Render(w)
}

func runFig3(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.Fig3(opts.City)
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	for _, side := range []struct {
		name   string
		series []measure.CityCDNLatency
	}{
		{"(a) Starlink", res.Starlink},
		{"(b) Terrestrial", res.Terrestrial},
	} {
		t := report.NewTable(
			fmt.Sprintf("Figure 3 %s: median latency from %s per CDN site", side.name, res.City),
			"CDN", "Median ms", "Samples")
		for _, c := range side.series {
			t.AddRow(c.CDNCity, c.MedianMs, c.N)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func runFig4(w io.Writer, s *experiments.Suite, opts options) error {
	series, err := s.Fig4()
	if err != nil {
		return err
	}
	if opts.JSON {
		out := map[string][]float64{}
		for _, sr := range series {
			pts := sr.CDF.Points(21)
			xs := make([]float64, len(pts))
			for i, p := range pts {
				xs[i] = p.X
			}
			out[sr.Country] = xs
		}
		return report.WriteJSON(w, out)
	}
	fig := report.Figure{
		Title:  "Figure 4: HTTP response time difference (Starlink - terrestrial)",
		XLabel: "difference ms", YLabel: "CDF",
	}
	for _, sr := range series {
		pts := sr.CDF.Points(41)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.P
		}
		srs, err := report.NewSeries(sr.Country, xs, ys)
		if err != nil {
			return err
		}
		fig.Series = append(fig.Series, srs)
	}
	return fig.Render(w)
}

func runFig5(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.Fig5()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Figure 5: First Contentful Paint (ms)",
		"Country", "Network", "Min", "Q1", "Median", "Q3", "Max", "N")
	for _, r := range rows {
		t.AddRow(r.Country, string(r.Network), r.Box.Min, r.Box.Q1, r.Box.Median, r.Box.Q3, r.Box.Max, r.Box.N)
	}
	return t.Render(w)
}

func runFig7(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.Fig7()
	if err != nil {
		return err
	}
	if opts.JSON {
		out := map[string][]float64{}
		for n, cdf := range res.Hop {
			out[fmt.Sprintf("%d-isl", n)] = quantiles(cdf)
		}
		out["starlink"] = quantiles(res.Starlink)
		out["terrestrial"] = quantiles(res.Terrestrial)
		return report.WriteJSON(w, out)
	}
	fig := report.Figure{
		Title:  "Figure 7: SpaceCDN latency by ISL hop distance vs AIM references",
		XLabel: "latency ms", YLabel: "CDF",
	}
	for _, n := range experiments.Fig7HopCounts {
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("%d ISL", n), res.Hop[n]))
	}
	fig.Series = append(fig.Series,
		cdfSeries("starlink (AIM)", res.Starlink),
		cdfSeries("terrestrial (AIM)", res.Terrestrial),
	)
	return fig.Render(w)
}

func runFig8(w io.Writer, s *experiments.Suite, opts options) error {
	rows, terr, err := s.Fig8()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, map[string]interface{}{"rows": rows, "terrestrialMedianMs": terr})
	}
	t := report.NewTable("Figure 8: SpaceCDN latency under duty-cycled caching (ms)",
		"Cache-enabled", "Min", "Q1", "Median", "Q3", "Max", "N")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d%%", r.FractionPct), r.Box.Min, r.Box.Q1, r.Box.Median, r.Box.Q3, r.Box.Max, r.Box.N)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "terrestrial median reference: %.1f ms\n", terr)
	return err
}

func runAblationReplicas(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.AblationReplicas()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Ablation: replicas per plane vs reachability",
		"Replicas/plane", "Median ms", "P90 ms", "Median hops", "Max hops", "Reachable")
	for _, r := range rows {
		t.AddRow(r.ReplicasPerPlane, r.MedianRTTMs, r.P90RTTMs, r.MedianHops, r.MaxHops,
			fmt.Sprintf("%.0f%%", r.Reachable*100))
	}
	return t.Render(w)
}

func runCapacity(w io.Writer, _ *experiments.Suite, opts options) error {
	res := experiments.PaperCapacity()
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("§5 storage arithmetic", "Satellites", "Per-sat TB", "Total PB", "2h videos")
	t.AddRow(res.Satellites, res.PerSatBytes>>40, res.TotalPB, res.VideosStored)
	return t.Render(w)
}

func runGeoblock(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.GeoBlocking()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E10: spurious geo-blocking (content licensed at home, blocked at the PoP)",
		"Country", "PoP country", "Starlink spurious", "Terrestrial spurious", "Requests")
	for _, r := range rows {
		t.AddRow(r.Country, r.PoPISO,
			fmt.Sprintf("%.1f%%", 100*r.StarlinkSpuriousRate),
			fmt.Sprintf("%.1f%%", 100*r.TerrestrialSpuriousRate), r.Requests)
	}
	return t.Render(w)
}

func runGSExpansion(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.GroundExpansion()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E11: ground-segment expansion (local PoPs deployed)",
		"Country", "Baseline ms", "Expanded ms", "Baseline km", "Expanded km")
	for _, r := range rows {
		t.AddRow(r.Country, r.BaselineMs, r.ExpandedMs, r.BaselineDist, r.ExpandedDist)
	}
	return t.Render(w)
}

func runDutySweep(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.DutyCycleSweep()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E12: duty-cycle sweep (one-way accounting, 4 replicas/plane)",
		"Cache-enabled", "Median ms", "P90 ms", "Median hops", "Found")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d%%", r.FractionPct), r.MedianMs, r.P90Ms, r.MedianHops,
			fmt.Sprintf("%.0f%%", 100*r.FoundRate))
	}
	return t.Render(w)
}

func runStriping(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.StripingAblation()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E13: video striping prefetch ablation",
		"Viewer", "Segments", "Sats", "Cold startup ms", "Warm startup ms", "Warm from space")
	for _, r := range rows {
		t.AddRow(r.City, r.Segments, r.Satellites, r.ColdStartupMs, r.WarmStartupMs,
			fmt.Sprintf("%d/%d", r.WarmFromSpace, r.Segments))
	}
	return t.Render(w)
}

func runWormhole(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.Wormholing()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E14: content wormholing vs 10 Gbps WAN push",
		"Route", "Object TB", "Orbit transit min", "WAN hours", "Wormhole wins")
	for _, r := range rows {
		t.AddRow(r.Route, r.ObjectTB, r.TransitMin, r.WANHours, r.WormholeWin)
	}
	return t.Render(w)
}

func runSpaceVMs(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.SpaceVMs()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E15: Space VM handovers (proactive delta sync vs cold migration)",
		"Area", "Handovers", "Mean downtime ms", "Max ms", "Cold total ms", "Availability", "Cold avail")
	for _, r := range rows {
		t.AddRow(r.City, r.Handovers, r.MeanDowntimeMs, r.MaxDowntimeMs, r.ColdDowntimeMs,
			fmt.Sprintf("%.4f", r.Availability), fmt.Sprintf("%.4f", r.ColdAvailability))
	}
	return t.Render(w)
}

func runBufferbloat(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.Bufferbloat()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E16: access-link bufferbloat (idle vs loaded RTT)",
		"Network", "Median idle ms", "Median loaded ms", "Median inflation", "P90 inflation", ">200ms share", "N")
	for _, r := range rows {
		t.AddRow(string(r.Network), r.MedianIdleMs, r.MedianLoadedMs,
			r.MedianInflation, r.P90Inflation, fmt.Sprintf("%.0f%%", 100*r.Share200), r.N)
	}
	return t.Render(w)
}

func runThermal(w io.Writer, s *experiments.Suite, opts options) error {
	rows, maxDuty, err := s.ThermalFeasibility()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, map[string]interface{}{"rows": rows, "sustainableDuty": maxDuty})
	}
	t := report.NewTable("Extension E17: thermal feasibility of duty-cycled caching",
		"Cache-enabled", "Peak C", "Time over 30C", "Sustainable")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d%%", r.FractionPct), r.PeakC,
			fmt.Sprintf("%.1f%%", 100*r.OverShare), r.Sustainable)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "passive-cooling envelope sustains up to %.0f%% duty\n", 100*maxDuty)
	return err
}

func runHitrate(w io.Writer, s *experiments.Suite, opts options) error {
	rows, err := s.CacheMissRates()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, rows)
	}
	t := report.NewTable("Extension E18: edge-cache hit rates for home-region content",
		"Country", "Terr edge", "Terr hit", "Starlink edge", "Starlink hit")
	for _, r := range rows {
		t.AddRow(r.Country, r.TerrestrialEdge, fmt.Sprintf("%.0f%%", 100*r.TerrestrialHit),
			r.StarlinkEdge, fmt.Sprintf("%.0f%%", 100*r.StarlinkHit))
	}
	return t.Render(w)
}

func runRTTSeries(w io.Writer, s *experiments.Suite, opts options) error {
	// A subscriber's latency sawtooth across satellite handovers (paper §2:
	// connectivity changes every few minutes, paths reconfigure every 15 s).
	cityName := opts.City
	if cityName == "" {
		cityName = "Maputo"
	}
	cc, ok := geoCity(cityName)
	if !ok {
		return fmt.Errorf("unknown city %q", cityName)
	}
	rng := stats.NewRand(42)
	series, err := s.Env.LSN.RTTTimeSeries(cc.Loc, cc.Country, 0, 10*time.Minute, rng)
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, series)
	}
	t := report.NewTable(fmt.Sprintf("RTT time series from %s (15s reconfig intervals)", cc.Name),
		"t", "RTT ms", "Serving sat", "Handover")
	for _, sm := range series {
		t.AddRow(sm.At, float64(sm.RTT)/float64(time.Millisecond), sm.UpSat, sm.Handover)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "handover rate: %.2f per minute\n", lsnHandoverRate(series))
	return err
}

func runWorkload(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.ResolveWorkload()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("Resolve workload: hot/warm/cold mix by serving source",
		"Source", "Requests", "Median ms", "P90 ms", "Mean hops")
	for _, r := range res.Rows {
		t.AddRow(r.Source, r.Requests, r.MedianMs, r.P90Ms, r.MeanHops)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%d requests, %d errors\n", res.Requests, res.Errors)
	return err
}

func runResilience(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.Resilience()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("Resilience: serving through a degraded constellation",
		"Sat fail", "ISL fail", "PoP fail", "Outages", "Avail", "Median ms", "P99 ms", "P99 infl",
		"Overhead", "ISL", "Ground", "Failovers (up/rep/pop)")
	for _, r := range res.Rows {
		t.AddRow(
			fmt.Sprintf("%.0f%%", 100*r.SatFraction),
			fmt.Sprintf("%.0f%%", 100*r.ISLFraction),
			fmt.Sprintf("%.0f%%", 100*r.PoPFraction),
			r.Outages,
			fmt.Sprintf("%.2f%%", 100*r.Availability),
			r.MedianMs, r.P99Ms,
			fmt.Sprintf("%+.1f%%", r.P99InflationPct),
			fmt.Sprintf("%.0f%%", 100*r.OverheadShare),
			fmt.Sprintf("%.0f%%", 100*r.ISLShare),
			fmt.Sprintf("%.0f%%", 100*r.GroundShare),
			fmt.Sprintf("%d/%d/%d", r.UplinkFailovers, r.ReplicaFailovers, r.PoPFailovers),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "zero-fault pipeline identical to fault-free build: %v\n", res.ZeroFaultIdentical)
	return err
}

func runTraffic(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.Traffic()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("Traffic engine: a streaming day through the resolve path",
		"Users", "Sim hours", "Requests", "Peak step", "Sustained req/s", "Resolve req/s")
	t.AddRow(res.Users, res.SimHours, res.Requests, res.PeakStepRequests,
		res.SustainedReqPerSec, res.ResolveReqPerSec)
	if err := t.Render(w); err != nil {
		return err
	}
	m := report.NewTable("Serving mix and client latency",
		"Overhead", "ISL", "Ground", "Mean ms", "P50 ms", "P95 ms", "P99 ms", "Errors")
	m.AddRow(
		fmt.Sprintf("%.0f%%", 100*res.OverheadShare),
		fmt.Sprintf("%.0f%%", 100*res.ISLShare),
		fmt.Sprintf("%.0f%%", 100*res.GroundShare),
		res.MeanMs, res.P50Ms, res.P95Ms, res.P99Ms, res.Errors)
	if err := m.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"churn: %d releases, %d flash crowds, %d regional events; %d sessions opened (%d re-fetches)\n",
		res.Releases, res.FlashCrowds, res.RegionalEvents, res.SessionsOpened, res.SessionRequests)
	return err
}

func runLifecycle(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.Lifecycle()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("Content lifecycle: serve mix under TTL class mix x churn x purge rate",
		"Mix", "Step s", "Purges", "Requests", "Fresh", "Stale", "Expired", "Miss",
		"Fetches", "Coalesced", "Inconsistent", "Bulk hits", "Promotions")
	for _, r := range res.Rows {
		t.AddRow(r.Mix, r.StepSeconds, r.PurgesPerStep, r.Requests,
			fmt.Sprintf("%.0f%%", 100*r.FreshShare),
			fmt.Sprintf("%.0f%%", 100*r.StaleShare),
			fmt.Sprintf("%.0f%%", 100*r.ExpiredShare),
			fmt.Sprintf("%.0f%%", 100*r.MissShare),
			r.OriginFetches, r.Coalesced, r.Inconsistent, r.BulkHits, r.Promotions)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	f := report.NewTable("Flash crowd coalescing and purge propagation",
		"Crowd reqs", "Cells", "Origin needed", "Flights", "Reduction", "Purge window ms", "Mean ms", "P99 ms")
	f.AddRow(res.FlashRequests, res.FlashCells, res.FlashOriginNeeded, res.FlashOriginFetches,
		fmt.Sprintf("%.0fx", res.ReductionX), res.PurgeWindowMs, res.PurgeMeanMs, res.PurgeP99Ms)
	if err := f.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"purge reached %d/%d sats (masked: %d/%d with %d dead); TTL response: %v; disabled path identical: %v\n",
		res.PurgeReached, res.PurgeTotalSats, res.MaskedReached, res.PurgeTotalSats,
		res.MaskedDeadSats, res.TTLResponse, res.DisabledIdentical)
	return err
}

func runScaleBench(w io.Writer, s *experiments.Suite, opts options) error {
	res, err := s.ScaleBench()
	if err != nil {
		return err
	}
	if opts.JSON {
		return report.WriteJSON(w, res)
	}
	t := report.NewTable("Mega-constellation scale sweep",
		"Config", "Sats", "Shells", "Grid", "Snapshot ms", "Sweep steps/s", "Allocs/step", "Resolve req/s")
	for _, p := range res.Points {
		t.AddRow(p.Name, p.Sats, p.Shells, fmt.Sprintf("%dx%d", p.GridRows, p.GridCols),
			p.SnapshotBuildMs, p.SweepStepsPerSec, p.SweepAllocsPerStep, p.ResolveReqPerSec)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "resolve sub-linear in satellite count: %v; sweep zero-alloc at all scales: %v\n",
		res.ResolveSubLinear, res.SweepZeroAlloc)
	return err
}
