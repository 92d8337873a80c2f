// Package repro holds the repository-level benchmark harness: one benchmark
// per table and figure of the paper (each regenerates and prints its rows or
// series once, then times the computation), plus micro-benchmarks of the hot
// paths underneath them.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/experiments"
	"spacecdn/internal/geo"
	"spacecdn/internal/groundseg"
	"spacecdn/internal/lsn"
	"spacecdn/internal/report"
	"spacecdn/internal/routing"
	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// The shared suite uses the fast configuration so that the full benchmark
// sweep completes in minutes; cmd/spacecdn (without -fast) regenerates the
// full-resolution artifacts.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(true, 42)
		if suiteErr == nil {
			// Generate the shared datasets outside any timer.
			if _, err := suite.AIM(); err != nil {
				suiteErr = err
				return
			}
			_, suiteErr = suite.Web()
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

var printOnce sync.Map

// printArtifact renders an experiment's output exactly once per process so
// that `go test -bench=.` shows the regenerated rows/series.
func printArtifact(name string, render func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n")
		render()
	}
}

func BenchmarkTable1(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("table1", func() {
			t := report.NewTable("Table 1 (regenerated)",
				"Country", "Terr km", "Terr minRTT", "Star km", "Star minRTT")
			for _, r := range rows {
				t.AddRow(r.Name, r.TerrDistKm, r.TerrMinRTT, r.StarDistKm, r.StarMinRTT)
			}
			_ = t.Render(os.Stdout)
		})
	}
}

func BenchmarkFig2(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, pops, err := s.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig2", func() {
			fmt.Printf("Figure 2 (regenerated): %d countries, %d PoPs; first/last deltas: %s %.1f ms ... %s %.1f ms\n",
				len(rows), len(pops), rows[0].Country, rows[0].DeltaMs,
				rows[len(rows)-1].Country, rows[len(rows)-1].DeltaMs)
		})
	}
}

func BenchmarkFig3(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Fig3("")
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig3", func() {
			fmt.Printf("Figure 3 (regenerated): Maputo optimal CDN — starlink %s %.0f ms, terrestrial %s %.0f ms\n",
				res.Starlink[0].CDNCity, res.Starlink[0].MedianMs,
				res.Terrestrial[0].CDNCity, res.Terrestrial[0].MedianMs)
		})
	}
}

func BenchmarkFig4(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig4", func() {
			fmt.Print("Figure 4 (regenerated) median HRT differences: ")
			for _, sr := range series {
				fmt.Printf("%s %.0f ms  ", sr.Country, sr.CDF.Median())
			}
			fmt.Println()
		})
	}
}

func BenchmarkFig5(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig5", func() {
			t := report.NewTable("Figure 5 (regenerated): FCP ms", "Country", "Network", "Median", "Q1", "Q3")
			for _, r := range rows {
				t.AddRow(r.Country, string(r.Network), r.Box.Median, r.Box.Q1, r.Box.Q3)
			}
			_ = t.Render(os.Stdout)
		})
	}
}

func BenchmarkFig7(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig7", func() {
			fmt.Print("Figure 7 (regenerated) medians: ")
			for _, n := range experiments.Fig7HopCounts {
				fmt.Printf("%d-isl %.1f ms  ", n, res.Hop[n].Median())
			}
			fmt.Printf("starlink %.1f ms  terrestrial %.1f ms\n",
				res.Starlink.Median(), res.Terrestrial.Median())
		})
	}
}

func BenchmarkFig8(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, terr, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("fig8", func() {
			fmt.Print("Figure 8 (regenerated) medians: ")
			for _, r := range rows {
				fmt.Printf("%d%% %.1f ms  ", r.FractionPct, r.Box.Median)
			}
			fmt.Printf("(terrestrial median %.1f ms)\n", terr)
		})
	}
}

func BenchmarkAblationReplicas(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationReplicas()
		if err != nil {
			b.Fatal(err)
		}
		printArtifact("ablation", func() {
			fmt.Print("Replica ablation (regenerated): ")
			for _, r := range rows {
				fmt.Printf("k=%d med %.1f ms/%.0f hops  ", r.ReplicasPerPlane, r.MedianRTTMs, r.MedianHops)
			}
			fmt.Println()
		})
	}
}

func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.PaperCapacity()
		if res.TotalPB < 800 {
			b.Fatal("capacity arithmetic broken")
		}
	}
}

// --- micro-benchmarks of the substrates the experiments run on ---

func benchConstellation(b *testing.B) *constellation.Constellation {
	b.Helper()
	c, err := constellation.New(constellation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkSnapshot(b *testing.B) {
	c := benchConstellation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Snapshot(time.Duration(i) * time.Second)
	}
}

func BenchmarkISLGraphBuild(b *testing.B) {
	c := benchConstellation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := c.Snapshot(time.Duration(i) * time.Second)
		_ = snap.ISLGraph()
	}
}

func BenchmarkDijkstraShell1(b *testing.B) {
	c := benchConstellation(b)
	g := c.Snapshot(0).ISLGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ShortestPathsFrom(routing.NodeID(i % g.Len()))
	}
}

func BenchmarkVisibleQuery(b *testing.B) {
	c := benchConstellation(b)
	snap := c.Snapshot(0)
	loc := geo.NewPoint(50.11, 8.68)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = snap.Visible(loc)
	}
}

// benchCityPoints returns the points the traffic model pins its users to:
// the embedded cities of Starlink-covered countries.
func benchCityPoints() []geo.Point {
	var pts []geo.Point
	for _, city := range geo.Cities() {
		if country, ok := geo.CountryByISO(city.Country); ok && country.Starlink {
			pts = append(pts, city.Loc)
		}
	}
	return pts
}

// visibleSink keeps the visibility benchmarks' results alive.
var visibleSink struct {
	best constellation.VisibleSat
	sats atomic.Int64 // the parallel benchmark's goroutines each add once
}

// BenchmarkBestVisibleHit and BenchmarkBestVisibleMiss are twins over the
// same city points: the hit twin asks a snapshot that has already elected
// every city's satellite (the steady state of a serving epoch), the miss
// twin advances a sweep cursor one generation per pass over the cities, so
// every query elects (a cold epoch, and what arbitrary-point callers pay).
func BenchmarkBestVisibleHit(b *testing.B) {
	snap := benchConstellation(b).Snapshot(0)
	pts := benchCityPoints()
	for _, pt := range pts {
		snap.BestVisible(pt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visibleSink.best, _ = snap.BestVisible(pts[i%len(pts)])
	}
}

func BenchmarkBestVisibleMiss(b *testing.B) {
	sw := benchConstellation(b).Sweep(0, 15*time.Second)
	defer sw.Close()
	pts := benchCityPoints()
	snap := sw.At()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(pts) == 0 {
			b.StopTimer()
			snap = sw.Advance()
			b.StartTimer()
		}
		visibleSink.best, _ = snap.BestVisible(pts[i%len(pts)])
	}
}

// BenchmarkVisibleSharedParallel reads memoized visible lists from every
// core at once — the ground stage's access pattern under a parallel batch
// resolve. Compare ns/op across -cpu 1,2: with no lock on the read path it
// must not rise with the core count.
func BenchmarkVisibleSharedParallel(b *testing.B) {
	snap := benchConstellation(b).Snapshot(0)
	pts := benchCityPoints()
	for _, pt := range pts {
		snap.VisibleShared(pt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sats := 0
		for i := 0; pb.Next(); i++ {
			sats += len(snap.VisibleShared(pts[i%len(pts)]))
		}
		visibleSink.sats.Add(int64(sats))
	})
}

func BenchmarkResolvePath(b *testing.B) {
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	snap := c.Snapshot(0)
	loc := geo.NewPoint(-25.97, 32.57)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ResolvePath(loc, "MZ", snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroundPathColdEpoch prices one ground-stage path on a snapshot
// nobody has asked anything of yet — what the first ground-served request
// after every epoch swap or sweep step pays: six uplink trees rooted and
// settled as far as the candidate search needs them.
func BenchmarkGroundPathColdEpoch(b *testing.B) {
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	loc := geo.NewPoint(-25.97, 32.57)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := c.Snapshot(time.Duration(i%240) * 15 * time.Second)
		snap.ISLGraph()
		b.StartTimer()
		if _, err := m.ResolvePath(loc, "MZ", snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathTreeLazyISL prices one ISL leg on a cold snapshot the way the
// resolve path does (islOneWay): root the serving satellite's tree and ask
// for the distance and hop count to a replica five hops away.
func BenchmarkPathTreeLazyISL(b *testing.B) {
	c := benchConstellation(b)
	loc := geo.NewPoint(48.85, 2.35)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		snap := c.Snapshot(time.Duration(i%240) * 15 * time.Second)
		up, ok := snap.BestVisible(loc)
		if !ok {
			b.Fatal("no satellite over Paris")
		}
		ring := snap.ISLGraph().WithinHops(routing.NodeID(up.ID), 5)
		replica := ring[len(ring)-1].Node
		b.StartTimer()
		tree := snap.PathTree(up.ID)
		if _, ok := tree.HopsTo(replica); !ok || tree.Dist(replica) <= 0 {
			b.Fatal("replica unreachable")
		}
	}
}

func BenchmarkSpaceResolve(b *testing.B) {
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, m)
	if err != nil {
		b.Fatal(err)
	}
	obj := content.Object{ID: "bench", Bytes: 1 << 20}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 4}, obj); err != nil {
		b.Fatal(err)
	}
	snap := c.Snapshot(0)
	rng := stats.NewRand(1)
	loc := geo.NewPoint(-1.29, 36.82)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Resolve(loc, "KE", obj, snap, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceResolveTelemetry is BenchmarkSpaceResolve with telemetry
// attached at the CLI's default 1% trace sampling; comparing the two pins
// the instrumentation overhead on the hot path (budget: <=5%).
func BenchmarkSpaceResolveTelemetry(b *testing.B) {
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, m)
	if err != nil {
		b.Fatal(err)
	}
	sys.SetTelemetry(telemetry.New(0.01))
	obj := content.Object{ID: "bench", Bytes: 1 << 20}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 4}, obj); err != nil {
		b.Fatal(err)
	}
	snap := c.Snapshot(0)
	rng := stats.NewRand(1)
	loc := geo.NewPoint(-1.29, 36.82)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Resolve(loc, "KE", obj, snap, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchAtHops(b *testing.B) {
	c := benchConstellation(b)
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, nil)
	if err != nil {
		b.Fatal(err)
	}
	snap := c.Snapshot(0)
	loc := geo.NewPoint(48.85, 2.35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.FetchAtHops(loc, 5, snap, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := cache.NewLRU(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := cache.Key(fmt.Sprintf("k%d", i%10000))
		c.Put(cache.Item{Key: k, Size: 1 << 10})
		c.Get(k)
	}
}

func BenchmarkCatalogSample(b *testing.B) {
	cat, err := content.GenerateCatalog(content.DefaultCatalogConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cat.Sample(geo.RegionAfrica, rng)
	}
}

func BenchmarkStripePlan(b *testing.B) {
	c := benchConstellation(b)
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, nil)
	if err != nil {
		b.Fatal(err)
	}
	obj := content.Object{ID: "vid", Bytes: 1 << 30, Video: true}
	video, err := content.Segmentize(obj, 10*time.Minute, 10*time.Second, 4_500_000)
	if err != nil {
		b.Fatal(err)
	}
	loc := geo.NewPoint(-34.60, -58.38)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.PlanStripes(loc, video, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel engine: batch resolution at one worker vs the full pool ---

// benchBatch builds a system and a mixed request batch (overhead hits, ISL
// searches, ground fallbacks) once; the ResolveAll twins below time the same
// batch at workers=1 and workers=GOMAXPROCS, so their ratio is the engine's
// speedup on this machine.
func benchBatch(b *testing.B) (*spacecdn.System, []spacecdn.Request, *constellation.Snapshot) {
	b.Helper()
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, m)
	if err != nil {
		b.Fatal(err)
	}
	hot := content.Object{ID: "bb-hot", Bytes: 1 << 20, Region: geo.RegionEurope}
	sparse := content.Object{ID: "bb-sparse", Bytes: 1 << 20, Region: geo.RegionEurope}
	cold := content.Object{ID: "bb-cold", Bytes: 1 << 20, Region: geo.RegionEurope}
	if _, err := spacecdn.Apply(sys, spacecdn.PerPlaneSpacing{ReplicasPerPlane: 1}, sparse); err != nil {
		b.Fatal(err)
	}
	snap := c.Snapshot(0)
	clients := []struct {
		loc geo.Point
		iso string
	}{
		{geo.NewPoint(-25.97, 32.57), "MZ"},
		{geo.NewPoint(-1.29, 36.82), "KE"},
		{geo.NewPoint(50.11, 8.68), "DE"},
		{geo.NewPoint(40.42, -3.70), "ES"},
		{geo.NewPoint(-34.60, -58.38), "AR"},
	}
	for _, cl := range clients {
		if up, ok := snap.BestVisible(cl.loc); ok {
			sys.Store(up.ID, hot)
		}
	}
	objs := []content.Object{hot, sparse, cold}
	reqs := make([]spacecdn.Request, 0, 512)
	for i := 0; len(reqs) < cap(reqs); i++ {
		cl := clients[i%len(clients)]
		reqs = append(reqs, spacecdn.Request{Client: cl.loc, ISO2: cl.iso, Obj: objs[i%len(objs)]})
	}
	snap.ISLGraph() // keep the lazy build out of the timed region
	return sys, reqs, snap
}

func BenchmarkResolveAllSequential(b *testing.B) {
	sys, reqs, snap := benchBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.ResolveAll(reqs, snap, stats.NewRand(1), 1)
	}
}

func BenchmarkResolveAllParallel(b *testing.B) {
	sys, reqs, snap := benchBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.ResolveAll(reqs, snap, stats.NewRand(1), 0)
	}
}

// BenchmarkResolveOnceParallel is the serving path's scaling pair without
// the bench/ harness: `go test -bench ResolveOnce -cpu 1,2` prints ns/op of
// Server.ResolveOnce on a pinned static epoch, telemetry attached, with one
// and with two request goroutines (each on its own Scratch and its own
// stride of the hot/warm/cold stream). ns/op is wall time over all
// goroutines' requests, so a second core that is worth a second core halves
// it. Printed, never gated — the measured numbers are bench/'s.
func BenchmarkResolveOnceParallel(b *testing.B) {
	c := benchConstellation(b)
	m := lsn.NewModel(c, groundseg.NewCatalog(), lsn.DefaultConfig())
	sys, err := spacecdn.NewSystem(spacecdn.DefaultConfig(), c, m)
	if err != nil {
		b.Fatal(err)
	}
	sys.SetTelemetry(telemetry.New(0.01))
	srv, err := serve.New(sys, serve.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	wl, err := srv.PlaceWorkload(0)
	if err != nil {
		b.Fatal(err)
	}
	// The warm-up pass also drops the cities Shell 1 does not cover.
	var reqs []spacecdn.Request
	warm := srv.AcquireScratch()
	for _, r := range wl.Log(3 * len(wl.Cities)) {
		if _, err := srv.ResolveOnce(r, warm); err == nil {
			reqs = append(reqs, r)
		}
	}
	srv.ReleaseScratch(warm)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := srv.AcquireScratch()
		defer srv.ReleaseScratch(sc)
		for i := int(worker.Add(1)) * 7; pb.Next(); i++ {
			if _, err := srv.ResolveOnce(reqs[i%len(reqs)], sc); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// The workload experiment end to end, sequential vs pooled: the same rows
// come out of both (asserted by TestSuiteParallelDeterminism); this pair
// times the difference.
func BenchmarkWorkloadSequential(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetWorkers(1)
		if _, err := s.ResolveWorkload(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadParallel(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetWorkers(0)
		if _, err := s.ResolveWorkload(); err != nil {
			b.Fatal(err)
		}
	}
}
