package main

// The benchmark's declared surface: four workloads, the end-to-end metrics
// every workload reports with tracing off, and the per-layer metrics the
// traced run reports. BENCHMARK.json at the repository root carries the same
// names; manifest_test.go holds the two in lockstep.

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	wlDayHTTP      = "day-http"
	wlDayInproc    = "day-inproc"
	wlStaticPinned = "static-pinned"
	wlSimDay       = "sim-day"
)

var workloadSpecs = []workloadSpec{
	{wlDayHTTP, "traffic-day stream over keep-alive HTTP loopback through the live daemon stack (sweeper, lifecycle applier, encode): the only workload where net/http, query parsing and response encoding work"},
	{wlDayInproc, "same server, stream and sweeper driven through Server.ResolveOnce: everything day-http does minus sockets, so a transport-only change must show no change here"},
	{wlStaticPinned, "static placement on a pinned epoch without lifecycle: reads only, half of requests fall to ground, so ResolvePath, NearestInSet and the per-satellite cache mutex dominate"},
	{wlSimDay, "the batch reproduction loop over the full day (NextBatch, sweep cursor, release placement, ResolveAll): the only workload on traffic generation, the cursor and the parallel batch resolve"},
}

// e2eSpec is one end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type e2eSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Doc    string
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.25, "median wall time of a full set-up: environment, system, traffic stream, placement, server start, until the first request can be served"},
	{"req_per_s", "req/s", "higher", 0.12, "requests completed per wall second, closed loop (sim-day: requests over the whole loop's wall time); median over segments"},
	{"ok_share", "share", "higher", 0.0005, "requests that returned a valid response over requests attempted (1 - failed share)"},
	{"lat_p50_us", "us", "lower", 0.20, "median wall time of one request as the client times it (sim-day: a step's wall time per request, median over steps)"},
	{"lat_p99_us", "us", "lower", 0.25, "99th percentile of the same, median over segments"},
	{"sim_rtt_p50_ms", "ms", "lower", 0.05, "median simulated client-observed RTT of served responses, the paper's metric"},
	{"sim_rtt_p99_ms", "ms", "lower", 0.03, "99th percentile simulated RTT"},
	{"peak_rss_mb", "MB", "lower", 0.15, "VmHWM of the workload's process when the measured segments end"},
}

// layerSpec is one per-layer metric: the layer is the module name before the
// first dot, Moves names the end-to-end metric and workload it should move.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	How    string
	Moves  string
}

var layerSpecs = []layerSpec{
	{"traffic.gen_req_per_s", "req/s", "higher", "time Generator.NextBatch", "sim-day req_per_s (about 1 % share), setup_s of the serve workloads; none elsewhere"},
	{"traffic.peak_batch", "count", "lower", "largest NextBatch", "sim-day lat_p99_us and peak_rss_mb"},

	{"constellation.snapshot_build_us", "us", "lower", "Constellation.Snapshot + ISLGraph + System.NewEpoch over consecutive 15 s steps, median", "day-* lat_p99_us (the sweeper steals a core every 100 ms); none on static-pinned, sim-day"},
	{"constellation.cursor_advance_us", "us", "lower", "Sweep.AdvanceTo + ISLGraph over the same steps, median", "sim-day req_per_s; its ratio to snapshot_build_us sizes the daemon-rides-the-cursor item"},
	{"constellation.best_visible_ns", "ns", "lower", "Snapshot.BestVisible(client) over the stream", "req_per_s on all four (stage 0 of every request)"},
	{"constellation.path_tree_cold_us", "us", "lower", "first Snapshot.PathTree(src) on a fresh snapshot, median", "day-* lat_p99_us and req_per_s, sim-day req_per_s (memo invalidated every epoch or step); none on static-pinned"},
	{"constellation.path_tree_warm_ns", "ns", "lower", "second Snapshot.PathTree(src), mean", "req_per_s and lat_p50_us of ISL-served requests on all four"},
	{"constellation.path_memo_hit_share", "share", "higher", "PathMemoCounters delta over the measured segments", "day-* and sim-day req_per_s; none on static-pinned (memo warm)"},
	{"constellation.path_memo_misses_per_epoch", "count", "lower", "PathMemoCounters misses per published epoch or step", "day-* lat_p99_us, sim-day req_per_s"},

	{"routing.nearest_in_set_ns", "ns", "lower", "ISLGraph.NearestInSet(up, MaxISLSearchHops, ReplicaSet(obj), nil), mean", "req_per_s on all, largest on static-pinned (cold objects short-circuit, warm ones BFS)"},
	{"routing.bfs_per_req", "count", "lower", "routing.Counters BFS delta per request", "req_per_s on all four"},
	{"routing.dijkstra_per_req", "count", "lower", "routing.Counters Dijkstra delta per request", "day-* and sim-day req_per_s (path-tree misses); about zero on static-pinned"},

	{"lsn.resolve_path_us", "us", "lower", "lsn.Model.ResolvePath on ground-served requests, median", "static-pinned and sim-day req_per_s (half of requests go to ground); about none on day-* after pull-through"},

	{"cache.get_ns", "ns", "lower", "CacheOf(sat).Get from one goroutine, mean", "static-pinned and day-inproc req_per_s"},
	{"cache.get_contended_ns", "ns", "lower", "the same from every client goroutine on one satellite, mean per call", "serve.scaling_x, static-pinned req_per_s"},
	{"cache.put_ns", "ns", "lower", "System.Store on a scratch system, mean", "day-* req_per_s (pull-through fills) and setup_s; none on static-pinned"},
	{"cache.fleet_hit_share", "share", "higher", "System.Metrics hits / lookups", "sim_rtt_* on day-*"},
	{"cache.evictions", "count", "lower", "System.Metrics", "peak_rss_mb and sim_rtt_* on day-*"},
	{"cache.items", "count", "lower", "System.Metrics", "peak_rss_mb on day-*"},

	{"lifecycle.fresh_share", "share", "higher", "LifecycleStats delta per request", "day-* sim_rtt_*; zero on static-pinned, sim-day"},
	{"lifecycle.stale_share", "share", "lower", "LifecycleStats delta per request", "day-* req_per_s (each revalidation is a cache write through the applier)"},
	{"lifecycle.expired_share", "share", "lower", "LifecycleStats delta per request", "day-* sim_rtt_* and req_per_s"},
	{"lifecycle.miss_share", "share", "lower", "LifecycleStats delta per request", "day-* sim_rtt_* and req_per_s"},
	{"lifecycle.origin_fetch_share", "share", "lower", "LifecycleStats delta per request", "day-* req_per_s (each origin fetch is a cache write)"},
	{"lifecycle.coalesced_share", "share", "higher", "LifecycleStats delta per request", "day-* req_per_s"},
	{"lifecycle.purge_flood_ms", "ms", "lower", "System.IssuePurge wall time on a scratch system", "none today: baseline for the parked purge API"},

	{"spacecdn.resolve_at_ns.overhead", "ns", "lower", "System.ResolveAt on a pinned warm epoch, one goroutine, median by source", "req_per_s and lat_p50_us on the serve workloads"},
	{"spacecdn.resolve_at_ns.isl", "ns", "lower", "as above", "req_per_s and lat_p50_us on the serve workloads"},
	{"spacecdn.resolve_at_ns.ground", "ns", "lower", "as above", "req_per_s and lat_p50_us on static-pinned"},
	{"spacecdn.self_ns", "ns", "lower", "root span minus its shadow children, warm traced pass, mean", "shows whether a pipeline-collapse change moved glue or stages"},
	{"spacecdn.attributed_share", "share", "higher", "shadow children / root span, warm traced pass", "reading aid for the stage table"},
	{"spacecdn.share_overhead", "share", "higher", "responses by source over the measured segments", "sim_rtt_* everywhere"},
	{"spacecdn.share_isl", "share", "higher", "responses by source", "sim_rtt_* everywhere"},
	{"spacecdn.share_ground", "share", "lower", "responses by source", "sim_rtt_* everywhere"},
	{"spacecdn.resolve_all_req_per_s.w1", "req/s", "higher", "ResolveAll on the first sim-day steps, one worker", "sim-day req_per_s"},
	{"spacecdn.resolve_all_req_per_s.wN", "req/s", "higher", "the same at the client count", "sim-day req_per_s"},
	{"parallel.efficiency", "share", "higher", "wN / (N x w1)", "sim-day req_per_s"},

	{"serve.resolve_once_ns", "ns", "lower", "Server.ResolveOnce on the pinned twin, median", "day-inproc, static-pinned lat_p50_us"},
	{"serve.overhead_ns", "ns", "lower", "ResolveOnce minus ResolveAt, medians over the same requests", "day-inproc, static-pinned lat_p50_us"},
	{"serve.http_overhead_us", "us", "lower", "median one-connection HTTP round trip minus median ResolveOnce", "day-http lat_p50_us and req_per_s; must not move day-inproc"},
	{"serve.scaling_x", "x", "higher", "req_per_s at the client count over req_per_s at one client", "contention indicator for the cache mutex and shared atomics"},
	{"serve.epoch_swap_p50_ms", "ms", "lower", "Server.Stats", "day-* lat_p99_us"},
	{"serve.epoch_swap_p99_ms", "ms", "lower", "Server.Stats", "day-* lat_p99_us"},
	{"serve.epochs", "count", "higher", "Server.Stats", "day-* path_memo_misses_per_epoch denominator"},
	{"serve.stale_share", "share", "lower", "Server.Stats stale serves per request", "day-* sim_rtt_*"},
	{"serve.open_p50_us.r4k", "us", "lower", "day-http only: Poisson schedule at 4000 req/s, latency from due time", "diagnostic"},
	{"serve.open_p99_us.r4k", "us", "lower", "as above", "diagnostic"},
	{"serve.open_p50_us.r16k", "us", "lower", "as above at 16000 req/s", "diagnostic"},
	{"serve.open_p99_us.r16k", "us", "lower", "as above at 16000 req/s", "diagnostic"},
	{"bench.gen_late_p50_us", "us", "lower", "how late the open-loop generator sent, both rates", "diagnostic: bounds what the open-loop rows can resolve"},
	{"bench.gen_late_p99_us", "us", "lower", "as above", "diagnostic"},

	{"telemetry.record_ns", "ns", "lower", "ResolveAt with telemetry attached minus without, means", "req_per_s on the serve workloads; guards the observability item"},
	{"telemetry.scrape_ms", "ms", "lower", "one Prometheus exposition of the workload's registry", "day-* lat_p99_us while an operator scrapes"},
	{"telemetry.scrape_kb", "kB", "lower", "size of that exposition", "telemetry.scrape_ms"},

	{"process.allocs_per_req", "count", "lower", "runtime.MemStats.Mallocs delta per request over the measured segments (the benchmark's own loop allocates nothing per request)", "day-inproc, static-pinned, sim-day req_per_s and peak_rss_mb"},
	{"process.gc_cycles", "count", "lower", "runtime.MemStats delta over the measured segments", "lat_p99_us, peak_rss_mb"},
	{"process.gc_pause_ms", "ms", "lower", "runtime.MemStats delta", "lat_p99_us"},
	{"process.heap_mb", "MB", "lower", "HeapAlloc when the segments end", "peak_rss_mb"},

	{"trace.overhead_share", "share", "lower", "1 - traced req/s over untraced req/s, same requests, sequential", "reading aid: how much the traced pass distorts"},
	{"trace.root_ns.cold", "ns", "lower", "mean root span, first pass (cold path memo)", "day-* lat_p99_us"},
	{"trace.root_ns.warm", "ns", "lower", "mean root span, second pass", "lat_p50_us on the serve workloads"},
	{"trace.stage_ns.best_visible", "ns", "lower", "mean shadow span per request, warm pass", "req_per_s on all four"},
	{"trace.stage_ns.replica_set", "ns", "lower", "as above", "req_per_s on all four"},
	{"trace.stage_ns.cache_peek", "ns", "lower", "as above", "req_per_s on all four"},
	{"trace.stage_ns.nearest_in_set", "ns", "lower", "as above", "static-pinned req_per_s"},
	{"trace.stage_ns.path_tree", "ns", "lower", "as above", "req_per_s of ISL-served requests"},
	{"trace.stage_ns.lsn_resolve_path", "ns", "lower", "as above", "static-pinned, sim-day req_per_s"},
}
