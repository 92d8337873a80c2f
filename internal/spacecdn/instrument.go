package spacecdn

import (
	"sync"
	"time"

	"spacecdn/internal/cache"
	"spacecdn/internal/lsn"
	"spacecdn/internal/routing"
	"spacecdn/internal/telemetry"
)

// Telemetry wiring for the resolve path. The handle pattern keeps the hot
// path cheap: SetTelemetry resolves every named instrument once, and Resolve
// only touches pre-resolved atomic handles — no map lookups or allocations
// per request, and a single nil check when telemetry is detached.

// instruments holds the pre-resolved metric handles the resolve path updates.
type instruments struct {
	tel *telemetry.Telemetry

	// requests is indexed by Source; the numSources sentinel sizes it so a
	// new source cannot be added without a label slot.
	requests [numSources]*telemetry.Counter
	errors   *telemetry.Counter
	rttMs    *telemetry.Histogram
	hops     *telemetry.Histogram

	// Degraded-mode instruments: one labelled counter per failover kind, a
	// histogram over the source index of degraded requests (the paper-style
	// source-mix shift under faults), and the degraded RTT distribution.
	failovers   [numFailoverKinds]*telemetry.Counter
	degradedSrc *telemetry.Histogram
	degradedRTT *telemetry.Histogram

	// Lifecycle instruments: serve mix by freshness, coalescing savings,
	// inconsistency-window serves, and the purge propagation distribution.
	lcServes       [numServeClasses]*telemetry.Counter
	lcCoalesced    *telemetry.Counter
	lcInconsistent *telemetry.Counter
	lcPurgeMs      *telemetry.Histogram
}

// resolveDetail carries the latency components of one resolution so record
// can decompose the RTT into trace spans. It is filled by assignment only —
// the instrumented path allocates nothing until a request is sampled.
type resolveDetail struct {
	uplinkRTT time.Duration // two-way terminal <-> overhead satellite
	islRTT    time.Duration // two-way ISL leg incl. per-hop switching (ISL source)
	ground    lsn.Path      // resolved ground path (ground source)
	hasGround bool

	// Degraded-mode flags (set only on a degraded epoch, ep.fv != nil).
	degraded        bool // the request ran the fault-aware pipeline
	uplinkFailover  bool // overhead satellite was dead, re-homed
	replicaFailover bool // replica set intersected the dead mask
	popFailover     bool // served by a non-assigned PoP
}

// SetTelemetry attaches (or, with nil, detaches) telemetry. Attaching wires
// the per-request instruments and registers a collector that exports the
// point-in-time fleet view — cache hit/miss/eviction counters (with a
// per-reason breakdown), bytes used, and the routing package's path
// computation counters — at every exposition.
func (s *System) SetTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		s.inst = nil
		if s.lsn != nil {
			s.lsn.SetTelemetry(nil)
		}
		return
	}
	reg := t.Registry()
	in := &instruments{
		tel:    t,
		errors: reg.Counter("spacecdn_resolve_errors_total"),
		rttMs:  reg.Histogram("spacecdn_resolve_rtt_ms", telemetry.LatencyBucketsMs),
		hops:   reg.Histogram("spacecdn_resolve_isl_hops", telemetry.HopBuckets),
	}
	for _, src := range Sources() {
		in.requests[src] = reg.Counter("spacecdn_resolve_requests_total", "source", src.String())
	}
	for _, k := range FailoverKinds() {
		in.failovers[k] = reg.Counter("spacecdn_failover_total", "kind", k.String())
	}
	srcBuckets := make([]float64, numSources)
	for i := range srcBuckets {
		srcBuckets[i] = float64(i)
	}
	in.degradedSrc = reg.Histogram("spacecdn_degraded_source", srcBuckets)
	in.degradedRTT = reg.Histogram("spacecdn_degraded_rtt_ms", telemetry.LatencyBucketsMs)
	for _, sc := range ServeClasses() {
		in.lcServes[sc] = reg.Counter("lifecycle_serve_total", "freshness", sc.String())
	}
	in.lcCoalesced = reg.Counter("lifecycle_coalesced_total")
	in.lcInconsistent = reg.Counter("lifecycle_inconsistent_serves_total")
	in.lcPurgeMs = reg.Histogram("lifecycle_purge_propagation_ms", telemetry.LatencyBucketsMs)

	// Fleet and routing state is cheap to read but pointless to push per
	// request; a collector samples it at exposition time. The collector only
	// Sets gauges, so re-attaching the same Telemetry is harmless.
	fleetHits := reg.Gauge("spacecdn_cache_hits")
	fleetMisses := reg.Gauge("spacecdn_cache_misses")
	fleetEvictions := reg.Gauge("spacecdn_cache_evictions")
	fleetInserts := reg.Gauge("spacecdn_cache_inserts")
	fleetUsed := reg.Gauge("spacecdn_cache_bytes_used")
	fleetItems := reg.Gauge("spacecdn_cache_items")
	evictReasons := cache.EvictionReasons()
	byReason := make([]*telemetry.Gauge, len(evictReasons))
	for i, r := range evictReasons {
		byReason[i] = reg.Gauge("spacecdn_cache_evictions_by_reason", "reason", r.String())
	}
	tierHits := [2]*telemetry.Gauge{
		reg.Gauge("spacecdn_tier_hits", "tier", "hot"),
		reg.Gauge("spacecdn_tier_hits", "tier", "bulk"),
	}
	tierItems := [2]*telemetry.Gauge{
		reg.Gauge("spacecdn_tier_items", "tier", "hot"),
		reg.Gauge("spacecdn_tier_items", "tier", "bulk"),
	}
	tierPromotions := reg.Gauge("spacecdn_tier_promotions")
	tierDemotions := reg.Gauge("spacecdn_tier_demotions")
	dijkstras := reg.Gauge("routing_dijkstras_total")
	dijkstraSettled := reg.Gauge("routing_dijkstra_settled_total")
	bfs := reg.Gauge("routing_bfs_searches_total")
	bfsVisited := reg.Gauge("routing_bfs_visited_total")
	memoHits := reg.Gauge("constellation_path_memo_hits_total")
	memoMisses := reg.Gauge("constellation_path_memo_misses_total")
	reg.RegisterCollector(func() {
		m := s.Metrics()
		fleetHits.Set(float64(m.Hits))
		fleetMisses.Set(float64(m.Misses))
		fleetEvictions.Set(float64(m.Evictions))
		fleetInserts.Set(float64(m.Inserts))
		fleetUsed.Set(float64(m.UsedBytes))
		fleetItems.Set(float64(m.Items))
		totals := make([]int64, len(evictReasons))
		for _, c := range s.caches {
			st := c.Stats()
			for r, n := range st.ByReason {
				totals[r] += n
			}
		}
		for i, g := range byReason {
			g.Set(float64(totals[i]))
		}
		// Two-tier store occupancy and movement; all-zero when the tiered
		// store is not in use (the gate keeps the fleet walk off the common
		// path).
		if s.tierCfg != nil {
			var ts cache.TieredStats
			for _, c := range s.caches {
				if tc, ok := c.(*cache.Tiered); ok {
					one := tc.TierStats()
					ts.HotHits += one.HotHits
					ts.BulkHits += one.BulkHits
					ts.HotLen += one.HotLen
					ts.BulkLen += one.BulkLen
					ts.Promotions += one.Promotions
					ts.Demotions += one.Demotions
				}
			}
			tierHits[0].Set(float64(ts.HotHits))
			tierHits[1].Set(float64(ts.BulkHits))
			tierItems[0].Set(float64(ts.HotLen))
			tierItems[1].Set(float64(ts.BulkLen))
			tierPromotions.Set(float64(ts.Promotions))
			tierDemotions.Set(float64(ts.Demotions))
		}
		ops := routing.Counters()
		dijkstras.Set(float64(ops.Dijkstras))
		dijkstraSettled.Set(float64(ops.DijkstraSettled))
		bfs.Set(float64(ops.BFSSearches))
		bfsVisited.Set(float64(ops.BFSVisited))
		// Memo counters are per constellation, so a process running several
		// systems (multi-shell scale sweeps) reports this system's own
		// effectiveness rather than a process-wide aggregate.
		hits, misses := s.consts.PathMemoCounters()
		memoHits.Set(float64(hits))
		memoMisses.Set(float64(misses))
	})

	if s.lsn != nil {
		s.lsn.SetTelemetry(t)
	}
	s.inst = in
}

// Telemetry returns the attached telemetry, or nil.
func (s *System) Telemetry() *telemetry.Telemetry {
	if s.inst == nil {
		return nil
	}
	return s.inst.tel
}

// record accounts one Resolve outcome: counters and histograms always, a
// full trace only when the sink samples this request. Every counter and
// histogram update lands on the caller's stripe (see resolveRecorded); the
// only line concurrent resolvers share is the sampler's arrival counter.
func (in *instruments) record(stripe int, res Resolution, err error, d *resolveDetail) {
	if d.degraded {
		// Failovers count even when the request ultimately errors: the
		// reroute attempt happened.
		if d.uplinkFailover {
			in.failovers[FailoverUplink].AddAt(stripe, 1)
		}
		if d.replicaFailover {
			in.failovers[FailoverReplica].AddAt(stripe, 1)
		}
		if d.popFailover {
			in.failovers[FailoverPoP].AddAt(stripe, 1)
		}
	}
	if err != nil {
		in.errors.AddAt(stripe, 1)
		return
	}
	rttMs := float64(res.RTT) / float64(time.Millisecond)
	if d.degraded {
		in.degradedSrc.ObserveAt(stripe, float64(res.Source))
		in.degradedRTT.ObserveAt(stripe, rttMs)
	}
	in.requests[res.Source].AddAt(stripe, 1)
	in.rttMs.ObserveAt(stripe, rttMs)
	hops := res.Hops
	if res.Source == SourceGround && d.hasGround {
		hops = d.ground.ISLHops
	}
	in.hops.ObserveAt(stripe, float64(hops))

	sink := in.tel.Traces()
	if seq, ok := sink.Sample(); ok {
		// The sink copies the spans into its own ring, so they are built in
		// a pooled buffer: a sampled request leaves no garbage behind, and
		// the heap does not grow with the request count.
		buf := spanBufs.Get().(*[]telemetry.Span)
		tr := buildTrace(seq, res, d, (*buf)[:0])
		sink.Add(tr)
		*buf = tr.Spans[:0] // keep what append grew
		spanBufs.Put(buf)
	}
}

// spanBufs recycles the span buffers sampled traces are built in.
var spanBufs = sync.Pool{New: func() any { return new([]telemetry.Span) }}

// buildTrace decomposes a resolution's RTT into typed spans. The spans sum
// to the RTT exactly: closed-form components are assigned directly and the
// scheduling span absorbs the residual (MAC schedule, gateway processing and
// sampled jitter), so the trace is a decomposition, not a re-measurement.
// The spans are appended to spans, the caller's buffer.
func buildTrace(seq uint64, res Resolution, d *resolveDetail, spans []telemetry.Span) telemetry.RequestTrace {
	tr := telemetry.RequestTrace{
		Seq:    seq,
		Source: res.Source.String(),
		Sat:    int(res.Sat),
		Hops:   res.Hops,
		RTT:    res.RTT,
	}
	switch res.Source {
	case SourceOverhead:
		tr.Spans = append(spans,
			telemetry.Span{Kind: telemetry.SpanUplink, Dur: d.uplinkRTT},
			telemetry.Span{Kind: telemetry.SpanCacheProbe},
			telemetry.Span{Kind: telemetry.SpanSched, Dur: res.RTT - d.uplinkRTT})
	case SourceISL:
		spans = append(spans,
			telemetry.Span{Kind: telemetry.SpanUplink, Dur: d.uplinkRTT},
			telemetry.Span{Kind: telemetry.SpanCacheProbe})
		spans = appendHopSpans(spans, d.islRTT, res.Hops)
		spans = append(spans, telemetry.Span{
			Kind: telemetry.SpanSched,
			Dur:  res.RTT - d.uplinkRTT - d.islRTT,
		})
		tr.Spans = spans
	case SourceGround:
		tr.Sat = -1
		p := d.ground
		tr.Hops = p.ISLHops
		uplink := 2 * p.UplinkDelay
		islRTT := 2 * p.ISLDelay
		ground := 2 * (p.DownlinkDelay + p.GSFiberDelay)
		spans = append(spans, telemetry.Span{Kind: telemetry.SpanUplink, Dur: uplink})
		spans = appendHopSpans(spans, islRTT, p.ISLHops)
		spans = append(spans,
			telemetry.Span{Kind: telemetry.SpanGroundRTT, Dur: ground},
			telemetry.Span{
				Kind: telemetry.SpanSched,
				Dur:  res.RTT - uplink - islRTT - ground,
			})
		tr.Spans = spans
	}
	return tr
}

// appendHopSpans splits a two-way ISL latency across hop spans 1..hops,
// putting the integer-division remainder on the last hop so the spans sum to
// total exactly. A positive total with zero hops (degenerate path) becomes a
// single hop span.
func appendHopSpans(spans []telemetry.Span, total time.Duration, hops int) []telemetry.Span {
	if hops <= 0 {
		if total > 0 {
			spans = append(spans, telemetry.Span{Kind: telemetry.SpanISLHop, Hop: 1, Dur: total})
		}
		return spans
	}
	per := total / time.Duration(hops)
	var acc time.Duration
	for i := 1; i <= hops; i++ {
		dur := per
		if i == hops {
			dur = total - acc
		}
		spans = append(spans, telemetry.Span{Kind: telemetry.SpanISLHop, Hop: i, Dur: dur})
		acc += per
	}
	return spans
}
