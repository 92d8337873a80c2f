package spacecdn

import (
	"spacecdn/internal/constellation"
	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/lifecycle"
	"spacecdn/internal/parallel"
	"spacecdn/internal/stats"
)

// Batch resolution: the parallel counterpart of Resolve. A batch is sharded
// into a fixed number of contiguous spans — fixed meaning derived from the
// batch size only, never from the worker count — and every shard gets its
// own random stream split off the caller's rng. Workers then execute shards
// concurrently, writing each result into its request's slot. Because no
// request's outcome depends on another shard's schedule, a workers=1 run and
// a workers=N run produce byte-identical results for the same seed.
//
// Resolution is read-only over cache *membership*: Resolve never inserts or
// evicts, and the per-cache hit accounting it performs is mutex-protected
// and commutative (counter increments), so concurrent shards are race-clean
// and the final counters are schedule-independent. Placement (Store/Apply)
// must happen before the batch, not during it.

// Request is one client object request in a batch.
type Request struct {
	Client geo.Point
	ISO2   string
	Obj    content.Object
}

// BatchResult is the outcome of one request: a Resolution or an error.
type BatchResult struct {
	Resolution
	Err error
}

// batchShardTarget is the default shard count for ResolveAll. It is a
// determinism constant, not a tuning knob: results are identical for any
// value, but changing it reshuffles the per-shard random streams and thus
// the sampled jitter, so it stays fixed. 64 shards keep 16 workers busy
// with uneven per-request costs (ground fallbacks are ~10x an overhead hit).
const batchShardTarget = 64

// ResolveAll resolves every request against one constellation snapshot,
// fanning the batch across at most workers goroutines (workers <= 0 means
// GOMAXPROCS). Results are returned in request order. The rng is consumed
// deterministically: ResolveAll splits it into one stream per shard, so two
// calls with equal batches, snapshots and rng states return identical
// results regardless of the worker count.
//
// Attached telemetry observes every request exactly as the sequential path
// does; counter totals are schedule-independent, while the *identity* of
// trace-sampled requests (1-in-stride over arrival order) depends on the
// interleaving.
func (s *System) ResolveAll(reqs []Request, snap *constellation.Snapshot, rng *stats.Rand, workers int) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	// The fault view and masked topology are pinned once for the batch. An
	// active lifecycle manager makes the batch two-phase: the sharded resolve
	// stays read-only over cache state — each request records what it WOULD
	// do in its slot's intent — and phase 2 applies the intents sequentially
	// in batch order, so coalescing winners, fills, drops and promotions are
	// byte-identical across worker counts.
	var ep Epoch
	s.pin(&ep, 0, snap)
	var intents []lcIntent
	if s.lc != nil && s.lc.Active() {
		intents = make([]lcIntent, len(reqs))
	}
	out := make([]BatchResult, len(reqs))
	spans := parallel.Split(len(reqs), batchShardTarget)
	rngs := rng.Split(len(spans))
	// Force the pinned topology's ISL graph before the fan-out so shards
	// never contend on the snapshot's sync.Once, and the build is never
	// timed into a shard.
	ep.topo.ISLGraph()
	// Shard functions only write their own spans' slots; Run's error joining
	// is unused because per-request errors are data, not failures.
	_ = parallel.Run(workers, len(spans), func(shard int) error {
		r := rngs[shard]
		for i := spans[shard].Lo; i < spans[shard].Hi; i++ {
			var it *lcIntent
			if intents != nil {
				it = &intents[i]
			}
			res, err := s.resolveRecorded(&ep, &reqs[i], r, it, shard)
			out[i] = BatchResult{Resolution: res, Err: err}
		}
		return nil
	})
	if intents != nil {
		flights := make(map[lifecycle.FlightKey]struct{})
		for i := range intents {
			s.applyLcIntent(&intents[i], snap.Time(), flights)
		}
	}
	return out
}
