// Package serve is the spacecdnd daemon core: a long-running HTTP front end
// over one SpaceCDN system, serving the resolve path while a background
// sweeper advances the constellation underneath it.
//
// The concurrency design is epoch publication (DESIGN.md §16). The sweeper
// goroutine owns all state transitions: each tick it builds a fresh
// immutable snapshot at the next sim instant, finishes every lazy structure
// a request could touch (ISL graph, pinned fault view), wraps the result in
// a spacecdn.Epoch, and publishes it with one atomic pointer store. Request
// goroutines pin the current epoch with one atomic load and resolve against
// it lock-free; superseded epochs stay valid for the requests still holding
// them and are reclaimed by the garbage collector when the last borrower
// returns. Readers therefore never block the sweeper, the sweeper never
// blocks readers, and no request ever observes a half-advanced topology —
// at the price that a request racing a swap is served on a stale-but-valid
// epoch, which the serve_stale_epoch_total counter makes visible.
//
// Per-request state (rng stream, response buffer) comes from a sync.Pool of
// Scratch values, so the steady-state in-process request path allocates
// nothing. The one write path — lifecycle intent application — funnels
// through the System's single-writer applier, keeping origin-fetch
// coalescing deterministic under concurrent misses.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
	"spacecdn/internal/telemetry"
)

// Config parameterizes a serving daemon.
type Config struct {
	// Addr is the HTTP listen address ("host:0" lets the kernel pick a
	// port); empty serves in-process only.
	Addr string
	// Seed derives every per-connection rng stream.
	Seed int64
	// Start is the sim instant of the first epoch; Step is how far each
	// sweep advances sim time.
	Start, Step time.Duration
	// Interval is the wall-clock period between sweeps. Zero or negative
	// pins the initial epoch forever (no sweeper goroutine) — the replay
	// and allocation-measurement configuration.
	Interval time.Duration
	// ReplaySeed, when non-zero, switches request rng to per-request-index
	// streams: request i always draws from stream mix(ReplaySeed, i), so a
	// recorded request log replays byte-identically (see Replay).
	ReplaySeed int64
	// ShutdownTimeout bounds the HTTP drain on Close; zero means 5s.
	ShutdownTimeout time.Duration
}

// DefaultConfig returns a live-daemon configuration: 100 ms sweeps, each
// advancing sim time 15 s.
func DefaultConfig() Config {
	return Config{
		Seed:     42,
		Step:     15 * time.Second,
		Interval: 100 * time.Millisecond,
	}
}

// Scratch is the pooled per-request state: a private rng stream, a response
// encode buffer and the telemetry stripe its requests count on (its stream
// number, so workers holding different Scratches write different cache
// lines). Acquire one per worker (or borrow per request) and release it when
// done; a Scratch must not be used concurrently.
type Scratch struct {
	rng    *stats.Rand
	buf    []byte
	stripe int
}

// Result is one served request: the resolution plus the epoch it was
// pinned to.
type Result struct {
	Res spacecdn.Resolution
	// Epoch is the pinned epoch's sequence number; SimTime its instant.
	Epoch   uint64
	SimTime time.Duration
	// Stale reports the request finished after its epoch was superseded —
	// served on a stale-but-valid epoch.
	Stale bool
}

// Server is a running serving daemon.
type Server struct {
	cfg Config
	sys *spacecdn.System
	tel *telemetry.Telemetry

	// epoch is the published serving state; seq trails it (store epoch,
	// then seq), so a reader comparing its pinned epoch against seq can
	// flag stale serves without ever false-flagging the freshest epoch.
	epoch atomic.Pointer[spacecdn.Epoch]
	seq   atomic.Uint64

	reqIdx  atomic.Uint64 // request index for replay-mode rng streams
	streams atomic.Int64  // scratch stream counter for live-mode rng forks
	scratch sync.Pool

	objects map[content.ID]content.Object // HTTP lookup; frozen at Start

	// The registry counters are the only request tallies: Stats reads them.
	reqs, errs, stale, swaps *telemetry.Counter
	latMs, swapMs            *telemetry.Histogram

	// connWG counts every connection goroutine, fast loop or net/http.
	ln         net.Listener
	acceptDone chan struct{}
	connMu     sync.Mutex
	conns      map[*fastConn]struct{}
	connWG     sync.WaitGroup
	handoff    *handoff
	hsrv       *http.Server

	sweepStop   chan struct{}
	sweepDone   chan struct{}
	applierStop func()
	started     atomic.Bool
	closeOnce   sync.Once
}

// New builds a server over a deployed system and publishes the initial
// epoch (swap #1), so ResolveOnce works immediately — Start is only needed
// for the listener and the background sweeper. When the system has no
// telemetry attached, New attaches a fresh bundle that samples no traces;
// callers that want traces attach their own bundle first.
func New(sys *spacecdn.System, cfg Config) (*Server, error) {
	if cfg.Step <= 0 {
		cfg.Step = 15 * time.Second
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 5 * time.Second
	}
	tel := sys.Telemetry()
	if tel == nil {
		tel = telemetry.New(0)
		sys.SetTelemetry(tel)
	}
	reg := tel.Registry()
	s := &Server{
		cfg:     cfg,
		sys:     sys,
		tel:     tel,
		objects: make(map[content.ID]content.Object),
		reqs:    reg.Counter("serve_requests_total"),
		errs:    reg.Counter("serve_errors_total"),
		stale:   reg.Counter("serve_stale_epoch_total"),
		swaps:   reg.Counter("serve_epoch_swaps_total"),
		latMs:   reg.Histogram("serve_request_latency_ms", telemetry.WallBucketsMs),
		swapMs:  reg.Histogram("serve_epoch_swap_ms", telemetry.WallBucketsMs),
	}
	s.scratch.New = func() any {
		stream := s.streams.Add(1)
		return &Scratch{
			rng:    stats.NewRand(mixStream(cfg.Seed, uint64(stream))),
			buf:    make([]byte, 0, 192),
			stripe: int(stream),
		}
	}
	s.advance()
	return s, nil
}

// mixStream derives stream i from a seed with two FNV-1a rounds, matching
// the package-wide mixing idiom so adjacent streams share no low bits.
func mixStream(seed int64, i uint64) int64 {
	h := uint64(1469598103934665603) ^ uint64(seed)
	h *= 1099511628211
	h ^= i
	h *= 1099511628211
	return int64(h)
}

// System returns the served system.
func (s *Server) System() *spacecdn.System { return s.sys }

// Telemetry returns the server's telemetry bundle.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// Epoch returns the currently published epoch.
func (s *Server) Epoch() *spacecdn.Epoch { return s.epoch.Load() }

// RegisterObjects adds objects to the HTTP /resolve lookup table. The table
// is frozen once serving starts: call before Start, never concurrently
// with requests.
func (s *Server) RegisterObjects(objs ...content.Object) {
	for _, o := range objs {
		s.objects[o.ID] = o
	}
}

// AcquireScratch borrows per-request state from the pool.
func (s *Server) AcquireScratch() *Scratch { return s.scratch.Get().(*Scratch) }

// ReleaseScratch returns a Scratch to the pool.
func (s *Server) ReleaseScratch(sc *Scratch) { s.scratch.Put(sc) }

// advance builds and publishes the next epoch. Only New and the sweeper
// goroutine call it, so seq increments are single-writer; the epoch store
// happens before the seq store, which keeps the reader-side staleness test
// (pinned seq < current seq) free of false positives on the fresh epoch.
func (s *Server) advance() {
	n := s.seq.Load() + 1
	t := s.cfg.Start + time.Duration(n-1)*s.cfg.Step
	begin := time.Now()
	ep := s.sys.NewEpoch(n, s.sys.Constellation().Snapshot(t))
	s.epoch.Store(ep)
	s.seq.Store(n)
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	s.swaps.Inc()
	s.swapMs.Observe(ms)
}

// ResolveOnce serves one request against the currently published epoch —
// the in-process entry shared by the HTTP handler and the load generator.
// The Scratch must be goroutine-local; at steady state the call allocates
// nothing.
func (s *Server) ResolveOnce(req spacecdn.Request, sc *Scratch) (Result, error) {
	begin := time.Now()
	if s.cfg.ReplaySeed != 0 {
		sc.rng.Seed(mixStream(s.cfg.ReplaySeed, s.reqIdx.Add(1)-1))
	}
	ep := s.epoch.Load()
	res, err := s.sys.ResolveAt(ep, req.Client, req.ISO2, req.Obj, sc.rng)
	r := Result{Res: res, Epoch: ep.Seq(), SimTime: ep.Time()}
	if err != nil {
		s.errs.AddAt(sc.stripe, 1)
		return r, err
	}
	if ep.Seq() < s.seq.Load() {
		r.Stale = true
		s.stale.AddAt(sc.stripe, 1)
	}
	s.reqs.AddAt(sc.stripe, 1)
	s.latMs.ObserveAt(sc.stripe, float64(time.Since(begin))/float64(time.Millisecond))
	return r, nil
}

// Start brings up the background sweeper (when Interval > 0), the
// lifecycle applier (when the system has a lifecycle manager), and the
// HTTP listener (when Addr is set).
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("serve: already started")
	}
	if s.sys.Lifecycle() != nil {
		s.applierStop = s.sys.StartLifecycleApplier(0)
	}
	if s.cfg.Interval > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	if s.cfg.Addr != "" {
		ln, err := net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
		}
		s.ln = ln
		s.acceptDone = make(chan struct{})
		s.conns = make(map[*fastConn]struct{})
		s.handoff = &handoff{addr: ln.Addr(), conns: make(chan net.Conn), done: make(chan struct{})}
		s.hsrv = &http.Server{
			Handler:           s.handler(),
			ReadHeaderTimeout: readHeaderTimeout,
			MaxHeaderBytes:    maxHeaderBytes,
			// A handed-over connection holds its connWG slot until net/http's
			// goroutine for it, handler included, has finished.
			ConnState: func(_ net.Conn, st http.ConnState) {
				if st == http.StateClosed || st == http.StateHijacked {
					s.connWG.Done()
				}
			},
		}
		go func() {
			// ErrServerClosed is the normal Shutdown path; anything else
			// already went through http.Server's own error logging.
			_ = s.hsrv.Serve(s.handoff)
		}()
		go s.acceptLoop()
	}
	return nil
}

// Addr returns the bound HTTP address, or "" when serving in-process only.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-ticker.C:
			s.advance()
		}
	}
}

// Close shuts the daemon down in dependency order: stop accepting, close
// idle connections, give in-flight requests until ShutdownTimeout and then
// close their connections, wait for every connection goroutine, and only
// then stop the sweeper and the lifecycle applier — a resolve after the
// applier stops would send on its closed channel. In-process callers must
// finish before Close. Safe to call concurrently; every call returns once
// the shutdown is done, the later ones with nil.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.shutdown() })
	return err
}

func (s *Server) shutdown() error {
	var err error
	if s.ln != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		_ = s.ln.Close()
		<-s.acceptDone
		s.drainConns(ctx) // first: until it is empty it may hand connections to net/http
		err = s.hsrv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = s.hsrv.Close()
		}
		s.connWG.Wait()
	}
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
	if s.applierStop != nil {
		s.applierStop()
	}
	return err
}

// Stats is a point-in-time summary of the serving counters.
type Stats struct {
	Requests, Errors int64
	// StaleServed counts requests that finished on a superseded epoch.
	StaleServed int64
	// Epochs is the published epoch count (the initial publication is #1).
	Epochs uint64
	// SwapP50Ms / SwapP99Ms summarize epoch build-and-publish latency over
	// every swap, read from the serve_epoch_swap_ms histogram: interpolated
	// within its buckets, not exact order statistics.
	SwapP50Ms, SwapP99Ms float64
}

// Stats returns the serving counters — the registry's own, merged at read
// (exact once requests quiesce), so servers sharing a telemetry bundle share
// their request tallies and swap quantiles.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.reqs.Value(),
		Errors:      s.errs.Value(),
		StaleServed: s.stale.Value(),
		Epochs:      s.seq.Load(),
		SwapP50Ms:   s.swapMs.Quantile(0.5),
		SwapP99Ms:   s.swapMs.Quantile(0.99),
	}
}

// handler mounts /resolve next to the full telemetry introspection surface
// (/metrics /traces /healthz /debug/pprof, and /series once a series
// collector is attached to the telemetry; 404 until then).
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/resolve", s.handleResolve)
	mux.Handle("/", telemetry.Handler(s.tel))
	return mux
}

// handleResolve answers the /resolve requests the fast loop hands over.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	sc := s.AcquireScratch()
	defer s.ReleaseScratch(sc)
	body, err := s.resolveQuery([]byte(r.URL.RawQuery), sc)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

var (
	errBadClient     = errors.New("bad lat/lon")
	errUnknownObject = errors.New("unknown object")
)

// statusOf maps a /resolve failure to its status. No satellite over the
// client is our coverage; every other resolve failure is the ground stage,
// or its absence, upstream of the satellite.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errBadClient):
		return http.StatusBadRequest
	case errors.Is(err, errUnknownObject):
		return http.StatusNotFound
	case errors.Is(err, spacecdn.ErrNoVisibleSatellite):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

// resolveQuery serves one raw /resolve query; the body is encoded into sc.
func (s *Server) resolveQuery(raw []byte, sc *Scratch) ([]byte, error) {
	req, err := s.parseQuery(raw)
	if err != nil {
		return nil, err
	}
	res, err := s.ResolveOnce(req, sc)
	if err != nil {
		return nil, err
	}
	sc.buf = appendResponse(sc.buf[:0], res)
	return sc.buf, nil
}

var queryKeys = [...]string{"lat", "lon", "iso2", "obj"}

// parseQuery reads a /resolve query in place as url.ParseQuery and
// Values.Get do: pairs split on '&', a pair holding ';' or a bad escape is
// skipped, the first value wins. Only escaped keys and values allocate.
func (s *Server) parseQuery(raw []byte) (spacecdn.Request, error) {
	var vals [len(queryKeys)][]byte
	var seen [len(queryKeys)]bool
	for len(raw) > 0 {
		var kv []byte
		kv, raw, _ = bytes.Cut(raw, []byte("&"))
		k, v, _ := bytes.Cut(kv, []byte("="))
		k, okK := unescape(k)
		v, okV := unescape(v)
		for i, key := range queryKeys {
			if okK && okV && !seen[i] && string(k) == key && bytes.IndexByte(kv, ';') < 0 {
				vals[i], seen[i] = v, true
			}
		}
	}
	client, ok := parseClient(vals[0], vals[1])
	if !ok {
		return spacecdn.Request{}, errBadClient
	}
	obj, ok := s.objects[content.ID(vals[3])]
	if !ok {
		return spacecdn.Request{}, errUnknownObject
	}
	// A known country code comes back as the dataset's string: no allocation.
	c, known := geo.CountryByISO(string(vals[2]))
	if !known || c.ISO2 != string(vals[2]) {
		c.ISO2 = string(vals[2])
	}
	return spacecdn.Request{Client: client, ISO2: c.ISO2, Obj: obj}, nil
}

func unescape(b []byte) ([]byte, bool) {
	if bytes.IndexByte(b, '%') < 0 && bytes.IndexByte(b, '+') < 0 {
		return b, true
	}
	u, err := url.QueryUnescape(string(b))
	return []byte(u), err == nil
}

// parseClient reads the client location of a /resolve query. ParseFloat
// accepts "NaN", "Inf" and any magnitude, so parsing alone lets through
// coordinates that are no place on Earth: a non-finite value or a latitude
// beyond a pole is a malformed request, not a point to clamp. Finite
// longitudes of any size keep wrapping into (-180, 180].
func parseClient(latQ, lonQ []byte) (geo.Point, bool) {
	lat, errLat := strconv.ParseFloat(string(latQ), 64)
	lon, errLon := strconv.ParseFloat(string(lonQ), 64)
	if errLat != nil || errLon != nil {
		return geo.Point{}, false
	}
	// Written so that NaN fails the latitude test too.
	if !(math.Abs(lat) <= 90) || math.IsNaN(lon) || math.IsInf(lon, 0) {
		return geo.Point{}, false
	}
	return geo.NewPoint(lat, lon), true
}

// appendResponse encodes one response line into b. The encoder is shared
// by the HTTP handler and Replay, so the deterministic-replay guarantee
// covers the exact bytes a network client sees.
func appendResponse(b []byte, r Result) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"t_ms":`...)
	b = strconv.AppendInt(b, int64(r.SimTime/time.Millisecond), 10)
	b = append(b, `,"source":"`...)
	b = append(b, r.Res.Source.String()...)
	b = append(b, `","sat":`...)
	b = strconv.AppendInt(b, int64(r.Res.Sat), 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.Res.Hops), 10)
	b = append(b, `,"rtt_us":`...)
	b = strconv.AppendInt(b, int64(r.Res.RTT/time.Microsecond), 10)
	b = append(b, "}\n"...)
	return b
}
