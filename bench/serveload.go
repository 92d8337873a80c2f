package main

import (
	"fmt"
	"sync"
	"time"

	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
)

// segment is what the clients measured over one closed-loop interval.
type segment struct {
	Wall    time.Duration
	OK      int64
	Failed  int64
	Lat     *hist // wall ns per request, timed by the client
	RTT     *hist // simulated RTT of served responses, µs
	Sources [3]int64
}

func newSegment() *segment { return &segment{Lat: newHist(), RTT: newHist()} }

func (s *segment) attempted() int64 { return s.OK + s.Failed }

func (s *segment) reqPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.attempted()) / s.Wall.Seconds()
}

func (s *segment) merge(o *segment) {
	s.OK += o.OK
	s.Failed += o.Failed
	s.Lat.merge(o.Lat)
	s.RTT.merge(o.RTT)
	for i := range s.Sources {
		s.Sources[i] += o.Sources[i]
	}
}

func (s *segment) record(o observation) {
	s.OK++
	s.RTT.add(int64(o.RTT / time.Microsecond))
	if o.Source >= 0 && o.Source < len(s.Sources) {
		s.Sources[o.Source]++
	}
}

// client is one closed-loop caller: it walks its own interleaved slice of the
// stream (client c takes requests c, c+clients, ...), so the clients share no
// state in the benchmark's own loop.
type client struct {
	pos  int
	v    validator
	sc   *serve.Scratch
	conn *httpConn
}

// loadgen drives one stack from inside the benchmark process. Traffic
// crosses the host loopback; client and server share the process.
type loadgen struct {
	st      *stack
	in      *inputs
	http    bool
	clients []*client
	base    time.Time

	// Totals over every interval run, for the accounting check.
	OK, Failed int64
}

func newLoadgen(st *stack, in *inputs, clients int, http bool) (*loadgen, error) {
	lg := &loadgen{st: st, in: in, http: http, base: time.Now()}
	lim := limitsFor(st.Sys, epochStep)
	for c := 0; c < clients; c++ {
		cl := &client{pos: c % len(in.Stream), v: validator{lim: lim}}
		if http {
			conn, err := dialHTTP(st.Srv.Addr())
			if err != nil {
				lg.close()
				return nil, err
			}
			cl.conn = conn
		} else {
			cl.sc = st.Srv.AcquireScratch()
		}
		lg.clients = append(lg.clients, cl)
	}
	return lg, nil
}

func (lg *loadgen) close() {
	for _, cl := range lg.clients {
		if cl.conn != nil {
			cl.conn.close()
		}
		if cl.sc != nil {
			lg.st.Srv.ReleaseScratch(cl.sc)
		}
	}
	lg.clients = nil
}

// run drives the first n clients closed-loop, no think time, for d.
func (lg *loadgen) run(d time.Duration, n int) (*segment, error) {
	parts := make([]*segment, n)
	errs := make([]error, n)
	for i := range parts {
		parts[i] = newSegment()
	}
	var wg sync.WaitGroup
	start := time.Since(lg.base)
	deadline := start + d
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if lg.http {
				errs[i] = lg.loopHTTP(lg.clients[i], parts[i], deadline)
			} else {
				lg.loopInproc(lg.clients[i], parts[i], deadline)
			}
		}(i)
	}
	wg.Wait()
	total := newSegment()
	total.Wall = time.Since(lg.base) - start
	for i, p := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.merge(p)
	}
	lg.OK += total.OK
	lg.Failed += total.Failed
	return total, nil
}

func (lg *loadgen) loopInproc(cl *client, seg *segment, deadline time.Duration) {
	stream, stride, srv := lg.in.Stream, len(lg.clients), lg.st.Srv
	for {
		req := &stream[cl.pos]
		if cl.pos += stride; cl.pos >= len(stream) {
			cl.pos -= len(stream)
		}
		t0 := time.Since(lg.base)
		res, err := srv.ResolveOnce(*req, cl.sc)
		t1 := time.Since(lg.base)
		seg.Lat.add(int64(t1 - t0))
		if err != nil {
			seg.Failed++
		} else {
			o := observeResult(res)
			cl.v.observe(o)
			seg.record(o)
		}
		if t1 >= deadline {
			return
		}
	}
}

func observeResult(r serve.Result) observation {
	return observation{
		Source: int(r.Res.Source),
		Sat:    int(r.Res.Sat),
		Hops:   r.Res.Hops,
		RTT:    r.Res.RTT,
		Epoch:  r.Epoch,
		TMs:    int64(r.SimTime / time.Millisecond),
	}
}

func (lg *loadgen) loopHTTP(cl *client, seg *segment, deadline time.Duration) error {
	in, stride := lg.in, len(lg.clients)
	for {
		req := in.HTTP[in.HTTPOff[cl.pos]:in.HTTPOff[cl.pos+1]]
		if cl.pos += stride; cl.pos >= len(in.Stream) {
			cl.pos -= len(in.Stream)
		}
		t0 := time.Since(lg.base)
		status, body, err := cl.conn.roundTrip(req)
		t1 := time.Since(lg.base)
		if err != nil {
			// A transport error leaves the connection in an unknown state:
			// count the request as failed and start a fresh connection.
			seg.Failed++
			cl.conn.close()
			if cl.conn, err = dialHTTP(lg.st.Srv.Addr()); err != nil {
				return fmt.Errorf("reconnect after transport error: %w", err)
			}
			continue
		}
		seg.Lat.add(int64(t1 - t0))
		lg.recordHTTP(cl, seg, status, body)
		if t1 >= deadline {
			return nil
		}
	}
}

// recordHTTP classifies one HTTP response: anything but a 200 with a
// well-formed body is a failed request.
func (lg *loadgen) recordHTTP(cl *client, seg *segment, status int, body []byte) {
	if status != 200 {
		seg.Failed++
		return
	}
	o, ok := parseBody(body)
	if !ok {
		cl.v.counts[badBody]++
		seg.Failed++
		return
	}
	cl.v.observe(o)
	seg.record(o)
}

// violations sums the clients' validators.
func (lg *loadgen) violations() (counts [numViolations]int64) {
	for _, cl := range lg.clients {
		for k, n := range cl.v.counts {
			counts[k] += n
		}
	}
	return counts
}

// sampleStatic is check (4), meaningful where placement is static and the
// epoch pinned: an overhead answer must name the best visible satellite, an
// ISL answer a satellite that holds the object.
func sampleStatic(st *stack, in *inputs, n int, rep *checkReport) {
	sc := st.Srv.AcquireScratch()
	defer st.Srv.ReleaseScratch(sc)
	if n > len(in.Stream) {
		n = len(in.Stream)
	}
	// A stride coprime to the stream length spreads the sample over the day.
	for i, pos := 0, 0; i < n; i, pos = i+1, (pos+7919)%len(in.Stream) {
		req := in.Stream[pos]
		res, err := st.Srv.ResolveOnce(req, sc)
		if err != nil {
			rep.failf("static sample: request %d failed: %v", pos, err)
			return
		}
		snap := st.Srv.Epoch().Snapshot()
		switch res.Res.Source {
		case spacecdn.SourceOverhead:
			if up, ok := snap.BestVisible(req.Client); !ok || up.ID != res.Res.Sat {
				rep.failf("static sample: request %d served overhead by sat %d, best visible is %d", pos, res.Res.Sat, up.ID)
				return
			}
		case spacecdn.SourceISL:
			if !st.Sys.HasObject(res.Res.Sat, req.Obj.ID, snap.Time()) {
				rep.failf("static sample: request %d served over ISL by sat %d, which does not hold %s", pos, res.Res.Sat, req.Obj.ID)
				return
			}
		}
	}
}
