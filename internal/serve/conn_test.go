package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spacecdn/internal/content"
	"spacecdn/internal/geo"
	"spacecdn/internal/spacecdn"
)

// refParseQuery is the /resolve parsing the handler did before the in-place
// parser: url.ParseQuery, first value wins, the url.Values coordinate check,
// then the object lookup. It is the oracle FuzzResolveQuery holds
// parseQuery to.
func refParseQuery(s *Server, raw string) (spacecdn.Request, error) {
	q, _ := url.ParseQuery(raw)
	lat, errLat := strconv.ParseFloat(q.Get("lat"), 64)
	lon, errLon := strconv.ParseFloat(q.Get("lon"), 64)
	if errLat != nil || errLon != nil || !(math.Abs(lat) <= 90) || math.IsNaN(lon) || math.IsInf(lon, 0) {
		return spacecdn.Request{}, errBadClient
	}
	obj, ok := s.objects[content.ID(q.Get("obj"))]
	if !ok {
		return spacecdn.Request{}, errUnknownObject
	}
	return spacecdn.Request{Client: geo.NewPoint(lat, lon), ISO2: q.Get("iso2"), Obj: obj}, nil
}

// FuzzResolveQuery: the in-place query parser never panics and reads every
// raw query exactly as url.ParseQuery + Get + the coordinate check + the
// object lookup do.
func FuzzResolveQuery(f *testing.F) {
	for _, seed := range []string{
		"lat=-25.9692&lon=32.5732&iso2=MZ&obj=srv-hot",
		"lat=NaN&lon=10&iso2=MZ&obj=srv-hot",
		"lat=10&lon=nan&iso2=MZ&obj=srv-warm",
		"lat=Inf&lon=10&iso2=MZ&obj=srv-hot",
		"lat=-Inf&lon=10&obj=srv-hot",
		"lat=10&lon=%2BInf&obj=srv-hot",
		"lat=90&lon=0&obj=srv-cold",
		"lat=-90&lon=0&obj=srv-cold",
		"lat=90.0000001&lon=0&obj=srv-cold",
		"lat=10&lon=359&obj=srv-hot",
		"lat=&lon=&iso2=&obj=",
		"lat=1&lat=2&lon=3&lon=4&obj=srv-hot&obj=srv-warm",
		"lat=%zz&lat=3&lon=4&obj=srv-hot",
		"l%61t=1%2E5&lon=2&obj=srv%2Dhot",
		"lat=1&lon=2&iso2=M+Z&obj=srv-hot",
		"lat=+1&lon=2&obj=srv-hot",
		"lat=1;lon=2&lon=3&obj=srv-hot",
		"lat=1&lon=2&obj=srv-hot;x&obj=srv-cold",
		"&&lat=1&=&lon=2&obj=srv-hot#frag",
	} {
		f.Add(seed)
	}
	srv, _ := newTestServer(f, Config{Seed: 1})
	f.Fuzz(func(t *testing.T, raw string) {
		got, gotErr := srv.parseQuery([]byte(raw))
		want, wantErr := refParseQuery(srv, raw)
		if gotErr != wantErr {
			t.Fatalf("%q: error %v, want %v", raw, gotErr, wantErr)
		}
		if got.Client != want.Client || got.ISO2 != want.ISO2 || got.Obj.ID != want.Obj.ID {
			t.Fatalf("%q: parsed %+v, want %+v", raw, got, want)
		}
	})
}

// resolveTarget is the request target of r, every coordinate digit kept.
func resolveTarget(r spacecdn.Request) string {
	return "/resolve?lat=" + strconv.FormatFloat(r.Client.LatDeg, 'f', -1, 64) +
		"&lon=" + strconv.FormatFloat(r.Client.LonDeg, 'f', -1, 64) +
		"&iso2=" + r.ISO2 + "&obj=" + string(r.Obj.ID)
}

func startTestServer(t *testing.T, cfg Config) (*Server, *Workload) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, wl := newTestServer(t, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, wl
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// exchange writes raw on a fresh connection to addr and reads n responses.
func exchange(t *testing.T, addr, raw string, n int) ([]*http.Response, net.Conn) {
	t.Helper()
	conn := dial(t, addr)
	go func() { _, _ = conn.Write([]byte(raw)) }()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var out []*http.Response
	for i := 0; i < n; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d to %.60q: %v", i+1, n, raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		out = append(out, resp)
	}
	return out, conn
}

// inFastLoop reports whether the fast loop, not net/http, holds conn's
// server side.
func inFastLoop(srv *Server, conn net.Conn) bool {
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	for fc := range srv.conns {
		if fc.RemoteAddr().String() == conn.LocalAddr().String() {
			return true
		}
	}
	return false
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, _ := io.ReadAll(resp.Body)
	return b
}

// TestFastPathPipelinedMatchesReplay is deterministic replay over the
// socket: one fixed log, pipelined over one keep-alive connection (the
// in-place path) and sent one request per Connection: close connection
// (net/http), gives the bytes Replay gives.
func TestFastPathPipelinedMatchesReplay(t *testing.T) {
	cfg := Config{Seed: 4, ReplaySeed: 99}
	srv, wl := startTestServer(t, cfg)
	log := wl.Log(150)
	want, err := srv.Replay(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pipelined strings.Builder
	for _, r := range log {
		pipelined.WriteString("GET " + resolveTarget(r) + " HTTP/1.1\r\nHost: replay\r\n\r\n")
	}
	var got []byte
	resps, conn := exchange(t, srv.Addr(), pipelined.String(), len(log))
	for _, resp := range resps {
		got = append(got, readBody(t, resp)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pipelined keep-alive bodies diverge from Replay:\n%s\nwant\n%s", got, want)
	}
	if !inFastLoop(srv, conn) {
		t.Fatal("the pipelined log was handed to net/http instead of served in place")
	}

	closing, _ := startTestServer(t, cfg)
	got = got[:0]
	for _, r := range log {
		resps, _ := exchange(t, closing.Addr(), "GET "+resolveTarget(r)+" HTTP/1.1\r\nHost: replay\r\nConnection: close\r\n\r\n", 1)
		got = append(got, readBody(t, resps[0])...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Connection: close bodies diverge from Replay")
	}
}

// TestFastPathAndHandoverMatchNetHTTP sends a table of raw requests to the
// daemon and to net/http serving the same handler alone, on twin servers
// that resolve the same requests in the same order: every response agrees
// in status, headers (the Date value aside) and, for /resolve, body.
func TestFastPathAndHandoverMatchNetHTTP(t *testing.T) {
	cfg := Config{Seed: 8, ReplaySeed: 7}
	srv, wl := startTestServer(t, cfg)
	twin, _ := newTestServer(t, cfg)
	defer twin.Close()
	ref := &http.Server{Handler: twin.handler()}
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ref.Serve(refLn) }()
	defer ref.Close()

	hot := resolveTarget(wl.Request(0))
	warm := resolveTarget(wl.Request(1))
	get := func(target, headers string) string {
		return "GET " + target + " HTTP/1.1\r\nHost: edge\r\n" + headers + "\r\n"
	}
	cases := []struct {
		name string
		raw  string
		n    int
		fast bool // served in place to the end
	}{
		{"three pipelined", get(hot, "") + get(warm, "") + get(resolveTarget(wl.Request(2)), ""), 3, true},
		{"HTTP/1.0", "GET " + hot + " HTTP/1.0\r\n\r\n", 1, false},
		{"POST with a body", "POST " + hot + " HTTP/1.1\r\nHost: edge\r\nContent-Length: 5\r\n\r\nhello", 1, false},
		{"8 KB header", get(hot, "X-Pad: "+strings.Repeat("p", 8<<10)+"\r\n"), 1, false},
		{"metrics then resolve", get("/metrics", "") + get(hot, ""), 2, false},
		{"resolve then metrics", get(hot, "") + get("/metrics", ""), 2, false},
		{"bad lat", get("/resolve?lat=x&lon=0&iso2=MZ&obj=srv-hot", ""), 1, false},
		{"unknown obj", get("/resolve?lat=0&lon=0&iso2=MZ&obj=no-such-object", ""), 1, false},
		{"polar client", get("/resolve?lat=89&lon=0&iso2=MZ&obj=srv-hot", ""), 1, true},
		{"escaped query", get("/resolve?l%61t=-25.9692&lon=32.5732&iso2=M%5A&obj=srv%2Dhot", ""), 1, true},
		{"bad lat then good", get("/resolve?lat=91&lon=0&obj=srv-hot", "") + get(warm, ""), 2, false},
		{"lower-case host", "GET " + hot + " HTTP/1.1\r\nhost: edge\r\n\r\n", 1, true},
		{"no host", "GET " + hot + " HTTP/1.1\r\n\r\n", 1, false},
		{"two hosts", get(hot, "Host: again\r\n"), 1, false},
		{"bare LF", "GET " + hot + " HTTP/1.1\nHost: edge\n\n", 1, false},
		{"expect", get(hot, "Expect: 100-continue\r\n"), 1, false},
		{"folded header", get(hot, "X-A: 1\r\n 2\r\n"), 1, false},
		{"keep-alive header", get(hot, "Connection: keep-alive\r\n"), 1, false},
	}
	for _, tc := range cases {
		got, conn := exchange(t, srv.Addr(), tc.raw, tc.n)
		want, _ := exchange(t, refLn.Addr().String(), tc.raw, tc.n)
		if tc.fast && !inFastLoop(srv, conn) {
			t.Errorf("%s: handed to net/http, want served in place", tc.name)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.StatusCode != w.StatusCode || g.Proto != w.Proto {
				t.Errorf("%s #%d: %s %s, want %s %s", tc.name, i, g.Proto, g.Status, w.Proto, w.Status)
			}
			if gk, wk := headerKeys(g.Header), headerKeys(w.Header); gk != wk {
				t.Errorf("%s #%d: headers %s, want %s", tc.name, i, gk, wk)
			}
			// /metrics bodies differ between the two servers by design.
			gb, wb := readBody(t, g), readBody(t, w)
			if !strings.HasPrefix(g.Header.Get("Content-Type"), "text/plain; version") {
				if !bytes.Equal(gb, wb) || g.ContentLength != w.ContentLength {
					t.Errorf("%s #%d: body %q (length %d), want %q (length %d)", tc.name, i, gb, g.ContentLength, wb, w.ContentLength)
				}
			}
		}
	}
}

// headerKeys lists a response's header fields, with the values of Date
// and Content-Length dropped.
func headerKeys(h http.Header) string {
	var keys []string
	for k, v := range h {
		if k != "Date" && k != "Content-Length" {
			k += "=" + strings.Join(v, ",")
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// rawClient is a keep-alive client that allocates nothing per request.
type rawClient struct {
	c  net.Conn
	br *bufio.Reader
}

func (rc *rawClient) roundTrip(t *testing.T, req []byte) []byte {
	if _, err := rc.c.Write(req); err != nil {
		t.Fatal(err)
	}
	n := -1
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n = 0
			for _, c := range bytes.TrimSpace(v) {
				n = 10*n + int(c-'0')
			}
		}
	}
	body, err := rc.br.Peek(n)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = rc.br.Discard(n)
	return body
}

// TestFastPathAllocs extends TestServeSteadyAllocsFree over the socket: a
// keep-alive /resolve round trip, client and server together, allocates at
// most once per request, for space- and ground-served requests alike.
func TestFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	srv, wl := startTestServer(t, Config{Seed: 5})
	rc := &rawClient{c: dial(t, srv.Addr())}
	rc.br = bufio.NewReaderSize(rc.c, 4<<10)
	var space, ground [][]byte
	for _, r := range wl.Log(120) {
		req := []byte("GET " + resolveTarget(r) + " HTTP/1.1\r\nHost: allocs\r\n\r\n")
		body := rc.roundTrip(t, req)
		switch {
		case bytes.Contains(body, []byte(`"source":"ground"`)):
			ground = append(ground, req)
		case bytes.HasPrefix(body, []byte(`{"epoch":`)):
			space = append(space, req)
		default:
			t.Fatalf("unexpected response %q", body)
		}
	}
	for _, class := range []struct {
		name string
		reqs [][]byte
	}{{"space-served", space}, {"ground-served", ground}} {
		if len(class.reqs) == 0 {
			t.Fatalf("no %s requests in workload", class.name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, req := range class.reqs {
				rc.roundTrip(t, req)
			}
		})
		if perReq := allocs / float64(len(class.reqs)); perReq > 1 {
			t.Errorf("%s keep-alive round trip allocates %.2f/req, want <= 1", class.name, perReq)
		}
	}
}

// waitActive blocks until the fast loop has read the first bytes of a
// request on its only connection.
func waitActive(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.connMu.Lock()
		active := false
		for fc := range srv.conns {
			active = !fc.idle.Load()
		}
		srv.connMu.Unlock()
		if active {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the fast loop never started reading the request")
}

func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, net.ErrClosed) || isTimeout(err) {
		t.Fatalf("read %d bytes, err %v; want the server to have closed the connection", n, err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestCloseIdleKeepAlive: an idle keep-alive connection of the fast loop is
// closed at once, not after the drain deadline.
func TestCloseIdleKeepAlive(t *testing.T) {
	srv, wl := startTestServer(t, Config{Seed: 6, ShutdownTimeout: 5 * time.Second})
	conn := dial(t, srv.Addr())
	rc := &rawClient{c: conn, br: bufio.NewReader(conn)}
	rc.roundTrip(t, []byte("GET "+resolveTarget(wl.Request(0))+" HTTP/1.1\r\nHost: idle\r\n\r\n"))
	begin := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("Close took %v with one idle keep-alive connection", d)
	}
	expectClosed(t, conn)
}

// TestCloseLetsInFlightRequestFinish: a request whose head is arriving when
// Close starts is answered, and the connection closed after it.
func TestCloseLetsInFlightRequestFinish(t *testing.T) {
	srv, wl := startTestServer(t, Config{Seed: 6, ShutdownTimeout: 5 * time.Second})
	conn := dial(t, srv.Addr())
	req := "GET " + resolveTarget(wl.Request(0)) + " HTTP/1.1\r\nHost: inflight\r\n\r\n"
	if _, err := conn.Write([]byte(req[:20])); err != nil {
		t.Fatal(err)
	}
	waitActive(t, srv)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	<-srv.acceptDone // Close has stopped accepting and is draining
	if _, err := conn.Write([]byte(req[20:])); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request lost to Close: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d", resp.StatusCode)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
}

// TestCloseForcesStuckRequest: a request head that never completes is cut
// at the drain deadline.
func TestCloseForcesStuckRequest(t *testing.T) {
	srv, _ := startTestServer(t, Config{Seed: 6, ShutdownTimeout: 100 * time.Millisecond})
	conn := dial(t, srv.Addr())
	if _, err := conn.Write([]byte("GET /resolve?lat=")); err != nil {
		t.Fatal(err)
	}
	waitActive(t, srv)
	begin := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d < 100*time.Millisecond || d > 2*time.Second {
		t.Fatalf("Close took %v with a 100ms drain deadline", d)
	}
	expectClosed(t, conn)
}

// TestCloseConcurrent: Close from several goroutines at once shuts down
// once; every call returns after the shutdown finished.
func TestCloseConcurrent(t *testing.T) {
	srv, wl := startTestServer(t, Config{Seed: 6, Interval: time.Millisecond})
	conn := dial(t, srv.Addr())
	rc := &rawClient{c: conn, br: bufio.NewReader(conn)}
	rc.roundTrip(t, []byte("GET "+resolveTarget(wl.Request(0))+" HTTP/1.1\r\nHost: close\r\n\r\n"))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
			select {
			case <-srv.sweepDone:
			default:
				t.Error("Close returned before the sweeper stopped")
			}
		}()
	}
	wg.Wait()
	expectClosed(t, conn)
}

// TestFastPathSlowHeaderTimesOut: a client that sends its head a byte every
// 50 ms is cut off once the read-header deadline passes.
func TestFastPathSlowHeaderTimesOut(t *testing.T) {
	// Restored after the server's own cleanup has closed it.
	old := readHeaderTimeout
	t.Cleanup(func() { readHeaderTimeout = old })
	readHeaderTimeout = 200 * time.Millisecond
	srv, wl := startTestServer(t, Config{Seed: 6})
	conn := dial(t, srv.Addr())
	req := "GET " + resolveTarget(wl.Request(0)) + " HTTP/1.1\r\nHost: slow\r\n\r\n"
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; i < len(req); i++ {
			if _, err := conn.Write([]byte{req[i]}); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
	begin := time.Now()
	expectClosed(t, conn)
	if d := time.Since(begin); d < readHeaderTimeout || d > time.Duration(len(req))*50*time.Millisecond/2 {
		t.Fatalf("slow head cut after %v, want soon after the %v deadline", d, readHeaderTimeout)
	}
}
