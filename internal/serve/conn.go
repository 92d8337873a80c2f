package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The accept loop owns every connection on the public listener. Its
// goroutine answers GET /resolve keep-alive requests on the connection
// itself and hands the connection, with the bytes already read, to net/http
// on the first request of any other shape (DESIGN.md §16).

const (
	fastReadBuf    = 4 << 10 // a longer header block goes to net/http, where maxHeaderBytes rules
	maxHeaderBytes = 64 << 10
)

// readHeaderTimeout bounds the arrival of a started request head on both
// paths; a variable so a test can shorten it.
var readHeaderTimeout = 10 * time.Second

// fastConn is a fast-loop connection. idle is set while no request has
// started: whoever clears it — the loop on a request's first byte, or a
// Close sweep — decides the connection's fate. Once net/http has the
// connection, its reads start with the bytes the loop had read.
type fastConn struct {
	net.Conn
	idle   atomic.Bool
	handed io.Reader
}

func (fc *fastConn) Read(p []byte) (int, error) { return fc.handed.Read(p) }

// CloseWrite keeps net/http's half-close before it closes a connection.
func (fc *fastConn) CloseWrite() error { return fc.Conn.(*net.TCPConn).CloseWrite() }

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil { // out of descriptors and the like: back off, as net/http does
			time.Sleep(10 * time.Millisecond)
			continue
		}
		fc := &fastConn{Conn: c}
		fc.idle.Store(true)
		s.connMu.Lock()
		s.conns[fc] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(fc)
	}
}

// serveConn answers in-place requests until the connection closes or a
// request needs net/http. The responses to pipelined requests go out in one
// write, once no complete request is left in the buffer.
func (s *Server) serveConn(fc *fastConn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, fc)
		s.connMu.Unlock()
		if fc.handed == nil {
			_ = fc.Close()
			s.connWG.Done()
		}
	}()
	sc := s.AcquireScratch()
	defer s.ReleaseScratch(sc)
	br := bufio.NewReaderSize(fc.Conn, fastReadBuf)
	var out []byte
	armed := false // the read-header deadline is set
	for {
		buf, _ := br.Peek(br.Buffered())
		query, n, kind := parseHead(buf)
		if armed && kind != headPartial {
			_ = fc.SetReadDeadline(time.Time{})
			armed = false
		}
		var ok bool
		if out, ok = s.answer(out, query, kind, sc); ok {
			_, _ = br.Discard(n)
			continue
		}
		if len(out) > 0 {
			if _, err := fc.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
		if kind != headPartial || len(buf) == fastReadBuf {
			// Close drains this loop before net/http, so net/http is accepting;
			// its ConnState hook takes over the connWG slot.
			fc.handed = io.MultiReader(bytes.NewReader(append([]byte(nil), buf...)), fc.Conn)
			s.handoff.conns <- fc
			return
		}
		if len(buf) == 0 {
			fc.idle.Store(true)
		} else if !armed { // the head did not arrive whole in one read
			_ = fc.SetReadDeadline(time.Now().Add(readHeaderTimeout))
			armed = true
		}
		_, err := br.Peek(len(buf) + 1)
		if len(buf) == 0 && !fc.idle.CompareAndSwap(true, false) || err != nil {
			return
		}
	}
}

// answer resolves one in-place request and appends the response net/http
// would send. It reports false, having resolved nothing, for a request
// net/http must answer: another shape, or a 400 or 404.
func (s *Server) answer(out, query []byte, kind headKind, sc *Scratch) ([]byte, bool) {
	if kind != headResolve {
		return out, false
	}
	head := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: "
	body, err := s.resolveQuery(query, sc)
	if err != nil {
		code := statusOf(err)
		if code < http.StatusInternalServerError {
			return out, false
		}
		head = "HTTP/1.1 " + strconv.Itoa(code) + " " + http.StatusText(code) +
			"\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nDate: " // http.Error's
		body = append(append(sc.buf[:0], err.Error()...), '\n')
	}
	out = append(out, head...)
	out = time.Now().UTC().AppendFormat(out, http.TimeFormat)
	out = append(out, "\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	out = append(out, "\r\n\r\n"...)
	return append(out, body...), true
}

type headKind int

const (
	headPartial headKind = iota // the head is not complete yet
	headOther                   // a request net/http answers
	headResolve                 // a request the fast loop answers
)

// parseHead classifies the request head at the start of b a line at a time,
// so another shape is known by its first deciding line; for headResolve it
// returns the raw query and the head's length. Every check is stricter than
// net/http's: a head served in place is one net/http would read the same.
func parseHead(b []byte) (query []byte, n int, kind headKind) {
	hosts := 0
	for first := true; ; first = false {
		i := bytes.IndexByte(b[n:], '\n')
		if i < 0 {
			return nil, 0, headPartial
		}
		line := b[n : n+i]
		if n += i + 1; len(line) == 0 || line[len(line)-1] != '\r' {
			return nil, 0, headOther
		}
		line = line[:len(line)-1]
		switch {
		case first:
			var okGet, okProto bool
			query, okGet = bytes.CutPrefix(line, []byte("GET /resolve?"))
			query, okProto = bytes.CutSuffix(query, []byte(" HTTP/1.1"))
			if !okGet || !okProto || bytes.ContainsFunc(query, notURI) {
				return nil, 0, headOther
			}
		case len(line) == 0:
			if hosts != 1 {
				return nil, 0, headOther
			}
			return query, n, headResolve
		default:
			name, value, ok := bytes.Cut(line, []byte(":"))
			if !ok || len(name) == 0 || bytes.ContainsFunc(name, notToken) || bytes.ContainsFunc(value, notValue) {
				return nil, 0, headOther
			}
			switch textproto.CanonicalMIMEHeaderKey(string(name)) {
			case "Content-Length", "Transfer-Encoding", "Connection", "Expect", "Upgrade":
				return nil, 0, headOther // bodies, connection management, protocol switches
			case "Host":
				if hosts++; bytes.ContainsFunc(bytes.Trim(value, " \t"), notHost) {
					return nil, 0, headOther
				}
			}
		}
	}
}

func isAlnum(r rune) bool  { return 'a' <= r|0x20 && r|0x20 <= 'z' || '0' <= r && r <= '9' }
func notURI(r rune) bool   { return r < '!' || r > '~' }
func notToken(r rune) bool { return !isAlnum(r) && !strings.ContainsRune("!#$%&'*+-.^_`|~", r) }
func notValue(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }
func notHost(r rune) bool  { return !isAlnum(r) && !strings.ContainsRune(".-:[]_", r) }

// handoff is the listener net/http serves: the connections the fast loop
// hands over.
type handoff struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (h *handoff) Accept() (net.Conn, error) {
	select {
	case c := <-h.conns:
		return c, nil
	case <-h.done:
		return nil, net.ErrClosed
	}
}

func (h *handoff) Close() error   { h.once.Do(func() { close(h.done) }); return nil }
func (h *handoff) Addr() net.Addr { return h.addr }

// drainConns closes idle fast-loop connections, and once ctx expires all of
// them, until every fast-loop goroutine has exited.
func (s *Server) drainConns(ctx context.Context) {
	for {
		s.connMu.Lock()
		for fc := range s.conns {
			if ctx.Err() != nil || fc.idle.CompareAndSwap(true, false) {
				_ = fc.Close()
			}
		}
		left := len(s.conns)
		s.connMu.Unlock()
		if left == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
