package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"

	"spacecdn/internal/spacecdn"
)

// httpConn is the load client's side of one keep-alive HTTP/1.1 connection:
// write a pre-encoded request, read the status line, Content-Length and body.
// No net/http client and no allocation per request, so the client's share of
// the two cores is small and constant.
type httpConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &httpConn{c: c, r: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (h *httpConn) close() { _ = h.c.Close() }

var (
	httpVersion   = []byte("HTTP/1.1 ")
	contentLength = []byte("Content-Length: ")
)

// roundTrip sends one request and returns the response's status and body.
// The body aliases the read buffer and is valid until the next call.
func (h *httpConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err = h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, httpVersion) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	n := -1
	for {
		line, err = h.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if bytes.HasPrefix(line, contentLength) {
			n, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):])))
			if err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", line)
			}
		}
	}
	if n < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	body, err = h.r.Peek(n)
	if err != nil {
		return 0, nil, err
	}
	_, err = h.r.Discard(n)
	return status, body, err
}

// parseBody reads the six fields serve.appendResponse writes, in its order,
// and nothing else. ok is false for any other body.
func parseBody(b []byte) (o observation, ok bool) {
	var v int64
	if b, ok = eat(b, `{"epoch":`); !ok {
		return o, false
	}
	if v, b, ok = eatInt(b); !ok || v < 0 {
		return o, false
	}
	o.Epoch = uint64(v)
	if b, ok = eat(b, `,"t_ms":`); !ok {
		return o, false
	}
	if o.TMs, b, ok = eatInt(b); !ok {
		return o, false
	}
	if b, ok = eat(b, `,"source":"`); !ok {
		return o, false
	}
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return o, false
	}
	o.Source = -1
	if src, known := spacecdn.SourceFromString(string(b[:end])); known {
		o.Source = int(src)
	}
	if b, ok = eat(b[end:], `","sat":`); !ok {
		return o, false
	}
	if v, b, ok = eatInt(b); !ok {
		return o, false
	}
	o.Sat = int(v)
	if b, ok = eat(b, `,"hops":`); !ok {
		return o, false
	}
	if v, b, ok = eatInt(b); !ok {
		return o, false
	}
	o.Hops = int(v)
	if b, ok = eat(b, `,"rtt_us":`); !ok {
		return o, false
	}
	if v, b, ok = eatInt(b); !ok {
		return o, false
	}
	o.RTT = time.Duration(v) * time.Microsecond
	return o, string(b) == "}\n"
}

func eat(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

func eatInt(b []byte) (int64, []byte, bool) {
	i, neg := 0, false
	if len(b) > 0 && b[0] == '-' {
		neg, i = true, 1
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start || i-start > 18 {
		return 0, b, false
	}
	if neg {
		v = -v
	}
	return v, b[i:], true
}
