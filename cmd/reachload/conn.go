package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout bounds one request; a request that hits it counts as
// failed. It is long because the reference box's disk now and then takes
// seconds over one fsync (a /v1/mutate stalled 2-5 s early in 3 of 40 mixed
// runs, once past 5 s, while reads beside it went on at full speed): that
// is a slow request, which the latency and throughput windows show, not a
// failed one.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection driven synchronously by the
// goroutine that owns it: the request is written and the response read on
// the caller's stack. net/http's Transport would add two goroutines and
// two channel hand-offs per request, which on a box this small is CPU the
// server under test would otherwise get; responses are still parsed by
// net/http, so chunked bodies and header edge cases are the stdlib's job.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte // request scratch
	body []byte // response body scratch, valid until the next do
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and body. The body aliases
// the connection's scratch buffer. After an error the connection is
// dropped and the next call redials.
func (c *conn) do(method string, target, payload []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: reachload\r\n"...)
	if payload != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, payload...)
	c.req = b

	status, err := c.roundTrip()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	return status, c.body, nil
}

func (c *conn) roundTrip() (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, nil
}

// reachTarget appends the /v1/reach request target for (s, t).
func reachTarget(b []byte, s, t uint32) []byte {
	b = append(b[:0], "/v1/reach?s="...)
	b = strconv.AppendUint(b, uint64(s), 10)
	b = append(b, "&t="...)
	return strconv.AppendUint(b, uint64(t), 10)
}

var (
	jsonTrue    = []byte(`"reachable":true`)
	jsonFalse   = []byte(`"reachable":false`)
	jsonResults = []byte(`"results":[`)
)

// reach asks /v1/reach and returns the answer; any status but 200, and a
// body that is neither answer, is an error.
func (c *conn) reach(target []byte) (bool, error) {
	status, body, err := c.do("GET", target, nil)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch {
	case bytes.Contains(body, jsonTrue):
		return true, nil
	case bytes.Contains(body, jsonFalse):
		return false, nil
	}
	return false, fmt.Errorf("unexpected body %q", body)
}

// appendBatchBody appends the /v1/batch request body for n pairs, the j-th
// being pair(j).
func appendBatchBody(b []byte, n int, pair func(j int) (s, t uint32)) []byte {
	b = append(b, `{"pairs":[`...)
	for j := 0; j < n; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		s, t := pair(j)
		b = append(b, `{"s":`...)
		b = strconv.AppendUint(b, uint64(s), 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendUint(b, uint64(t), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// batchResults decodes a /v1/batch response into out, which must have
// room for every expected result; it returns how many it decoded.
func batchResults(body []byte, out []bool) (int, error) {
	i := bytes.Index(body, jsonResults)
	if i < 0 {
		return 0, fmt.Errorf("no results in %q", truncate(body, 80))
	}
	n := 0
	for _, ch := range body[i+len(jsonResults):] {
		if ch != 't' && ch != 'f' {
			continue
		}
		if n == len(out) {
			return n, fmt.Errorf("more than %d results", len(out))
		}
		out[n] = ch == 't'
		n++
	}
	return n, nil
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// get fetches one control-plane document (stats, metrics, readiness) on a
// connection of its own.
func get(addr, target string) (int, []byte, error) {
	c := newConn(addr)
	defer c.close()
	status, body, err := c.do("GET", []byte(target), nil)
	return status, append([]byte(nil), body...), err
}
