package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/service"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand: the clock
// covers first byte written to last byte read and nothing of a client
// library.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer // reused: the reply is valid until the next do
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// reply is one response; body aliases the connection's buffer.
type reply struct {
	status int
	replay bool // the server answered a merge from its dedupe cache
	closed bool // the server asked to close the connection
	body   []byte
	start  time.Time
	took   time.Duration
}

// do sends one pre-encoded request and reads the whole response. After a
// transport error the connection is replaced, off the clock, so one
// failure does not fail every later operation.
func (c *conn) do(wire []byte) (reply, error) {
	r := reply{start: time.Now()}
	err := c.roundTrip(wire, &r)
	r.took = time.Since(r.start)
	if err != nil || r.closed {
		c.close()
		fresh, derr := dial(c.addr)
		if derr != nil {
			return r, fmt.Errorf("reconnecting to %s: %w (after: %v)", c.addr, derr, err)
		}
		c.c, c.br = fresh.c, fresh.br
	}
	return r, err
}

func (c *conn) roundTrip(wire []byte, r *reply) error {
	c.c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := c.c.Write(wire); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.status, r.body = resp.StatusCode, c.body.Bytes()
	r.replay = resp.Header.Get(service.HeaderIdempotentReplay) != ""
	r.closed = resp.Close
	return nil
}

func get(path string) []byte {
	return newRequest(opSearch, "GET", path, "", "", nil).wire
}

func post(path string) []byte {
	return newRequest(opSearch, "POST", path, "", "", nil).wire
}
