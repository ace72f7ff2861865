package client

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"treadmill/internal/protocol"
)

// hitResponder answers every "get <key>" line with a hit on that key
// without allocating, so a process-wide allocation count is the client's
// own and the reader decodes a reply key on every response.
func hitResponder(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil || len(line) < len("get \r\n") {
						return
					}
					bw.WriteString("VALUE ")
					bw.Write(line[len("get ") : len(line)-2])
					bw.WriteString(" 0 5\r\nhello\r\nEND\r\n")
					if br.Buffered() == 0 && bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestConnPipelinedAllocs guards the classic path's allocation footing: a
// pipelined request costs nothing — the encoder appends in place, the
// pending comes off the connection's free list, and the reader decodes the
// reply key and value into one reused Response and Result — whether the
// client encodes the request (Do) or the caller did (DoEncodedAt).
func TestConnPipelinedAllocs(t *testing.T) {
	c, err := Dial(hitResponder(t), DefaultConnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pipe = 256
	req := &protocol.Request{Op: protocol.OpGet, Key: "key-1"}
	wire := []byte("get key-1\r\n")
	var wg sync.WaitGroup
	cb := func(r *Result) {
		if r.Err != nil || !r.Resp.Hit || r.Resp.Key != "key-1" || string(r.Resp.Value) != "hello" {
			t.Errorf("result = %+v", r)
		}
		wg.Done()
	}
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"Do", func() error { return c.Do(req, cb) }},
		{"DoEncodedAt", func() error { return c.DoEncodedAt(protocol.OpGet, wire, time.Time{}, cb) }},
	} {
		round := func() {
			wg.Add(pipe)
			for i := 0; i < pipe; i++ {
				if err := tc.do(); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
		}
		round()
		if allocs := testing.AllocsPerRun(20, round) / pipe; allocs != 0 {
			t.Errorf("pipelined %s allocated %.4f objects per request, want 0", tc.name, allocs)
		}
	}
}

// TestUnsolicitedReplyFailsConn pins the reader's wake order: it waits in
// the socket, so a reply with nothing in flight is caught as a framing
// violation and tears the connection down, rather than being matched to
// whichever request comes next.
func TestUnsolicitedReplyFailsConn(t *testing.T) {
	local, peer := net.Pipe()
	c := NewConn(local, DefaultConnConfig())
	defer c.Close()
	defer peer.Close()
	go peer.Write([]byte("END\r\n"))
	closed := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed
	}
	deadline := time.Now().Add(time.Second)
	for !closed() {
		if time.Now().After(deadline) {
			t.Fatal("connection still open 1s after an unsolicited reply")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(c.readerErr, errUnsolicited) {
		t.Errorf("reader error = %v, want %v", c.readerErr, errUnsolicited)
	}
	err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(*Result) {
		t.Error("callback fired on a connection torn down by an unsolicited reply")
	})
	if err != ErrClosed {
		t.Errorf("Do after unsolicited reply = %v, want ErrClosed", err)
	}
}
