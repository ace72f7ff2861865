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

// endResponder answers every request line with END (a miss) without
// allocating, so a process-wide allocation count is the client's own.
func endResponder(t *testing.T) string {
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
					if _, err := br.ReadSlice('\n'); err != nil {
						return
					}
					bw.WriteString("END\r\n")
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
// pipelined Do costs its pending and nothing else — the encoder appends in
// place and the reader decodes into one reused Response and Result.
func TestConnPipelinedAllocs(t *testing.T) {
	c, err := Dial(endResponder(t), DefaultConnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pipe = 256
	req := &protocol.Request{Op: protocol.OpGet, Key: "k"}
	var wg sync.WaitGroup
	cb := func(r *Result) {
		if r.Err != nil || r.Resp.Status != "END" {
			t.Errorf("result = %+v", r)
		}
		wg.Done()
	}
	round := func() {
		wg.Add(pipe)
		for i := 0; i < pipe; i++ {
			if err := c.Do(req, cb); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
	round()
	if allocs := testing.AllocsPerRun(20, round) / pipe; allocs > 1 {
		t.Errorf("pipelined Do allocated %.2f objects, want <= 1 (the pending)", allocs)
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
