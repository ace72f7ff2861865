package client

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treadmill/internal/protocol"
)

// hangServer accepts connections and reads forever without ever
// responding — the pathological peer the shutdown paths must survive.
func hangServer(t *testing.T) string {
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
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCloseFailsOutstandingCallbacks: every pipelined request must get its
// callback on Close, even when the server never responds. A stranded
// callback deadlocks any WaitGroup-counting load generator.
func TestCloseFailsOutstandingCallbacks(t *testing.T) {
	c, err := Dial(hangServer(t), DefaultConnConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	var errsSeen atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) {
			if r.Err != nil {
				errsSeen.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("callbacks stranded after Close: %d/%d delivered", errsSeen.Load(), n)
	}
	if errsSeen.Load() != n {
		t.Fatalf("%d error callbacks, want %d", errsSeen.Load(), n)
	}
}

// TestWriteErrorExactlyOnceDelivery: when the transport fails, each
// request's outcome must be delivered exactly once — either as a DoAt
// error return or as an error callback, never both and never neither.
func TestWriteErrorExactlyOnceDelivery(t *testing.T) {
	c1, c2 := net.Pipe()
	c := NewConn(c1, DefaultConnConfig())
	defer c.Close()
	// Kill the transport: every write from now on errors.
	c2.Close()

	time.Sleep(10 * time.Millisecond) // let the reader observe the closed pipe
	var outcomes atomic.Int64
	var wg sync.WaitGroup
	const n = 16
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) {
			outcomes.Add(1)
			wg.Done()
		})
		if err != nil {
			// Error return: the callback must never fire for this request.
			outcomes.Add(1)
			wg.Done()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("outcome never delivered for some request")
	}
	// Give any erroneous double delivery a moment to land, then check the
	// count is exactly one outcome per request.
	time.Sleep(50 * time.Millisecond)
	if got := outcomes.Load(); got != n {
		t.Fatalf("%d outcomes for %d requests (double or missing delivery)", got, n)
	}
}

// TestRecycledPendingExactlyOnceDelivery: the reader recycles a pending
// once it delivered the reply, which can happen while the write that sent
// the request is still returning an error (the peer answered, then hung up
// before taking the request's last byte). The writer's claim must lose to
// the reader's, and the senders queued behind it, which may take that very
// pending, must each still get exactly one outcome.
func TestRecycledPendingExactlyOnceDelivery(t *testing.T) {
	const (
		warm    = 4 // answered in full, so the free list holds pendings
		senders = 8
	)
	req := &protocol.Request{Op: protocol.OpGet, Key: "k"}
	n := len("get k\r\n")
	for round := 0; round < 20; round++ {
		c1, c2 := net.Pipe()
		c := NewConn(c1, DefaultConnConfig())
		go func() {
			defer c2.Close()
			buf := make([]byte, n)
			for i := 0; i <= warm; i++ {
				last := n
				if i == warm {
					last = n - 1 // answer the next request early, then hang up
				}
				if _, err := io.ReadFull(c2, buf[:last]); err != nil {
					return
				}
				if _, err := c2.Write([]byte("END\r\n")); err != nil {
					return
				}
			}
		}()
		var outcomes atomic.Int64
		var wg sync.WaitGroup
		cb := func(*Result) {
			outcomes.Add(1)
			wg.Done()
		}
		for i := 0; i < warm; i++ {
			wg.Add(1)
			if err := c.Do(req, cb); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
		}
		outcomes.Store(0)
		var start sync.WaitGroup
		start.Add(1)
		wg.Add(senders)
		for i := 0; i < senders; i++ {
			go func() {
				start.Wait()
				if c.Do(req, cb) != nil {
					outcomes.Add(1)
					wg.Done()
				}
			}()
		}
		start.Done()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: %d of %d outcomes delivered", round, outcomes.Load(), senders)
		}
		time.Sleep(5 * time.Millisecond) // let a double delivery land
		if got := outcomes.Load(); got != senders {
			t.Fatalf("round %d: %d outcomes for %d requests (double or missing delivery)", round, got, senders)
		}
		c.Close()
	}
}

// TestDoAfterFailureReturnsClosed: once the connection tore itself down,
// subsequent requests fail fast with ErrClosed instead of queueing.
func TestDoAfterFailureReturnsClosed(t *testing.T) {
	c1, c2 := net.Pipe()
	c := NewConn(c1, DefaultConnConfig())
	c2.Close()
	c.Close()
	err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) {
		t.Error("callback fired on closed connection")
	})
	if err == nil {
		t.Fatal("Do succeeded on closed connection")
	}
}
