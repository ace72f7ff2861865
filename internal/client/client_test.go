package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treadmill/internal/protocol"
	"treadmill/internal/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialConn(t *testing.T, srv *server.Server) *Conn {
	t.Helper()
	c, err := Dial(srv.Addr(), DefaultConnConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSyncHelpers(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)

	if err := c.Set("k", 3, []byte("value")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit || string(resp.Value) != "value" || resp.Flags != 3 {
		t.Errorf("get = %+v", resp)
	}
	miss, err := c.Get("missing")
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit {
		t.Error("miss reported hit")
	}
	ok, err := c.Delete("k")
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	ok, err = c.Delete("k")
	if err != nil || ok {
		t.Fatalf("re-delete: %v %v", ok, err)
	}
	v, err := c.Version()
	if err != nil || v == "" {
		t.Fatalf("version: %q %v", v, err)
	}
}

func TestAsyncPipelining(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)

	const n = 500
	var wg sync.WaitGroup
	var failures atomic.Int64
	wg.Add(n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		err := c.Do(&protocol.Request{Op: protocol.OpSet, Key: key, Value: []byte(key)}, func(r *Result) {
			if r.Err != nil || r.Resp.Status != "STORED" {
				failures.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failed sets", failures.Load())
	}

	// Responses must match requests in order: read back and check values.
	wg.Add(n)
	var mismatches atomic.Int64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: key}, func(r *Result) {
			if r.Err != nil || !r.Resp.Hit || string(r.Resp.Value) != key || r.Resp.Key != key {
				mismatches.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if mismatches.Load() != 0 {
		t.Fatalf("%d mismatched responses", mismatches.Load())
	}
}

func TestRTTRecorded(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	ch := make(chan *Result, 1)
	if err := c.Do(&protocol.Request{Op: protocol.OpVersion}, func(r *Result) { ch <- r }); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.RTT() <= 0 || r.RTT() > time.Second {
		t.Errorf("rtt = %v", r.RTT())
	}
}

func TestNoReplyCallback(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	ch := make(chan *Result, 1)
	err := c.Do(&protocol.Request{Op: protocol.OpSet, Key: "nr", Value: []byte("v"), NoReply: true}, func(r *Result) { ch <- r })
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.Err != nil || r.Resp != nil {
		t.Fatalf("noreply result = %+v", r)
	}
	// The set must still have landed.
	resp, err := c.Get("nr")
	if err != nil || !resp.Hit {
		t.Fatalf("get after noreply: %v %+v", err, resp)
	}
}

func TestDoAfterClose(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	c.Close()
	err := c.Do(&protocol.Request{Op: protocol.OpVersion}, func(*Result) {})
	if err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestInvalidRequestKeepsConn: a request WriteRequest would reject (a bad
// key, an oversized value, infer tokens out of range) is refused before
// it takes a pipeline slot, so the connection stays usable.
func TestInvalidRequestKeepsConn(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	for _, req := range []*protocol.Request{
		{Op: protocol.OpGet, Key: "bad key"},
		{Op: protocol.OpSet, Key: "k", Value: make([]byte, protocol.MaxValueLen+1)},
		{Op: protocol.OpInfer, InTokens: 0, OutTokens: 1},
	} {
		err := c.Do(req, func(*Result) { t.Errorf("callback fired for invalid %+v", req.Op) })
		if !errors.Is(err, protocol.ErrProtocol) {
			t.Errorf("Do(invalid %v) = %v, want a protocol error", req.Op, err)
		}
	}
	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatalf("valid request after refused ones: %v", err)
	}
}

func TestNilCallbackRejected(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	if err := c.Do(&protocol.Request{Op: protocol.OpVersion}, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestServerDeathDeliversErrors(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	// Prime the connection so the reader is active.
	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	results := make(chan *Result, 64)
	// Queue requests then kill the server.
	for i := 0; i < 8; i++ {
		c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) { results <- r })
	}
	srv.Close()
	// Every callback must eventually fire (success or error), never hang.
	deadline := time.After(5 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case <-results:
		case <-deadline:
			t.Fatalf("callback %d never fired after server death", i)
		}
	}
}

func TestConcurrentDo(t *testing.T) {
	srv := startServer(t)
	c := dialConn(t, srv)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var inner sync.WaitGroup
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%dk%d", g, i)
				inner.Add(1)
				err := c.Do(&protocol.Request{Op: protocol.OpSet, Key: key, Value: []byte("v")}, func(r *Result) {
					if r.Err != nil || r.Resp.Status != "STORED" {
						bad.Add(1)
					}
					inner.Done()
				})
				if err != nil {
					bad.Add(1)
					inner.Done()
				}
			}
			inner.Wait()
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d failures under concurrency", bad.Load())
	}
}

func TestPipelineFullBackpressure(t *testing.T) {
	srv := startServer(t)
	cfg := DefaultConnConfig()
	cfg.MaxInflight = 4
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Block the reader with a slow callback so the pipeline fills.
	gate := make(chan struct{})
	var wg sync.WaitGroup
	full := 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		err := c.Do(&protocol.Request{Op: protocol.OpVersion}, func(*Result) { <-gate; wg.Done() })
		if err != nil {
			full++
			wg.Done()
		}
	}
	close(gate)
	wg.Wait()
	if full == 0 {
		t.Error("expected pipeline-full rejections with MaxInflight=4")
	}
}

func TestPoolRoundRobin(t *testing.T) {
	srv := startServer(t)
	p, err := DialPool(srv.Addr(), 4, DefaultConnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("size = %d", p.Size())
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < 100; i++ {
		wg.Add(1)
		key := fmt.Sprintf("k%d", i)
		err := p.Do(&protocol.Request{Op: protocol.OpSet, Key: key, Value: []byte("v")}, func(r *Result) {
			if r.Err != nil {
				bad.Add(1)
			}
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d failures", bad.Load())
	}
	if p.Conn(0) == nil || p.Conn(7) == nil {
		t.Error("Conn accessor broken")
	}
}

func TestDialPoolValidation(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 0, DefaultConnConfig()); err == nil {
		t.Error("pool size 0 should error")
	}
	if _, err := Dial("127.0.0.1:1", ConnConfig{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Error("dial to dead port should error")
	}
}
