package client

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"treadmill/internal/protocol"
	"treadmill/internal/telemetry"
)

// TestConnTelemetryCounters checks the request/response/inflight metrics a
// registry-equipped connection maintains.
func TestConnTelemetryCounters(t *testing.T) {
	srv := startServer(t)
	reg := telemetry.New()
	cfg := DefaultConnConfig()
	cfg.Telemetry = reg
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(*Result) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["client.conns_opened"]; got != 1 {
		t.Errorf("conns_opened = %d", got)
	}
	// n gets + 1 set.
	if got := snap.Counters["client.requests"]; got != n+1 {
		t.Errorf("requests = %d, want %d", got, n+1)
	}
	if got := snap.Counters["client.responses"]; got != n+1 {
		t.Errorf("responses = %d, want %d", got, n+1)
	}
	if got := snap.Counters["client.errors"]; got != 0 {
		t.Errorf("errors = %d", got)
	}
	if got := snap.Gauges["client.inflight"]; got != 0 {
		t.Errorf("inflight after drain = %d", got)
	}
}

// TestConnTraceLifecycle samples every request and checks the captured
// lifecycle stamps are complete and monotone: arrival <= enqueue <= send
// <= first byte <= complete.
func TestConnTraceLifecycle(t *testing.T) {
	srv := startServer(t)
	tracer, err := telemetry.NewTracer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConnConfig()
	cfg.Observers.Tracer = tracer
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	arrival := time.Now().Add(-time.Millisecond)
	done := make(chan struct{})
	if err := c.DoAt(&protocol.Request{Op: protocol.OpGet, Key: "k"}, arrival, func(*Result) { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
	// The trace is emitted after the callback on the reader goroutine;
	// poll briefly for it to land.
	deadline := time.Now().Add(time.Second)
	for tracer.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := tracer.Records()
	if len(recs) != 2 { // set + get
		t.Fatalf("%d traces, want 2", len(recs))
	}
	get := recs[1]
	if get.Op != "get" {
		t.Errorf("op = %q", get.Op)
	}
	if get.ArrivalNs != arrival.UnixNano() {
		t.Errorf("arrival = %d, want %d", get.ArrivalNs, arrival.UnixNano())
	}
	stamps := []int64{get.ArrivalNs, get.EnqueueNs, get.SendNs, get.FirstByteNs, get.CompleteNs}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Errorf("stamp %d (%d) precedes stamp %d (%d): %+v", i, stamps[i], i-1, stamps[i-1], get)
		}
	}
	if get.Err != "" {
		t.Errorf("unexpected trace error %q", get.Err)
	}
}

// TestConnTraceOnFailure closes the server under an in-flight request: the
// sampled trace must surface the error.
func TestConnTraceOnFailure(t *testing.T) {
	srv := startServer(t)
	tracer, err := telemetry.NewTracer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg := DefaultConnConfig()
	cfg.Observers.Tracer = tracer
	cfg.Telemetry = reg
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan *Result, 1)
	if err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "missing"}, func(r *Result) { done <- r }); err != nil {
		t.Fatal(err)
	}
	<-done // connection healthy; now kill the server mid-request
	srv.Close()
	res := make(chan *Result, 1)
	err = c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) { res <- r })
	if err == nil {
		r := <-res
		if r.Err == nil {
			t.Fatal("request against closed server succeeded")
		}
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		recs := tracer.Records()
		if len(recs) >= 2 && recs[len(recs)-1].Err != "" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no error trace captured; traces: %+v", tracer.Records())
}

// TestDoAtRefusalsAreTraced: requests DoAt refuses before the reader can
// own them — pipeline full, connection closed — still reach the observers,
// so sampled traces include failures on every path.
func TestDoAtRefusalsAreTraced(t *testing.T) {
	tracer, err := telemetry.NewTracer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	local, peer := net.Pipe()
	defer peer.Close()
	go io.Copy(io.Discard, peer) // accepts requests, never replies
	cfg := DefaultConnConfig()
	cfg.MaxInflight = 1
	cfg.Observers.Tracer = tracer
	c := NewConn(local, cfg)
	get := &protocol.Request{Op: protocol.OpGet, Key: "k"}
	if err := c.Do(get, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	refused := func(*Result) { t.Error("callback fired for a refused request") }
	if err := c.Do(get, refused); err == nil {
		t.Fatal("a one-slot pipeline took a second request")
	}
	c.Close()
	if err := c.Do(get, refused); err != ErrClosed {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	// Three failures: the full pipeline, the in-flight request Close
	// failed, and the closed connection.
	deadline := time.Now().Add(time.Second)
	for tracer.Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := tracer.Records()
	if len(recs) != 3 {
		t.Fatalf("%d traces, want 3: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Err == "" {
			t.Errorf("trace without its error: %+v", r)
		}
	}
}
