package client

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/protocol"
	"treadmill/internal/rtprobe"
	"treadmill/internal/server"
)

func startTimedServer(t *testing.T) *server.Server {
	t.Helper()
	probe := rtprobe.NewSampler(rtprobe.Config{Interval: time.Millisecond})
	probe.Start()
	t.Cleanup(probe.Stop)
	cfg := server.DefaultConfig()
	cfg.Probe = probe
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServerTimingEndToEnd drives a timing-negotiated connection against a
// real loopback server and checks the live anatomy ledger: server-derived
// phases populated, WireServer fully split away, and every recorded vector
// tiling its request's measured latency.
func TestServerTimingEndToEnd(t *testing.T) {
	srv := startTimedServer(t)
	agg, err := anatomy.NewAggregator(liveAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConnConfig()
	cfg.Observers.Anatomy = agg
	cfg.ServerTiming = true
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("k", 0, []byte("value")); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: "k"}, func(r *Result) {
			if r.Err != nil {
				t.Errorf("get: %v", r.Err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// The ledger is fed after each callback returns, on the reader
	// goroutine; poll briefly for the last record to land. set + n gets
	// must all be recorded.
	deadline := time.Now().Add(time.Second)
	for agg.Count() < n+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	b := agg.Finalize()
	if b.Source != anatomy.SourceLive {
		t.Errorf("source = %q", b.Source)
	}
	if b.Requests != n+1 {
		t.Errorf("requests = %d, want %d", b.Requests, n+1)
	}
	srvWall := b.Overall.Mean[anatomy.SrvParse] + b.Overall.Mean[anatomy.SrvStore] +
		b.Overall.Mean[anatomy.SrvSerialize] + b.Overall.Mean[anatomy.SrvWrite]
	if srvWall <= 0 {
		t.Errorf("no server-derived wall time in ledger: %+v", b.Overall.Mean)
	}
	if b.Overall.Mean[anatomy.WireServer] != 0 {
		t.Errorf("WireServer not split: %g", b.Overall.Mean[anatomy.WireServer])
	}
	// Tiling: the per-phase means of a cut must sum to its mean total.
	if diff := math.Abs(b.Overall.Mean.Sum() - b.Overall.MeanTotal); diff > 1e-9 {
		t.Errorf("overall means do not tile: sum %g vs total %g", b.Overall.Mean.Sum(), b.Overall.MeanTotal)
	}
}

// legacyServer is a minimal memcached responder that predates the timing
// extension: it answers the timing verb with ERROR (what real memcached
// says to an unknown command) and never writes trailers.
func legacyServer(t *testing.T) string {
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
				store := map[string][]byte{}
				for {
					req, err := protocol.ParseRequest(br)
					if err != nil {
						return
					}
					switch req.Op {
					case protocol.OpTiming:
						bw.WriteString("ERROR\r\n")
					case protocol.OpSet:
						store[req.Key] = req.Value
						if !req.NoReply {
							bw.WriteString("STORED\r\n")
						}
					case protocol.OpGet:
						if v, ok := store[req.Key]; ok {
							fmt.Fprintf(bw, "VALUE %s 0 %d\r\n", req.Key, len(v))
							bw.Write(v)
							bw.WriteString("\r\n")
						}
						bw.WriteString("END\r\n")
					default:
						bw.WriteString("ERROR\r\n")
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestServerTimingDowngrade connects with ServerTiming to a server that
// predates the extension (answers ERROR to the handshake) and expects the
// connection to downgrade to the coarse decomposition, not break framing.
func TestServerTimingDowngrade(t *testing.T) {
	addr := legacyServer(t)
	agg, err := anatomy.NewAggregator(liveAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConnConfig()
	cfg.Observers.Anatomy = agg
	cfg.ServerTiming = true
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit || string(resp.Value) != "v" {
		t.Fatalf("get after downgrade = %+v", resp)
	}
	b := agg.Finalize()
	if b.Requests != 2 {
		t.Fatalf("requests = %d", b.Requests)
	}
	if b.Overall.Mean[anatomy.WireServer] <= 0 {
		t.Errorf("coarse mode should put time in WireServer: %+v", b.Overall.Mean)
	}
	for _, p := range []anatomy.Phase{anatomy.SrvParse, anatomy.SrvStore, anatomy.SrvSerialize, anatomy.SrvWrite, anatomy.SrvGC} {
		if b.Overall.Mean[p] != 0 {
			t.Errorf("coarse mode populated %s: %g", p, b.Overall.Mean[p])
		}
	}
}

func liveAggConfig() anatomy.Config {
	cfg := anatomy.DefaultConfig()
	cfg.Source = anatomy.SourceLive
	return cfg
}
