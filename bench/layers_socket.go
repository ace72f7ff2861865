package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/loadgen"
	"treadmill/internal/loadplane"
	"treadmill/internal/protocol"
	"treadmill/internal/router"
	"treadmill/internal/telemetry"
)

// The socket-bound layers: server, router, classic client, per-session
// state and timer, and the short live windows with the ledger cross-check.

// --- server, client, router: socket-bound layers ------------------------------

// rawConn is the bench's own byte driver: it writes literal request bytes
// and counts reply lines, so nothing of the client or of protocol.Parse* is
// inside a server or router round-trip time, and it allocates nothing.
type rawConn struct {
	c     net.Conn
	r     *bufio.Reader
	first []byte // scratch for the first reply line, reused across exchanges
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort, as the product's own client does
	}
	return &rawConn{c: c, r: bufio.NewReaderSize(c, 16<<10)}, nil
}

// exchange writes req and reads lines reply lines; it returns the first.
func (rc *rawConn) exchange(req []byte, lines int) ([]byte, error) {
	if _, err := rc.c.Write(req); err != nil {
		return nil, err
	}
	for i := 0; i < lines; i++ {
		line, err := rc.r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if i == 0 {
			rc.first = append(rc.first[:0], line...)
		}
	}
	return rc.first, nil
}

// rawKey is stored with a value that holds no newline, so a hit is exactly
// three reply lines: VALUE header, data, END.
const rawKey = "bench-raw"

var rawGet = []byte("get " + rawKey + "\r\n")

func seedRawKey(addr string) error {
	rc, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer rc.c.Close()
	set := fmt.Appendf(nil, "set %s 0 0 %d\r\n%s\r\n", rawKey, kvValueBytes, bytes.Repeat([]byte{'x'}, kvValueBytes))
	reply, err := rc.exchange(set, 1)
	if err != nil {
		return err
	}
	if string(reply) != "STORED\r\n" {
		return fmt.Errorf("seeding %s: %q", rawKey, reply)
	}
	return nil
}

// rawRoundTrips times single-outstanding GET hits of rawKey through addr.
func (l *ledger) rawRoundTrips(name string, parent int, addr string, timing bool) (ns []float64, allocs float64, err error) {
	rc, err := dialRaw(addr)
	if err != nil {
		return nil, 0, err
	}
	defer rc.c.Close()
	lines := 3
	if timing {
		reply, err := rc.exchange([]byte("timing on\r\n"), 1)
		if err != nil {
			return nil, 0, err
		}
		if string(reply) != "TIMING_ON\r\n" {
			return nil, 0, fmt.Errorf("timing on: %q", reply)
		}
		lines = 4 // the ST trailer follows END
	}
	const batch = 500
	trip := func() {
		for i := 0; i < batch && err == nil; i++ {
			var reply []byte
			if reply, err = rc.exchange(rawGet, lines); err == nil && !bytes.HasPrefix(reply, []byte("VALUE ")) {
				err = fmt.Errorf("%s: reply %q is not a hit", name, reply)
			}
		}
	}
	trip()
	ns = l.timed(name, parent, l.iters(24), batch, trip)
	allocs = allocsPer(batch, trip)
	l.rep.Attempted += int64(batch * (l.iters(24) + 2))
	return ns, allocs, err
}

func (l *ledger) serverLayer(context.Context) error {
	sec := l.tr.begin("server", l.root, 0, 1)
	defer l.tr.end(sec)
	srv, err := startKVServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := seedRawKey(srv.Addr()); err != nil {
		return err
	}
	ns, allocs, err := l.rawRoundTrips("server.roundtrip", sec, srv.Addr(), false)
	if err != nil {
		return err
	}
	l.put("server.roundtrip_ns", "ns", ns...)
	l.put("server.roundtrip_allocs", "count", allocs)
	ns, _, err = l.rawRoundTrips("server.roundtrip_timed", sec, srv.Addr(), true)
	if err != nil {
		return err
	}
	l.put("server.roundtrip_timed_ns", "ns", ns...)
	return nil
}

func (l *ledger) routerLayer(context.Context) error {
	sec := l.tr.begin("router", l.root, 0, 1)
	defer l.tr.end(sec)
	srv, err := startKVServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	rt, err := router.New(router.DefaultConfig([]string{srv.Addr()}))
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Close()
	if err := seedRawKey(rt.Addr()); err != nil {
		return err
	}
	ns, allocs, err := l.rawRoundTrips("router.roundtrip", sec, rt.Addr(), false)
	if err != nil {
		return err
	}
	l.put("router.roundtrip_ns", "ns", ns...)
	l.put("router.roundtrip_allocs", "count", allocs)
	return nil
}

// clientLayer times the classic client against the lean responder, which
// allocates nothing, so the process-wide allocation count is the client's.
func (l *ledger) clientLayer(context.Context) error {
	sec := l.tr.begin("client", l.root, 0, 1)
	defer l.tr.end(sec)
	sut, err := startLeanResponder()
	if err != nil {
		return err
	}
	defer sut.Close()
	c, err := client.Dial(sut.Addr(), client.DefaultConnConfig())
	if err != nil {
		return err
	}
	defer c.Close()

	const batch = 500
	var firstErr error
	sync1 := func() {
		for i := 0; i < batch; i++ {
			if _, err := c.Get(rawKey); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	sync1()
	l.put("client.roundtrip_ns", "ns", l.timed("client.roundtrip", sec, l.iters(24), batch, sync1)...)
	a := allocsPer(batch, sync1)
	l.put("client.roundtrip_allocs", "count", a)

	const pipe = 2048 // half the connection's pipeline, so Do never blocks
	req := &protocol.Request{Op: protocol.OpGet, Key: rawKey}
	var wg sync.WaitGroup
	cb := func(r *client.Result) {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		wg.Done()
	}
	pipelined := func() {
		wg.Add(pipe)
		for i := 0; i < pipe; i++ {
			if err := c.Do(req, cb); err != nil {
				wg.Done()
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		wg.Wait()
	}
	pipelined()
	l.put("client.pipelined_ns", "ns", l.timed("client.pipelined", sec, l.iters(24), pipe, pipelined)...)
	a = allocsPer(pipe, pipelined)
	l.put("client.pipelined_allocs", "count", a)
	l.rep.Attempted += int64((batch + pipe) * (l.iters(24) + 2))
	return firstErr
}

// --- per-session state and the timer ---------------------------------------------

// sessionLayers measures resident heap+stack bytes per idle dialled session
// (both ends of the loopback pair, no traffic) on both send paths, and how
// far the generator's sleep primitive overshoots a 200 µs deadline when it
// may not spin.
func (l *ledger) sessionLayers(context.Context) error {
	sec := l.tr.begin("sessions", l.root, 0, 1)
	defer l.tr.end(sec)
	inUse := func() uint64 {
		// Let the previous section's connections finish closing, so their
		// buffers and stacks are not credited to this one.
		time.Sleep(100 * time.Millisecond)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	const sessions = 256
	for _, c := range []struct {
		name   string
		shards int
	}{{"loadgen.bytes_per_session", 0}, {"loadplane.bytes_per_session", -1}} {
		sut, err := startLeanResponder()
		if err != nil {
			return err
		}
		before := inUse()
		id := l.tr.begin(c.name, sec, 0, sessions)
		gen, err := loadgen.NewOpenLoop(sut.Addr(), loadgen.Options{
			Shards: c.shards, Rate: 1, Conns: sessions, Workload: leanWorkload(), Seed: l.cfg.seed,
		})
		l.tr.end(id)
		if err != nil {
			sut.Close()
			return err
		}
		after := inUse()
		err = gen.Close()
		sut.Close()
		if err != nil {
			return err
		}
		l.put(c.name, "B", float64(int64(after)-int64(before))/sessions)
	}

	// The timer path, not the spin-wait: it is what a plane shard sleeps on
	// when shards do not leave a core free (live_lean on two cores), and what
	// slip_p50_us there is made of.
	const spin = false
	var over []float64
	for i := 0; i < l.iters(400); i++ {
		deadline := time.Now().Add(200 * time.Microsecond)
		id := l.tr.begin("loadplane.sleep_until", sec, 0, 1)
		loadplane.SleepUntil(deadline, spin)
		l.tr.end(id)
		over = append(over, float64(time.Since(deadline))/float64(time.Microsecond))
	}
	l.put("loadplane.sleep_overshoot_us", "us", over...)
	return nil
}

// --- live windows: what the end-to-end run cannot gate, and the ledger check ------

// liveLayers runs short windows of both live workloads for the tail and
// allocation numbers that did not repeat well enough to gate, then the
// ledger cross-check: two live_kv windows with the product's own anatomy,
// server-timing trailers and tracer on.
func (l *ledger) liveLayers(ctx context.Context) error {
	window := func(name string, spec liveSpec, target *liveTarget, seed uint64, opts liveOpts) (*liveWindow, error) {
		runtime.GC()
		id := l.tr.begin(name, l.root, 0, 1)
		w, err := runLiveWindow(ctx, spec, target, seed, l.window, opts)
		l.tr.end(id)
		if err != nil {
			return nil, err
		}
		l.tr.spans[id-1].Calls = int(w.stats.Completed)
		handshakes := uint64(0)
		if opts.serverTiming {
			handshakes = liveConns // each connection's "timing on" is a request the server counts
		}
		for _, v := range w.check(handshakes) {
			l.rep.violate("%s: %s", name, v)
		}
		l.rep.Attempted += int64(w.stats.Completed + w.stats.Errors)
		l.rep.Failed += int64(w.stats.Errors + w.badReplies)
		if w.stats.Completed == 0 {
			return nil, fmt.Errorf("%s completed no request", name)
		}
		return w, nil
	}
	failRatio := func(ws ...*liveWindow) float64 {
		var failed, attempted uint64
		for _, w := range ws {
			failed += w.stats.Errors + w.badReplies
			attempted += w.stats.Completed + w.stats.Errors
		}
		return float64(failed) / float64(attempted)
	}

	// live_lean through the plane.
	lean, _ := liveSpecFor("live_lean", l.cfg.quick)
	leanTarget, err := startTarget(lean, l.cfg.seed)
	if err != nil {
		return err
	}
	if _, err := runLiveWindow(ctx, lean, leanTarget, l.cfg.seed, l.window/4, liveOpts{}); err != nil {
		leanTarget.close()
		return err
	}
	var leanWs []*liveWindow
	var leanP99, kvP99 []float64 // taken per window: the sample buffer is reused
	for i := 0; i < 2; i++ {
		w, err := window("live_lean", lean, leanTarget, l.cfg.seed+uint64(i)+1, liveOpts{})
		if err != nil {
			leanTarget.close()
			return err
		}
		leanWs = append(leanWs, w)
		leanP99 = append(leanP99, exactQuantile(w.rtt, 0.99))
	}
	leanTarget.close()
	per := func(ws []*liveWindow, f func(*liveWindow) float64) []float64 {
		out := make([]float64, len(ws))
		for i, w := range ws {
			out[i] = f(w)
		}
		return out
	}
	cpuUs := func(w *liveWindow) float64 { return w.cpuS * 1e6 / float64(w.stats.Completed) }
	allocs := func(w *liveWindow) float64 { return float64(w.mallocs) / float64(w.stats.Completed) }
	l.put("loadplane.cpu_us_per_req", "us", per(leanWs, cpuUs)...)
	l.put("loadplane.allocs_per_req", "count", per(leanWs, allocs)...)
	l.put("loadplane.slip_p50_us", "us", per(leanWs, func(w *liveWindow) float64 { return w.slipP50 })...)
	l.put("loadplane.slip_p99_us", "us", per(leanWs, func(w *liveWindow) float64 { return w.slipP99 })...)
	l.put("loadplane.rtt_p99_us", "us", leanP99...)
	l.put("live_lean.fail_ratio", "ratio", failRatio(leanWs...))

	// live_kv through the classic client, untraced then traced.
	kv, _ := liveSpecFor("live_kv", l.cfg.quick)
	kvTarget, err := startTarget(kv, l.cfg.seed)
	if err != nil {
		return err
	}
	defer kvTarget.close()
	if _, err := runLiveWindow(ctx, kv, kvTarget, l.cfg.seed, l.window/4, liveOpts{}); err != nil {
		return err
	}
	var plain, traced []*liveWindow
	acfg := anatomy.DefaultConfig()
	acfg.Source = anatomy.SourceLive
	ag, err := anatomy.NewAggregator(acfg)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		w, err := window("live_kv", kv, kvTarget, l.cfg.seed+uint64(i)+1, liveOpts{})
		if err != nil {
			return err
		}
		plain = append(plain, w)
		kvP99 = append(kvP99, exactQuantile(w.rtt, 0.99))
		tracer, err := telemetry.NewTracer(100, telemetry.DefaultTraceBuffer)
		if err != nil {
			return err
		}
		w, err = window("live_kv.traced", kv, kvTarget, l.cfg.seed+uint64(i)+1, liveOpts{anatomy: ag, serverTiming: true, tracer: tracer})
		if err != nil {
			return err
		}
		traced = append(traced, w)
	}
	l.put("live_kv.allocs_per_req", "count", per(plain, allocs)...)
	l.put("live_kv.cpu_us_per_req", "us", per(plain, cpuUs)...)
	l.put("live_kv.fail_ratio", "ratio", failRatio(append(plain, traced...)...))
	l.put("loadgen.slip_p50_us", "us", per(plain, func(w *liveWindow) float64 { return w.slipP50 })...)
	l.put("loadgen.slip_p99_us", "us", per(plain, func(w *liveWindow) float64 { return w.slipP99 })...)
	l.put("loadgen.rtt_p99_us", "us", kvP99...)
	l.put("loadgen.late_send_ratio", "ratio", per(plain, func(w *liveWindow) float64 {
		return float64(w.stats.LateSends) / float64(w.stats.Sent)
	})...)
	l.put("trace_overhead_pct", "%", 100*(summarize(per(traced, cpuUs)).Q1/summarize(per(plain, cpuUs)).Q1-1))

	b := ag.Finalize()
	if b.Requests == 0 {
		l.rep.violate("ledger cross-check recorded no request")
	}
	// The body cut (requests at or below the median) is the typical request;
	// overall means are hostage to one stalled window.
	meanUs := func(p anatomy.Phase) float64 { return b.Body.Mean[p] * 1e6 }
	l.put("ledger.client_send_us", "us", meanUs(anatomy.ClientSend))
	// What the server cannot account for inside the client's wire window:
	// kernel, loopback and scheduler time on both sides.
	l.put("ledger.wire_us", "us", meanUs(anatomy.Other)+meanUs(anatomy.WireServer))
	l.put("ledger.srv_parse_us", "us", meanUs(anatomy.SrvParse))
	l.put("ledger.srv_store_us", "us", meanUs(anatomy.SrvStore))
	l.put("ledger.srv_serialize_us", "us", meanUs(anatomy.SrvSerialize))
	l.put("ledger.srv_write_us", "us", meanUs(anatomy.SrvWrite))
	l.put("ledger.client_recv_us", "us", meanUs(anatomy.ClientRecv))
	share := 0.0
	if b.Tail.MeanTotal > 0 {
		share = (b.Tail.Mean[anatomy.Other] + b.Tail.Mean[anatomy.WireServer]) / b.Tail.MeanTotal
	}
	l.put("ledger.other_share_tail", "ratio", share)
	return nil
}
