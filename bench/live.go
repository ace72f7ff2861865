package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/loadgen"
	"treadmill/internal/server"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// Fixed constants of the live workloads (see README.md for the reasons).
const (
	liveConns     = 2
	kvMaxInflight = 4096
	// The plane drops a send when a connection's ring is full, and a
	// workload may not have failing operations: 32 768 slots of 32 bytes per
	// connection ride out a 650 ms stall of the host at 100 k rps, where the
	// 4 096 of the classic path overflowed on a 70 ms one.
	leanMaxInflight = 32768
	liveWindows     = 5
	kvRate          = 20000.0
	leanRate        = 100000.0
	kvKeys          = 10000
	kvValueBytes    = 256
)

// kvWorkload is the live_kv request mix: 90 % GET / 10 % SET, Zipf 0.99 over
// 10 000 preloaded keys, constant 256-byte values — every GET is a hit of a
// known size, so replies can be checked.
func kvWorkload() workload.Config {
	return workload.Config{
		Name:        "bench-kv",
		GetFraction: 0.9,
		Keys:        kvKeys,
		KeySkew:     0.99,
		ValueSize:   workload.SizeDist{Kind: "constant", Value: kvValueBytes},
		KeyPrefix:   "bk",
	}
}

// leanWorkload is GET-only, so the lean responder's universal miss is a
// valid reply and the plane never materialises a value.
func leanWorkload() workload.Config {
	return workload.Config{
		Name:        "bench-lean",
		GetFraction: 1.0,
		Keys:        kvKeys,
		ValueSize:   workload.SizeDist{Kind: "constant", Value: 64},
		KeyPrefix:   "bl",
	}
}

// leanResponder answers every request line with "END\r\n" without touching
// the heap — a copy of the unexported experiments.leanResponder, kept here
// so that process-wide CPU and allocation deltas on live_lean measure the
// load plane and not a stand-in server.
type leanResponder struct {
	ln       net.Listener
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	requests atomic.Uint64
}

func startLeanResponder() (*leanResponder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &leanResponder{ln: ln, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			r.conns[c] = struct{}{}
			r.mu.Unlock()
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.serve(c)
				r.mu.Lock()
				delete(r.conns, c)
				r.mu.Unlock()
				c.Close()
			}()
		}
	}()
	return r, nil
}

func (r *leanResponder) serve(c net.Conn) {
	br := bufio.NewReaderSize(c, 4096)
	bw := bufio.NewWriterSize(c, 4096)
	for {
		if _, err := br.ReadSlice('\n'); err != nil {
			return
		}
		r.requests.Add(1)
		if _, err := bw.WriteString("END\r\n"); err != nil {
			return
		}
		// Coalesce: flush once the pipelined burst is consumed.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (r *leanResponder) Addr() string     { return r.ln.Addr().String() }
func (r *leanResponder) Requests() uint64 { return r.requests.Load() }

// Close stops accepting, closes every open connection and waits for the
// serving goroutines to end.
func (r *leanResponder) Close() {
	r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// liveTarget is the system a live workload drives: its address, its own
// count of requests served, and how to stop it.
type liveTarget struct {
	addr     string
	requests func() uint64
	close    func()
	// rtt is the latency sample buffer, kept with the fixture so that every
	// window of a run writes into the same memory instead of growing the
	// heap by four megabytes each.
	rtt []float64
}

// startKVServer starts the product's server on a loopback port.
func startKVServer() (*server.Server, error) {
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// liveSpec describes one live workload.
type liveSpec struct {
	name   string
	rate   float64
	shards int // loadgen.Options.Shards: 0 classic, -1 sharded plane
	// maxInflight is the per-connection pipeline bound.
	maxInflight int
	workload    workload.Config
	// checkReplies: every GET reply must be a hit of kvValueBytes (only the
	// classic path hands the harness a decoded response).
	checkReplies bool
}

// liveSpecFor returns the named live workload. A smoke run (quick) offers a
// tenth of the rate: it checks replies and counts, not speed, and must not
// crowd the other packages' tests it runs beside.
func liveSpecFor(name string, quick bool) (liveSpec, error) {
	var spec liveSpec
	switch name {
	case "live_kv":
		spec = liveSpec{name: name, rate: kvRate, shards: 0, maxInflight: kvMaxInflight, workload: kvWorkload(), checkReplies: true}
	case "live_lean":
		spec = liveSpec{name: name, rate: leanRate, shards: -1, maxInflight: leanMaxInflight, workload: leanWorkload()}
	default:
		return liveSpec{}, fmt.Errorf("unknown live workload %q", name)
	}
	if quick {
		spec.rate /= 10
	}
	return spec, nil
}

// startTarget builds the fixture of a live workload: the server (or lean
// responder) on a loopback port, with the key space preloaded for live_kv.
func startTarget(spec liveSpec, seed uint64) (*liveTarget, error) {
	if spec.name == "live_lean" {
		r, err := startLeanResponder()
		if err != nil {
			return nil, err
		}
		return &liveTarget{addr: r.Addr(), requests: r.Requests, close: r.Close}, nil
	}
	srv, err := startKVServer()
	if err != nil {
		return nil, err
	}
	if err := loadgen.Preload(srv.Addr(), spec.workload, seed); err != nil {
		srv.Close()
		return nil, err
	}
	return &liveTarget{addr: srv.Addr(), requests: srv.Requests, close: func() { srv.Close() }}, nil
}

// liveOpts switches on the product's own per-request instrumentation for
// the ledger cross-check windows; the end-to-end windows leave it zero.
type liveOpts struct {
	anatomy      *anatomy.Aggregator
	serverTiming bool
	tracer       *telemetry.Tracer
}

// liveWindow is what one measured window yields.
type liveWindow struct {
	stats  loadgen.Stats
	served uint64 // target's own request-count delta
	// rtt aliases the target's sample buffer: it is valid until the next
	// window on the same target, so quantiles are taken before that.
	rtt        []float64
	overflow   uint64 // completions that did not fit the sample buffer
	badReplies uint64
	cpuS       float64
	mallocs    uint64
	slipP50    float64
	slipP99    float64
	slipTotal  uint64
}

// runLiveWindow drives one open-loop window against target with a fresh
// OpenLoop and a fresh registry: on the classic path Stats.Sent and
// LateSends accumulate across repeated Run calls, and a plane is
// single-use, so neither can be reused between windows.
func runLiveWindow(ctx context.Context, spec liveSpec, target *liveTarget, seed uint64, window time.Duration, opts liveOpts) (*liveWindow, error) {
	w := &liveWindow{}
	if capacity := int(spec.rate*window.Seconds()*1.25) + 1024; len(target.rtt) < capacity {
		target.rtt = make([]float64, capacity)
	}
	rtt := target.rtt
	var next, overflow, bad atomic.Uint64
	reg := telemetry.New()
	// Read before dialling: a server-timing handshake is a request the
	// server counts, and it may land before or after NewOpenLoop returns.
	served0 := target.requests()
	gen, err := loadgen.NewOpenLoop(target.addr, loadgen.Options{
		Rate:         spec.rate,
		Conns:        liveConns,
		Workload:     spec.workload,
		Seed:         seed,
		MaxInflight:  spec.maxInflight,
		Telemetry:    reg,
		Shards:       spec.shards,
		Anatomy:      opts.anatomy,
		ServerTiming: opts.serverTiming,
		Tracer:       opts.tracer,
		// Runs inline on the two reader goroutines: one atomic add and one
		// store into a preallocated buffer, no lock, no allocation.
		OnResult: func(r *client.Result) {
			if r.Err != nil {
				return
			}
			if spec.checkReplies {
				switch {
				case r.Resp == nil:
					bad.Add(1)
				case r.Resp.Status == "STORED":
				case r.Resp.Hit && len(r.Resp.Value) == kvValueBytes:
				default:
					bad.Add(1)
				}
			}
			i := next.Add(1) - 1
			if i >= uint64(len(rtt)) {
				overflow.Add(1)
				return
			}
			rtt[i] = float64(r.Done.Sub(r.Start)) / float64(time.Microsecond)
		},
	})
	if err != nil {
		return nil, err
	}
	defer gen.Close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	stats, err := gen.Run(ctx, window)
	cpu1 := processCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	w.stats = stats
	w.served = target.requests() - served0
	n := next.Load()
	if n > uint64(len(rtt)) {
		n = uint64(len(rtt))
	}
	w.rtt = rtt[:n]
	w.overflow = overflow.Load()
	w.badReplies = bad.Load()
	w.cpuS = cpu1 - cpu0
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	if slip := gen.Slippage(); slip != nil {
		w.slipP50 = slip.Quantile(0.5) * 1e6
		w.slipP99 = slip.Quantile(0.99) * 1e6
		w.slipTotal = slip.Total()
	}
	return w, nil
}

// checkRate applies the rule that makes a live run valid: achieved
// throughput within 1 % of the offered rate, widened to four standard
// deviations of the Poisson count when the run holds too few arrivals for
// 1 % to be a fair test. It is applied to a run's windows together: the
// only thing that stretches a window's elapsed time on a healthy generator
// is a stall of the host in its last milliseconds, and 60 ms of that is
// 1.5 % of one 4 s window but 0.3 % of five.
func checkRate(spec liveSpec, completed uint64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "no elapsed time"
	}
	achieved := float64(completed) / elapsed.Seconds()
	tol := math.Max(0.01, 4/math.Sqrt(spec.rate*elapsed.Seconds()))
	if math.Abs(achieved-spec.rate) > tol*spec.rate {
		return fmt.Sprintf("achieved %.0f rps is not within %.2f%% of offered %.0f", achieved, 100*tol, spec.rate)
	}
	return ""
}

// check applies the exact live correctness rules to one window and returns
// the violations found. handshakes is how many control requests (one
// "timing on" per connection) the target served besides the workload's.
func (w *liveWindow) check(handshakes uint64) []string {
	var errs []string
	st := w.stats
	if st.Completed+st.Errors != st.Sent {
		errs = append(errs, fmt.Sprintf("completed %d + errors %d != sent %d", st.Completed, st.Errors, st.Sent))
	}
	if st.Errors != 0 {
		errs = append(errs, fmt.Sprintf("%d request errors", st.Errors))
	}
	if w.served != st.Sent+handshakes {
		errs = append(errs, fmt.Sprintf("target served %d requests, generator sent %d and %d handshakes", w.served, st.Sent, handshakes))
	}
	if w.badReplies != 0 {
		errs = append(errs, fmt.Sprintf("%d replies were not STORED or a %d-byte hit", w.badReplies, kvValueBytes))
	}
	if w.overflow != 0 {
		errs = append(errs, fmt.Sprintf("%d completions overflowed the sample buffer", w.overflow))
	}
	if uint64(len(w.rtt)) != st.Completed {
		errs = append(errs, fmt.Sprintf("%d latency samples for %d completions", len(w.rtt), st.Completed))
	}
	return errs
}
