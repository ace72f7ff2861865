// Package loadplane is the sharded, multiplexed open-loop send engine:
// the scaling path for the paper's pitfall 3, which demands emulating very
// many low-rate open-loop sessions from one agent.
//
// The goroutine-per-connection client (internal/client) spends a reader
// goroutine, two 16KB bufio buffers, a 4096-slot callback channel, and
// several heap allocations per request on every connection — fine for
// hundreds of sessions, fatal for hundreds of thousands. The load plane
// replaces that fan-out with N worker shards (default GOMAXPROCS), each
// owning a disjoint set of connections:
//
//   - a single sequential dealer materializes the Poisson arrival
//     schedule ahead of real time — bit-identical to the classic
//     single-loop schedule for the same seed — and deals it to shards in
//     recycled chunks, each already in schedule order;
//   - each shard fires straight from the chunk it holds: sleep to the next
//     arrival, then fire every due one in order (draw the next request from
//     a per-shard RNG stream, encode it straight into the connection's
//     write buffer, stamp a slot in the connection's SPSC pending ring,
//     which grows with the pipeline up to MaxInflight);
//   - requests fired in one wake on one connection leave in a single write
//     syscall;
//   - one lean reader goroutine per connection completes slots in FIFO
//     order with allocation-free parsing.
//
// The steady-state send path performs zero heap allocations per request
// (guarded by AllocsPerRun tests and a benchmark-driven CI check).
package loadplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/client"
	"treadmill/internal/dist"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// Config describes one load-plane instance.
type Config struct {
	// Addr is the server address to dial.
	Addr string
	// Rate is the aggregate target request rate (Poisson arrivals).
	Rate float64
	// Conns is the session (connection) count; arrivals round-robin
	// across sessions exactly like the classic pool.
	Conns int
	// Shards is the worker-shard count; <= 0 selects GOMAXPROCS. Shards
	// are clamped to Conns (a shard without connections has no work).
	Shards int
	// Workload generates the request mix. Each shard draws from an
	// independent splitmix-derived stream of Seed.
	Workload workload.Config
	// Seed drives the arrival schedule and the per-shard workload streams.
	Seed uint64
	// MaxInflight bounds each connection's pipeline; rounded up to a
	// power of two. It is a bound, not an allocation: a connection's
	// pending ring starts at 64 slots (24 bytes each) and doubles only
	// when its in-flight requests fill it, so a deep bound costs memory
	// only on connections that reach it. A send that finds the pipeline
	// at the bound is dropped and counted (pipeline_full). <= 0 selects 64.
	MaxInflight int
	// Telemetry, when non-nil, receives plane metrics under the "loadgen."
	// names the classic open loop publishes, so consumers (the treadmill
	// CLI, capacity sweeps) read either path unchanged.
	Telemetry *telemetry.Registry
	// SlippageAlert is the send-slippage alert threshold (<= 0 selects
	// telemetry.DefaultSlippageThreshold).
	SlippageAlert time.Duration
	// ServerTiming negotiates per-response server-timing trailers.
	ServerTiming bool
	// Observers receive every finished request (traces, the anatomy
	// ledger, per-request decompositions) from the pending slot's stamps,
	// through the same client.Observers.Complete the classic client calls.
	// The completion clock is read a second time only when one is attached.
	Observers client.Observers
	// OnResult observes every completion inline on reader goroutines.
	// The *client.Result is reused per connection and carries only Err,
	// Start, and Done (no decoded Response — the plane never materializes
	// one); copy what you need before returning.
	OnResult func(*client.Result)
}

// Stats summarizes a plane run, mirroring loadgen.Stats.
type Stats struct {
	Sent      uint64
	Completed uint64
	Errors    uint64
	LateSends uint64
	Elapsed   time.Duration
}

// OfferedRate returns the achieved request rate.
func (s Stats) OfferedRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Sent) / s.Elapsed.Seconds()
}

// Plane is a sharded send engine bound to one server address.
type Plane struct {
	cfg     Config
	nshards int
	maxKey  int

	conns  []*pconn
	shards []*shard

	slip      *telemetry.Slippage
	sentC     *telemetry.Counter
	compC     *telemetry.Counter
	errsC     *telemetry.Counter
	lateC     *telemetry.Counter
	pipeFullC *telemetry.Counter
	desyncC   *telemetry.Counter
	// ringSlotsG is the pending-ring slots allocated across connections;
	// it rises when a stalled target or host deepens a pipeline.
	ringSlotsG *telemetry.Gauge

	completed   atomic.Uint64
	startUnixNs int64

	readerWG sync.WaitGroup
	shardWG  sync.WaitGroup
	// chunkPool recycles dealt chunks from the shards back to the dealer;
	// its capacity is the most chunks a run has live at once.
	chunkPool chan *chunk

	ran bool
}

// shard owns a disjoint set of connections and fires their arrivals.
type shard struct {
	p        *Plane
	conns    []*pconn // local; global conn c maps to shard c%nshards, index c/nshards
	gen      *workload.Generator
	lean     workload.Lean
	chunks   chan *chunk
	cur      *chunk // chunk being fired; nil until the dealer delivers one
	next     int    // index of cur's next unfired arrival
	dirty    []*pconn
	start    time.Time
	spin     bool
	periodNs int64

	sent, late, errs uint64
}

// Per-connection buffer sizes and dial bound.
const (
	writeBuf    = 4 << 10
	readBuf     = 4 << 10
	dialTimeout = 5 * time.Second
)

// metricsPrefix namespaces the plane's telemetry handles; see
// Config.Telemetry.
const metricsPrefix = "loadgen"

// New dials Conns connections and prepares the shards. The returned plane
// supports one Run; Close releases the connections.
func New(cfg Config) (*Plane, error) {
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("loadplane: need a finite positive rate, got %g", cfg.Rate)
	}
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("loadplane: need >= 1 connection, got %d", cfg.Conns)
	}
	// The shard hot path encodes requests through workload.NextLean and a
	// merged pre-materialized Poisson schedule; multi-get, inference, and
	// stateful arrival processes all need the classic per-request path.
	if !cfg.Workload.LeanCompatible() {
		return nil, fmt.Errorf("loadplane: workload %q is not lean-compatible (multi-get or inference)", cfg.Workload.Name)
	}
	if !cfg.Workload.Arrival.Poisson() {
		return nil, fmt.Errorf("loadplane: non-poisson arrival %q not supported by the sharded plane", cfg.Workload.Arrival.Kind)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	if nshards > cfg.Conns {
		nshards = cfg.Conns
	}
	limit := 1
	for limit < cfg.MaxInflight {
		limit <<= 1
	}

	p := &Plane{cfg: cfg, nshards: nshards, chunkPool: make(chan *chunk, nshards*(dealerRunway+2))}
	if reg := cfg.Telemetry; reg != nil {
		p.slip = telemetry.NewSlippage(reg, metricsPrefix+".send_slippage", cfg.SlippageAlert)
		p.sentC = reg.Counter(metricsPrefix + ".sent")
		p.compC = reg.Counter(metricsPrefix + ".completed")
		p.errsC = reg.Counter(metricsPrefix + ".errors")
		p.lateC = reg.Counter(metricsPrefix + ".late_sends")
		p.pipeFullC = reg.Counter(metricsPrefix + ".pipeline_full")
		p.desyncC = reg.Counter(metricsPrefix + ".desync")
		p.ringSlotsG = reg.Gauge(metricsPrefix + ".ring_slots")
		p.cfg.Observers.CountClamps(reg.Counter(metricsPrefix + ".timing_clamped"))
	}

	if err := p.dialAll(limit); err != nil {
		return nil, err
	}

	for i := 0; i < nshards; i++ {
		rng := dist.NewRNG(dist.StreamSeed(cfg.Seed, i))
		gen, err := workload.NewGenerator(cfg.Workload, rng)
		if err != nil {
			p.Close()
			return nil, err
		}
		if i == 0 {
			p.maxKey = gen.MaxKeyLen()
		}
		s := &shard{
			p:        p,
			gen:      gen,
			chunks:   make(chan *chunk, dealerRunway),
			periodNs: int64(float64(time.Second) / cfg.Rate),
		}
		for c := i; c < cfg.Conns; c += nshards {
			s.conns = append(s.conns, p.conns[c])
		}
		s.dirty = make([]*pconn, 0, len(s.conns))
		p.shards = append(p.shards, s)
	}

	// Readers start only after every conn is dialed and handshaken.
	for _, pc := range p.conns {
		p.readerWG.Add(1)
		go p.readLoop(pc)
	}
	return p, nil
}

// dialAll opens every connection concurrently, each with a pending ring
// that may grow to limit slots, and negotiates the timing trailer where
// requested.
func (p *Plane) dialAll(limit int) error {
	p.conns = make([]*pconn, p.cfg.Conns)
	sem := make(chan struct{}, 128)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := range p.conns {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			nc, err := net.DialTimeout("tcp", p.cfg.Addr, dialTimeout)
			if err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("loadplane: dial %s: %w", p.cfg.Addr, err))
				return
			}
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			pc := newPconn(nc, limit)
			if p.cfg.ServerTiming {
				timed, err := negotiateTiming(nc)
				if err != nil {
					nc.Close()
					firstErr.CompareAndSwap(nil, err)
					return
				}
				pc.timed = timed
			}
			p.conns[i] = pc
		}(i)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		for _, pc := range p.conns {
			if pc != nil {
				pc.nc.Close()
			}
		}
		return err
	}
	for _, pc := range p.conns {
		p.ringSlotsG.Add(int64(len(pc.ring.Load().slots)))
	}
	return nil
}

// negotiateTiming sends "timing on" and reads the single-line answer
// byte-wise (the reader is not running yet, and over-buffering here would
// steal response bytes from it). Servers without the extension answer
// ERROR, which downgrades gracefully.
func negotiateTiming(nc net.Conn) (bool, error) {
	if _, err := nc.Write([]byte("timing on\r\n")); err != nil {
		return false, fmt.Errorf("loadplane: timing handshake: %w", err)
	}
	var line [64]byte
	n := 0
	for n < len(line) {
		if _, err := nc.Read(line[n : n+1]); err != nil {
			return false, fmt.Errorf("loadplane: timing handshake: %w", err)
		}
		n++
		if line[n-1] == '\n' {
			break
		}
	}
	return string(line[:n]) == "TIMING_ON\r\n", nil
}

// Slippage returns the plane's send-slippage self-audit (nil when no
// registry was attached).
func (p *Plane) Slippage() *telemetry.Slippage { return p.slip }

var errAbandoned = errors.New("loadplane: connection closed with request in flight")

// Run generates load for the given duration or until ctx is cancelled,
// then drains in-flight requests and returns run stats. A plane is
// single-use: dial a fresh one per run.
func (p *Plane) Run(ctx context.Context, duration time.Duration) (Stats, error) {
	if duration <= 0 {
		return Stats{}, errors.New("loadplane: duration must be positive")
	}
	if p.ran {
		return Stats{}, errors.New("loadplane: plane is single-use; build a new one per run")
	}
	p.ran = true

	start := time.Now()
	p.startUnixNs = start.UnixNano()
	// Every shard spins at once, so it takes more Ps than shards
	// (readers and any co-located server need the rest) — evaluated per
	// run because harnesses change GOMAXPROCS.
	spin := spinAffordable(p.nshards)
	for _, s := range p.shards {
		s.start = start
		s.spin = spin
	}

	go p.deal(ctx, duration.Nanoseconds())
	p.shardWG.Add(len(p.shards))
	for _, s := range p.shards {
		go s.run(ctx)
	}
	p.shardWG.Wait()

	var stats Stats
	for _, s := range p.shards {
		stats.Sent += s.sent
		stats.LateSends += s.late
		stats.Errors += s.errs
	}
	stats.Errors += p.drain(ctx, stats.Sent)
	stats.Completed = p.completed.Load()
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// deal runs the schedule dealer: one sequential generator, chunked
// delivery to shards, bounded runway.
func (p *Plane) deal(ctx context.Context, durNs int64) {
	defer func() {
		for _, s := range p.shards {
			close(s.chunks)
		}
	}()
	stop := ctx.Done()
	cur := make([]*chunk, p.nshards)
	Schedule(p.cfg.Seed, p.cfg.Rate, p.cfg.Conns, durNs, func(off int64, conn int32) bool {
		si := int(conn) % p.nshards
		c := cur[si]
		if c == nil {
			c = p.getChunk()
			cur[si] = c
		}
		c.off = append(c.off, off)
		c.conn = append(c.conn, conn)
		if len(c.off) >= chunkArrivals {
			select {
			case p.shards[si].chunks <- c:
				cur[si] = nil
			case <-stop:
				return false
			}
		}
		return true
	})
	for si, c := range cur {
		if c == nil || len(c.off) == 0 {
			continue
		}
		select {
		case p.shards[si].chunks <- c:
		case <-stop:
		}
	}
}

// getChunk returns a recycled chunk, or a new one when none is free.
func (p *Plane) getChunk() *chunk {
	select {
	case c := <-p.chunkPool:
		return c
	default:
		return &chunk{
			off:  make([]int64, 0, chunkArrivals),
			conn: make([]int32, 0, chunkArrivals),
		}
	}
}

// run is one shard's send loop: sleep to the next dealt arrival, fire
// every due one, flush dirty connections. Chunks arrive in schedule order
// and are never empty, so the next arrival is always cur.off[next].
func (s *shard) run(ctx context.Context) {
	defer s.p.shardWG.Done()
	done := ctx.Done()
	for {
		if s.cur == nil {
			select {
			case c, ok := <-s.chunks:
				if !ok {
					return
				}
				s.cur, s.next = c, 0
			case <-done:
				return
			}
		}
		target := s.start.Add(time.Duration(s.cur.off[s.next]))
		// Bound each sleep so cancellation stays responsive on sparse
		// schedules.
		if wait := time.Until(target); wait > 50*time.Millisecond {
			SleepUntil(time.Now().Add(50*time.Millisecond), false)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		SleepUntil(target, s.spin)
		if ctx.Err() != nil {
			return
		}
		s.fireDue(time.Since(s.start).Nanoseconds())
		s.flushDirty()
	}
}

// fireDue fires, in schedule order, every dealt arrival due by nowNs. When
// the current chunk runs out it moves on to chunks the dealer has already
// delivered, so a late wake still fires everything that is due; exhausted
// chunks go back to the pool.
func (s *shard) fireDue(nowNs int64) {
	for {
		c := s.cur
		if c == nil {
			select {
			case c = <-s.chunks: // nil once the dealer has closed the channel
			default:
			}
			if c == nil {
				return
			}
			s.cur, s.next = c, 0
		}
		for ; s.next < len(c.off); s.next++ {
			if c.off[s.next] > nowNs {
				return
			}
			s.fire(c.off[s.next], c.conn[s.next])
		}
		s.cur = nil
		c.off, c.conn = c.off[:0], c.conn[:0]
		select {
		case s.p.chunkPool <- c:
		default:
		}
	}
}

// fire sends one scheduled arrival: audit slippage, draw the request from
// the shard's stream, encode into the connection's write buffer, publish
// the pending slot. Zero heap allocations (guarded by TestSendPathZeroAlloc).
func (s *shard) fire(whenNs int64, conn int32) {
	p := s.p
	now := time.Now()
	lagNs := now.Sub(s.start).Nanoseconds() - whenNs
	p.slip.Observe(float64(lagNs) / 1e9)
	if lagNs > s.periodNs {
		s.late++
		p.lateC.Inc()
	}
	pc := s.conns[int(conn)/p.nshards]
	if pc.dead.Load() {
		s.errs++
		p.errsC.Inc()
		return
	}
	if pc.full() {
		// Mirror the classic pipeline-full semantics: count an error and
		// drop rather than block the shard (blocking would slip every
		// later arrival — closed-loop bias in miniature).
		s.errs++
		p.errsC.Inc()
		p.pipeFullC.Inc()
		return
	}
	s.gen.NextLean(&s.lean)
	pc.encode(s.gen, &s.lean, p.maxKey)
	t := pc.tail.Load()
	r := pc.ring.Load()
	if t-pc.head.Load() > r.mask {
		p.ringSlotsG.Add(int64(len(r.slots)))
		r = pc.grow(r, t)
	}
	slot := &r.slots[t&r.mask]
	slot.op = s.lean.Op
	slot.arrivalNs = p.startUnixNs + whenNs
	slot.startNs = now.UnixNano()
	pc.tail.Store(t + 1)
	s.sent++
	p.sentC.Inc()
	if !pc.dirty {
		pc.dirty = true
		s.dirty = append(s.dirty, pc)
	}
}

// flushDirty ships every connection touched by the last fire batch with
// one write syscall each.
func (s *shard) flushDirty() {
	for i, pc := range s.dirty {
		pc.dirty = false
		pc.flush()
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

// drain waits for in-flight requests to complete, reclaiming rings of
// dead connections. On cancellation it closes every connection so the
// wait converges deterministically (the classic waitOrAbandon semantics).
func (p *Plane) drain(ctx context.Context, sent uint64) uint64 {
	var swept uint64
	closed := false
	for {
		for _, pc := range p.conns {
			if !pc.swept && pc.readerDone.Load() {
				pc.swept = true
				for h := pc.head.Load(); h != pc.tail.Load(); h++ {
					slot := *pc.slot(h)
					pc.head.Store(h + 1)
					swept++
					p.errsC.Inc()
					if p.cfg.OnResult != nil {
						pc.result = client.Result{
							Err:   errAbandoned,
							Start: time.Unix(0, slot.startNs),
							Done:  time.Now(),
						}
						p.cfg.OnResult(&pc.result)
					}
					p.cfg.Observers.Complete(slot.op, slot.stamps(0), nil, errAbandoned)
				}
			}
		}
		if p.completed.Load()+swept >= sent {
			return swept
		}
		if ctx.Err() != nil && !closed {
			closed = true
			for _, pc := range p.conns {
				pc.markDead()
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// Close releases every connection and waits for the readers.
func (p *Plane) Close() error {
	for _, pc := range p.conns {
		if pc != nil {
			pc.markDead()
		}
	}
	p.readerWG.Wait()
	return nil
}
