// Package loadgen drives a memcached-protocol server over real TCP with
// either an open-loop or a closed-loop controller.
//
// The open-loop controller is the paper's required design (§II-A): request
// issue times form a Poisson process at the target rate, generated by a
// precisely-timed loop that never waits for responses, so the server's
// queueing behaviour is exercised exactly as production traffic would.
// The closed-loop controller reproduces the flawed worker-thread pattern
// of prior load testers so its bias can be measured.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/dist"
	"treadmill/internal/loadplane"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// Stats summarizes a controller run.
type Stats struct {
	Sent      uint64
	Completed uint64
	Errors    uint64
	// LateSends counts open-loop sends that fired more than one
	// inter-arrival period behind schedule — a precision health metric; a
	// high count means the generator machine cannot sustain the rate.
	LateSends uint64
	// Elapsed is the wall-clock run duration.
	Elapsed time.Duration
}

// OfferedRate returns the achieved request rate.
func (s Stats) OfferedRate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Sent) / s.Elapsed.Seconds()
}

// Options configures a controller.
type Options struct {
	// Rate is the target request rate (open loop only).
	Rate float64
	// Conns is the connection count (open loop) or concurrency (closed
	// loop).
	Conns int
	// ThinkTime inserts a pause between response and next request (closed
	// loop only).
	ThinkTime time.Duration
	// Workload generates the request mix.
	Workload workload.Config
	// Seed drives the generator streams.
	Seed uint64
	// OnResult observes every completion; it runs inline on reader
	// goroutines, so it must be fast. May be nil.
	OnResult func(*client.Result)
	// MaxInflight bounds the open-loop pipeline per connection.
	MaxInflight int
	// Telemetry, when non-nil, receives generator and client metrics —
	// notably the loadgen.send_slippage self-audit recorder that measures
	// how far each actual send drifted from its open-loop schedule.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, samples per-request lifecycle traces on
	// whichever send path runs (see client.Observers).
	Tracer *telemetry.Tracer
	// SlippageAlert is the send-slippage alert threshold (<= 0 selects
	// telemetry.DefaultSlippageThreshold).
	SlippageAlert time.Duration
	// Anatomy, when non-nil, receives the phase decomposition of every
	// successful request (see client.Observers).
	Anatomy *anatomy.Aggregator
	// ServerTiming asks each connection to negotiate per-response
	// server-timing trailers (see client.ConnConfig.ServerTiming), so the
	// Anatomy ledger carries server-derived phases instead of one opaque
	// wire+server span.
	ServerTiming bool
	// OnVec, when non-nil, receives each successful request's per-request
	// anatomy decomposition (see client.Observers). Runs inline on reader
	// goroutines.
	OnVec func(op string, stamps anatomy.ClientStamps, total float64, vec anatomy.Vec)
	// Shards, when nonzero, routes the open loop through the sharded
	// load plane (internal/loadplane) instead of the goroutine-per-
	// connection client: > 0 selects that many send shards, < 0 selects
	// GOMAXPROCS. The merged arrival schedule is bit-identical to the
	// classic single-loop schedule for the same seed, and Tracer, Anatomy
	// and OnVec observe the plane's requests as they do the classic
	// client's.
	Shards int
}

// observers folds the per-request hooks into the one fan-out both send
// paths complete through.
func (o Options) observers() client.Observers {
	return client.Observers{Tracer: o.Tracer, Anatomy: o.Anatomy, OnVec: o.OnVec}
}

func (o Options) validate(open bool) error {
	if open && (o.Rate <= 0) {
		return fmt.Errorf("loadgen: open loop needs positive rate, got %g", o.Rate)
	}
	if o.Conns < 1 {
		return fmt.Errorf("loadgen: need >= 1 connection, got %d", o.Conns)
	}
	return nil
}

// OpenLoop is the precisely-timed Poisson load generator.
type OpenLoop struct {
	opts Options
	pool *client.Pool
	gen  *workload.Generator
	rng  *dist.RNG

	// plane is non-nil when Options.Shards routed this loop through the
	// sharded send engine; the classic fields above stay nil.
	plane *loadplane.Plane

	slip  *telemetry.Slippage
	sent  *telemetry.Counter
	comp  *telemetry.Counter
	errsC *telemetry.Counter
	late  *telemetry.Counter

	stats Stats
}

// NewOpenLoop connects to addr and prepares the generator.
func NewOpenLoop(addr string, opts Options) (*OpenLoop, error) {
	if err := opts.validate(true); err != nil {
		return nil, err
	}
	if opts.Shards != 0 {
		// loadplane.New rejects multi-get/inference workloads and
		// non-Poisson arrivals before dialing.
		plane, err := loadplane.New(loadplane.Config{
			Addr:     addr,
			Rate:     opts.Rate,
			Conns:    opts.Conns,
			Shards:   opts.Shards,
			Workload: opts.Workload,
			Seed:     opts.Seed,
			// The plane's metrics keep the classic names so existing
			// consumers (treadmill CLI, capacity sweeps) read them
			// unchanged.
			MetricsPrefix: "loadgen",
			MaxInflight:   opts.MaxInflight,
			Telemetry:     opts.Telemetry,
			SlippageAlert: opts.SlippageAlert,
			ServerTiming:  opts.ServerTiming,
			Observers:     opts.observers(),
			OnResult:      opts.OnResult,
		})
		if err != nil {
			return nil, err
		}
		return &OpenLoop{opts: opts, plane: plane, slip: plane.Slippage()}, nil
	}
	rng := dist.NewRNG(opts.Seed)
	gen, err := workload.NewGenerator(opts.Workload, rng.Fork())
	if err != nil {
		return nil, err
	}
	ccfg := client.DefaultConnConfig()
	if opts.MaxInflight > 0 {
		ccfg.MaxInflight = opts.MaxInflight
	}
	ccfg.Telemetry = opts.Telemetry
	ccfg.Observers = opts.observers()
	ccfg.ServerTiming = opts.ServerTiming
	pool, err := client.DialPool(addr, opts.Conns, ccfg)
	if err != nil {
		return nil, err
	}
	o := &OpenLoop{opts: opts, pool: pool, gen: gen, rng: rng}
	if reg := opts.Telemetry; reg != nil {
		o.slip = telemetry.NewSlippage(reg, "loadgen.send_slippage", opts.SlippageAlert)
		o.sent = reg.Counter("loadgen.sent")
		o.comp = reg.Counter("loadgen.completed")
		o.errsC = reg.Counter("loadgen.errors")
		o.late = reg.Counter("loadgen.late_sends")
	}
	return o, nil
}

// Slippage returns the generator's send-slippage self-audit (nil when no
// registry was attached).
func (o *OpenLoop) Slippage() *telemetry.Slippage { return o.slip }

// Run generates load for the given duration or until ctx is cancelled,
// then waits for in-flight requests to drain and returns the run stats.
func (o *OpenLoop) Run(ctx context.Context, duration time.Duration) (Stats, error) {
	if duration <= 0 {
		return Stats{}, errors.New("loadgen: duration must be positive")
	}
	o.stats = Stats{} // every counter is per run, also on a reused generator
	if o.plane != nil {
		ps, err := o.plane.Run(ctx, duration)
		if err != nil {
			return Stats{}, err
		}
		o.stats = Stats{
			Sent:      ps.Sent,
			Completed: ps.Completed,
			Errors:    ps.Errors,
			LateSends: ps.LateSends,
			Elapsed:   ps.Elapsed,
		}
		return o.stats, nil
	}
	// Whether the precise wait (a kernel sleep to within a measured
	// overshoot of each send, then a short busy-wait) is affordable is
	// evaluated per run, not at package init: harnesses (runner.LiveStudy)
	// change GOMAXPROCS per factorial cell, and a stale decision either
	// spins on the only CPU (inflating measured latency — pitfall 3 in
	// miniature) or gives up precision that became affordable. Reduced
	// precision is reported through Stats.LateSends either way.
	spin := loadplane.SpinWaitNow()
	// The workload's ArrivalSpec shapes the gap process (Poisson by
	// default; bursty MMPP or flash-crowd at the same long-run rate). The
	// sampler is stateful and owned by this single generating loop.
	inter, err := o.opts.Workload.Arrival.Build(o.opts.Rate)
	if err != nil {
		return Stats{}, err
	}
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	var wg sync.WaitGroup
	var completed, errs atomic.Uint64

	period := time.Duration(float64(time.Second) / o.opts.Rate)
	for {
		next = next.Add(time.Duration(inter.Sample(o.rng) * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			break
		}
		loadplane.SleepUntil(next, spin)
		// Send-slippage self-audit: how far behind the open-loop schedule
		// this send is dispatching. Measured at client handoff (before the
		// write syscall) so it isolates timer + scheduler drift — the
		// client-side bias the paper's pitfall 3 warns about. One clock
		// reading serves the audit and the late count, so they agree.
		lag := time.Since(next)
		o.slip.Observe(lag.Seconds())
		if lag > period {
			o.stats.LateSends++
			o.late.Inc()
		}
		req := o.gen.Next()
		wg.Add(1)
		o.stats.Sent++
		err := o.pool.DoAt(req, next, func(r *client.Result) {
			if r.Err != nil {
				errs.Add(1)
				o.errsC.Inc()
			} else {
				completed.Add(1)
				o.comp.Inc()
			}
			if o.opts.OnResult != nil {
				o.opts.OnResult(r)
			}
			wg.Done()
		})
		if err != nil {
			wg.Done()
			o.stats.Sent--
			errs.Add(1)
			o.errsC.Inc()
		} else {
			o.sent.Inc()
		}
	}
	waitOrAbandon(ctx, &wg, o.pool)
	o.stats.Completed = completed.Load()
	o.stats.Errors = errs.Load()
	o.stats.Elapsed = time.Since(start)
	return o.stats, nil
}

// waitOrAbandon drains in-flight requests, honoring cancellation: a hung
// server never responds, so an unconditional wg.Wait would ignore the
// context and wedge the run (and, over a fleet, the whole campaign cell).
// On cancel the pool is closed, which fails every outstanding callback —
// the WaitGroup then drains deterministically and the short second Wait
// cannot hang.
func waitOrAbandon(ctx context.Context, wg *sync.WaitGroup, pool *client.Pool) {
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		pool.Close()
		<-drained
	}
}

// Close releases the connections.
func (o *OpenLoop) Close() error {
	if o.plane != nil {
		return o.plane.Close()
	}
	return o.pool.Close()
}

// ClosedLoop is the worker-thread controller: Conns workers each keep
// exactly one request outstanding.
type ClosedLoop struct {
	opts Options
	pool *client.Pool
	rng  *dist.RNG

	stats Stats
}

// NewClosedLoop connects to addr and prepares the generator.
func NewClosedLoop(addr string, opts Options) (*ClosedLoop, error) {
	if err := opts.validate(false); err != nil {
		return nil, err
	}
	ccfg := client.DefaultConnConfig()
	ccfg.Telemetry = opts.Telemetry
	ccfg.Observers = opts.observers()
	ccfg.ServerTiming = opts.ServerTiming
	pool, err := client.DialPool(addr, opts.Conns, ccfg)
	if err != nil {
		return nil, err
	}
	return &ClosedLoop{opts: opts, pool: pool, rng: dist.NewRNG(opts.Seed)}, nil
}

// Run drives the workers for the given duration and returns run stats.
func (c *ClosedLoop) Run(ctx context.Context, duration time.Duration) (Stats, error) {
	if duration <= 0 {
		return Stats{}, errors.New("loadgen: duration must be positive")
	}
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	var sent, completed, errs atomic.Uint64

	for w := 0; w < c.opts.Conns; w++ {
		conn := c.pool.Conn(w)
		// Give each worker an uncorrelated stream.
		workerRNG := dist.NewRNG(c.opts.Seed + uint64(w)*7919 + 1)
		gen, err := workload.NewGenerator(c.opts.Workload, workerRNG)
		if err != nil {
			return Stats{}, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan *client.Result, 1)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := gen.Next()
				sent.Add(1)
				if err := conn.Do(req, func(r *client.Result) { done <- r }); err != nil {
					errs.Add(1)
					return
				}
				r := <-done
				if r.Err != nil {
					errs.Add(1)
					return
				}
				completed.Add(1)
				if c.opts.OnResult != nil {
					c.opts.OnResult(r)
				}
				if c.opts.ThinkTime > 0 {
					time.Sleep(c.opts.ThinkTime)
				}
			}
		}()
	}
	// Workers block on their single outstanding response; a hung server
	// plus a cancelled context would otherwise wedge the run.
	waitOrAbandon(ctx, &wg, c.pool)
	c.stats = Stats{
		Sent:      sent.Load(),
		Completed: completed.Load(),
		Errors:    errs.Load(),
		Elapsed:   time.Since(start),
	}
	return c.stats, nil
}

// Close releases the connections.
func (c *ClosedLoop) Close() error { return c.pool.Close() }

// Preload stores the workload's full key space on the server so GETs hit.
func Preload(addr string, cfg workload.Config, seed uint64) error {
	gen, err := workload.NewGenerator(cfg, dist.NewRNG(seed))
	if err != nil {
		return err
	}
	conn, err := client.Dial(addr, client.DefaultConnConfig())
	if err != nil {
		return err
	}
	defer conn.Close()
	var mu sync.Mutex
	var firstErr error
	// Send in bounded batches so the connection pipeline never fills.
	const batch = 1024
	reqs := gen.Preload()
	for start := 0; start < len(reqs); start += batch {
		end := start + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		var wg sync.WaitGroup
		for _, req := range reqs[start:end] {
			wg.Add(1)
			err := conn.Do(req, func(r *client.Result) {
				if r.Err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = r.Err
					}
					mu.Unlock()
				}
				wg.Done()
			})
			if err != nil {
				wg.Done()
				return fmt.Errorf("loadgen: preload: %w", err)
			}
		}
		wg.Wait()
	}
	if firstErr != nil {
		return fmt.Errorf("loadgen: preload: %w", firstErr)
	}
	return nil
}
