package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"treadmill/internal/agg"
	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/hist"
	"treadmill/internal/protocol"
	"treadmill/internal/quantreg"
	"treadmill/internal/runner"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// The layers that need no socket: the simulator, the request walk, the
// campaigns and their analysis, the generators, the telemetry handles.

// --- sim ---------------------------------------------------------------

// simLayer prices the event engine alone and one simulated request on the
// single-tier and the fan-out cluster.
func (l *ledger) simLayer(context.Context) error {
	sec := l.tr.begin("sim", l.root, 0, 1)
	defer l.tr.end(sec)

	// engine_dispatch: one self-rescheduling chain, heap depth 1 — the
	// "15 ns/event" the docs quote (BenchmarkEngineEvents).
	// engine_schedule: 64 interleaved chains, heap ~64 deep — the shape a
	// loaded cluster produces and the figure BENCH_treadmill.json recorded as
	// 105 ns/event on a 1-core container (BenchmarkEngineSchedule).
	for _, c := range []struct {
		name   string
		chains int
	}{{"sim.engine_dispatch_ns", 1}, {"sim.engine_schedule_ns", 64}} {
		eng := &sim.Engine{}
		var tick func()
		tick = func() { eng.Schedule(1e-6, tick) }
		for i := 0; i < c.chains; i++ {
			eng.Schedule(float64(i)*1e-8, tick)
		}
		eng.Run(1e-3) // grow the arena to its working size
		events := uint64(l.iters(400000))
		l.put(c.name, "ns", l.timed(c.name, sec, 5, int(events), func() {
			from := eng.Processed()
			for eng.Processed()-from < events {
				eng.Run(eng.Now() + 1e-4)
			}
		})...)
	}

	// One simulated request, priced on the campaigns' own mix of
	// configurations: every factorial cell once, driven by hand.
	shape := shapeFull
	if l.cfg.quick {
		shape = shapeQuick
	}
	for _, c := range []struct{ workload, prefix string }{
		{"sim_factorial", "sim.request"}, {"sim_fanout_burst", "sim.fanout_request"},
	} {
		st, err := newStudy(c.workload, l.cfg.seed, shape)
		if err != nil {
			return err
		}
		h, err := l.cellsByHand(st, c.prefix, sec)
		if err != nil {
			return err
		}
		l.put(c.prefix+"_ns", "ns", h.nsPerReq...)
		l.put(c.prefix+"_allocs", "count", float64(h.mallocs)/float64(h.requests))
		if c.prefix == "sim.request" {
			l.put("sim.request_bytes", "B", float64(h.bytes)/float64(h.requests))
			l.put("sim.events_per_req", "count", float64(h.events)/float64(h.requests))
		} else {
			l.put("sim.fanout_events_per_req", "count", float64(h.events)/float64(h.requests))
		}
	}
	return nil
}

// byHand is what driving a study's cells directly through sim yields.
type byHand struct {
	nsPerReq []float64 // one per cell
	requests int       // completed, all cells
	events   uint64    // engine events, all cells (exact for a seed)
	mallocs  uint64
	bytes    uint64
}

// cellsByHand runs every factorial cell of st once through sim.NewCluster,
// Client.StartOpenLoop and Cluster.Run — what runner.Study does per
// experiment, minus the sample buffers, the aggregation and the schedule.
// The span and the allocation count cover Cluster.Run only.
func (l *ledger) cellsByHand(st *runner.Study, name string, parent int) (*byHand, error) {
	h := &byHand{}
	for i, levels := range runner.Permutations(len(st.Factors)) {
		cfg := st.Base
		cfg.Clients = append([]sim.ClientSpec(nil), st.Base.Clients...)
		for f, factor := range st.Factors {
			factor.Apply(&cfg, levels[f])
		}
		cfg.Seed = st.Seed + uint64(i)
		cluster, err := sim.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		done := 0
		for _, cl := range cluster.Clients {
			cl.OnComplete = func(*sim.Request) { done++ }
			if err := cl.StartOpenLoop(st.TotalRate/float64(len(cluster.Clients)), st.ConnsPerClient); err != nil {
				return nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := l.tr.begin(name, parent, 0, 0)
		cluster.Run(st.Warmup + st.Duration)
		d := l.tr.end(id)
		runtime.ReadMemStats(&m1)
		if done == 0 {
			return nil, fmt.Errorf("%s: cell %v completed no request", name, levels)
		}
		l.tr.spans[id-1].Calls = done
		h.nsPerReq = append(h.nsPerReq, float64(d)/float64(done))
		h.requests += done
		h.events += cluster.Eng.Processed()
		h.mallocs += m1.Mallocs - m0.Mallocs
		h.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return h, nil
}

// --- the request walk ----------------------------------------------------

// requestWalk carries batches of sampled requests through each layer's
// public functions by hand, in the order a request crosses them: arrival
// sample, workload.Generator.Next, protocol.WriteRequest,
// protocol.ParseRequest, server.Store.Get/Set, protocol.Write*Response,
// protocol.ParseResponse, hist record. One span per layer per batch of 1024
// requests, all sharing the batch's request id, under one parent span.
func (l *ledger) requestWalk(context.Context) error {
	const batch = 1024
	batches := l.iters(48)
	wl := kvWorkload()
	rng := dist.NewRNG(l.cfg.seed)
	gen, err := workload.NewGenerator(wl, rng.Fork())
	if err != nil {
		return err
	}
	store, err := server.NewStore(server.DefaultConfig().Shards, server.DefaultConfig().CapacityBytes)
	if err != nil {
		return err
	}
	for _, req := range gen.Preload() {
		if err := store.Set(req.Key, req.Flags, req.Value); err != nil {
			return err
		}
	}
	h, err := hist.New(hist.Config{WarmupSamples: 0, CalibrationSamples: 1000, Bins: 4096, OverflowRebinFraction: 0.001})
	if err != nil {
		return err
	}
	arrival := dist.Exponential{Rate: kvRate}
	var (
		reqWire, respWire bytes.Buffer
		reqW              = bufio.NewWriterSize(&reqWire, 64<<10)
		respW             = bufio.NewWriterSize(&respWire, 64<<10)
		reqR              = bufio.NewReaderSize(nil, 64<<10)
		respR             = bufio.NewReaderSize(nil, 64<<10)
		reqs              = make([]*protocol.Request, batch)
		parsed            = make([]*protocol.Request, batch)
		values            = make([][]byte, batch)
		gaps              = make([]float64, batch)
		gets, sets        []int
		walkErr           error
	)
	fail := func(err error) {
		if walkErr == nil && err != nil {
			walkErr = err
		}
	}
	// The eight stages. Each is a closure over the shared buffers so that
	// the same code runs spanned (timing) and unspanned (allocation counts).
	stages := []struct {
		name  string
		calls func() int
		run   func()
	}{
		{"dist.arrival_sample", func() int { return batch }, func() {
			for i := range gaps {
				gaps[i] = arrival.Sample(rng)
			}
		}},
		{"workload.next", func() int { return batch }, func() {
			gets, sets = gets[:0], sets[:0]
			for i := range reqs {
				reqs[i] = gen.Next()
				if reqs[i].Op == protocol.OpGet {
					gets = append(gets, i)
				} else {
					sets = append(sets, i)
				}
			}
		}},
		{"protocol.write_request", func() int { return batch }, func() {
			reqWire.Reset()
			for _, r := range reqs {
				fail(protocol.WriteRequest(reqW, r))
			}
			fail(reqW.Flush())
		}},
		{"protocol.parse_request", func() int { return batch }, func() {
			reqR.Reset(bytes.NewReader(reqWire.Bytes()))
			for i := range parsed {
				p, err := protocol.ParseRequest(reqR)
				fail(err)
				parsed[i] = p
			}
		}},
		{"server.store_get", func() int { return len(gets) }, func() {
			for _, i := range gets {
				v, _, ok := store.Get(parsed[i].Key)
				if !ok || len(v) != kvValueBytes {
					fail(fmt.Errorf("store.Get(%q): hit=%v, %d bytes", parsed[i].Key, ok, len(v)))
				}
				values[i] = v
			}
		}},
		{"server.store_set", func() int { return len(sets) }, func() {
			for _, i := range sets {
				fail(store.Set(parsed[i].Key, parsed[i].Flags, parsed[i].Value))
			}
		}},
		{"protocol.write_response", func() int { return batch }, func() {
			respWire.Reset()
			for i, p := range parsed {
				if p.Op == protocol.OpGet {
					fail(protocol.WriteGetResponse(respW, p.Key, 0, values[i], true))
				} else {
					fail(protocol.WriteStatusResponse(respW, "STORED"))
				}
			}
			fail(respW.Flush())
		}},
		{"protocol.parse_response", func() int { return batch }, func() {
			respR.Reset(bytes.NewReader(respWire.Bytes()))
			for _, p := range parsed {
				resp, err := protocol.ParseResponse(respR, p.Op)
				fail(err)
				if err == nil && p.Op == protocol.OpGet && (!resp.Hit || len(resp.Value) != kvValueBytes) {
					fail(fmt.Errorf("parsed reply for %q is not a %d-byte hit", p.Key, kvValueBytes))
				}
			}
		}},
		{"hist.record", func() int { return batch }, func() {
			for _, g := range gaps {
				fail(h.Record(g))
			}
		}},
	}

	perCall := make(map[string][]float64)
	walk := func(spanned bool) map[string]float64 {
		allocs := make(map[string]float64)
		parent := 0
		if spanned {
			parent = l.tr.begin("request_walk", l.root, l.nextID, batch)
		}
		for _, st := range stages {
			if spanned {
				id := l.tr.begin(st.name, parent, l.nextID, 0)
				st.run()
				d := l.tr.end(id)
				n := st.calls()
				l.tr.spans[id-1].Calls = n
				if n > 0 {
					perCall[st.name] = append(perCall[st.name], float64(d)/float64(n))
				}
			} else {
				m := allocsPer(1, st.run)
				if n := st.calls(); n > 0 {
					allocs[st.name] = m / float64(n)
				}
			}
		}
		if spanned {
			l.tr.end(parent)
			l.nextID++
		}
		return allocs
	}
	walk(false) // warm buffers, histogram calibration and store paths
	for b := 0; b < batches; b++ {
		walk(true)
	}
	allocs := walk(false)
	if walkErr != nil {
		l.rep.violate("request walk: %v", walkErr)
	}
	l.rep.Attempted += int64((batches + 2) * batch)

	for _, st := range stages {
		l.put(st.name+"_ns", "ns", perCall[st.name]...)
	}
	l.put("workload.next_allocs", "count", allocs["workload.next"])
	l.put("protocol.parse_request_allocs", "count", allocs["protocol.parse_request"])
	l.put("protocol.parse_response_allocs", "count", allocs["protocol.parse_response"])
	return nil
}

// --- campaigns -------------------------------------------------------------

// campaigns runs one repetition of each simulated workload for the numbers
// the end-to-end run cannot gate (allocation counts, fit time) and for the
// runner's share of a campaign.
func (l *ledger) campaigns(ctx context.Context) error {
	shape := shapeFull
	if l.cfg.quick {
		shape = shapeQuick
	}
	reqNs, _ := l.rep.metric("sim.request_ns")
	for _, name := range []string{"sim_factorial", "sim_fanout_burst"} {
		st, err := newStudy(name, l.cfg.seed, shape)
		if err != nil {
			return err
		}
		id := l.tr.begin(name, l.root, 0, 1)
		rep, err := runSimRep(ctx, st)
		l.tr.end(id)
		if err != nil {
			return err
		}
		nominal := nominalRequests(st)
		l.rep.Attempted += int64(len(rep.res.Samples))
		if !fitsFinite(rep.fits) {
			l.rep.violate("%s: a quantile-regression fit is not finite", name)
		}
		l.put(name+".allocs_per_req", "count", float64(rep.mallocs)/nominal)
		l.put(name+".fit_ms", "ms", rep.fitS*1e3)
		if name == "sim_factorial" {
			ms := make([]float64, len(rep.experiments))
			for i, s := range rep.experiments {
				ms[i] = s * 1e3
			}
			l.put("runner.experiment_ms", "ms", ms...)
			// What Study.Run costs per request beyond the same cells driven
			// by hand: cluster construction, sample buffers, aggregation,
			// the schedule. Both sides are medians of noisy timings, so
			// a share within a few percent of zero reads as "none".
			l.put("runner.overhead_share", "ratio", 1-reqNs.Value*nominal/(rep.runS*1e9))
			if err := l.quantregLayer(rep.res); err != nil {
				return err
			}
		}
	}
	return nil
}

// quantregLayer refits the campaign's p99 samples the way Result.Fit does,
// once without and once with the 200-resample bootstrap.
func (l *ledger) quantregLayer(res *runner.Result) error {
	sec := l.tr.begin("quantreg", l.root, 0, 1)
	defer l.tr.end(sec)
	model, err := quantreg.FullFactorialModel(res.Factors)
	if err != nil {
		return err
	}
	x := make([][]float64, len(res.Samples))
	y := make([]float64, len(res.Samples))
	for i, s := range res.Samples {
		x[i] = make([]float64, len(s.Levels))
		for j, lv := range s.Levels {
			x[i][j] = float64(lv)
		}
		y[i] = s.Quantiles[0.99]
	}
	fit := func(resamples int) func() {
		return func() {
			_, ferr := quantreg.Fit(model, x, y, 0.99, quantreg.Options{
				Solver: quantreg.IRLS, BootstrapSamples: resamples, RNG: dist.NewRNG(l.cfg.seed),
				StratifiedBootstrap: true, Workers: 1,
			})
			if ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	plain := l.timed("quantreg.fit", sec, l.iters(40), 1, fit(0))
	boot := l.timed("quantreg.bootstrap", sec, l.iters(20), 1, fit(simBootstrap))
	if err != nil {
		return err
	}
	for i := range plain {
		plain[i] /= 1e6
	}
	for i := range boot {
		boot[i] /= 1e6
	}
	l.put("quantreg.fit_ms", "ms", plain...)
	l.put("quantreg.bootstrap_ms", "ms", boot...)
	l.put("quantreg.resample_us", "us", (summarize(boot).Q1-summarize(plain).Q1)*1e3/float64(simBootstrap))
	return nil
}

// --- agg, hist, stats, anatomy ---------------------------------------------

func (l *ledger) analysisLayers(context.Context) error {
	sec := l.tr.begin("analysis", l.root, 0, 1)
	defer l.tr.end(sec)
	rng := dist.NewRNG(l.cfg.seed)
	lat := dist.LognormalFromMoments(200e-6, 1.0)
	draw := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = lat.Sample(rng)
		}
		return xs
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	// agg.PerInstance over 8 clients × 3 500 samples: what one experiment of
	// sim_factorial does per quantile.
	srcs := make([]agg.QuantileSource, simClients)
	for i := range srcs {
		srcs[i] = agg.Samples(draw(3500))
	}
	us := l.timed("agg.per_instance", sec, l.iters(40), 1, func() {
		_, err := agg.PerInstance(srcs, 0.99, agg.Mean)
		fail(err)
	})
	for i := range us {
		us[i] /= 1e3
	}
	l.put("agg.per_instance_us", "us", us...)

	hcfg := hist.Config{WarmupSamples: 0, CalibrationSamples: 1000, Bins: 4096, OverflowRebinFraction: 0.001}
	samples := draw(50000)
	filled := func() *hist.Histogram {
		h, err := hist.New(hcfg)
		fail(err)
		for _, v := range samples {
			fail(h.Record(v))
		}
		return h
	}
	src := filled()
	l.put("hist.quantile_ns", "ns", l.timed("hist.quantile", sec, l.iters(40), 64, func() {
		for i := 0; i < 64; i++ {
			_, err := src.Quantile(0.99)
			fail(err)
		}
	})...)
	var merge []float64
	for b := 0; b < l.iters(20); b++ {
		dst := filled()
		id := l.tr.begin("hist.merge", sec, 0, 1)
		fail(dst.MergeFrom(src))
		merge = append(merge, float64(l.tr.end(id))/1e3)
	}
	l.put("hist.merge_us", "us", merge...)

	boot := draw(1000)
	ms := l.timed("stats.bootstrap", sec, l.iters(20), 1, func() {
		_, _, err := stats.BootstrapCI(boot, stats.Median, 0.95, simBootstrap, dist.NewRNG(l.cfg.seed))
		fail(err)
	})
	for i := range ms {
		ms[i] /= 1e6
	}
	l.put("stats.bootstrap_ms", "ms", ms...)

	ag, err := anatomy.NewAggregator(anatomy.DefaultConfig())
	if err != nil {
		return err
	}
	var vec anatomy.Vec
	vec[anatomy.ClientSend], vec[anatomy.Service], vec[anatomy.ClientRecv] = 0.2, 0.5, 0.3
	l.put("anatomy.record_ns", "ns", l.timed("anatomy.record", sec, l.iters(40), len(samples)/10, func() {
		for _, v := range samples[:len(samples)/10] {
			var scaled anatomy.Vec
			for p := range vec {
				scaled[p] = vec[p] * v
			}
			ag.Record(v, scaled)
		}
	})...)
	fin := l.timed("anatomy.finalize", sec, l.iters(40), 1, func() { ag.Finalize() })
	for i := range fin {
		fin[i] /= 1e3
	}
	l.put("anatomy.finalize_us", "us", fin...)
	return firstErr
}

// --- dist, workload ----------------------------------------------------------

func (l *ledger) generatorLayers(context.Context) error {
	sec := l.tr.begin("generators", l.root, 0, 1)
	defer l.tr.end(sec)
	const batch = 1024
	rng := dist.NewRNG(l.cfg.seed)
	mmpp, err := workload.ArrivalSpec{Kind: "mmpp2", Burst: 4, BurstFrac: 0.2, Cycle: 0.02}.Build(fanoutRate / simClients)
	if err != nil {
		return err
	}
	sink := 0.0
	l.put("dist.mmpp_sample_ns", "ns", l.timed("dist.mmpp_sample", sec, l.iters(48), batch, func() {
		for i := 0; i < batch; i++ {
			sink += mmpp.Sample(rng)
		}
	})...)
	gen, err := workload.NewGenerator(leanWorkload(), rng.Fork())
	if err != nil {
		return err
	}
	var lean workload.Lean
	l.put("workload.next_lean_ns", "ns", l.timed("workload.next_lean", sec, l.iters(48), batch, func() {
		for i := 0; i < batch; i++ {
			gen.NextLean(&lean)
		}
	})...)
	if sink < 0 {
		return fmt.Errorf("negative inter-arrival sum %g", sink)
	}
	return nil
}

// --- telemetry -------------------------------------------------------------------

// telemetryLayer prices the handles the send path touches per request,
// attached to a registry and nil (disabled).
func (l *ledger) telemetryLayer(context.Context) error {
	sec := l.tr.begin("telemetry", l.root, 0, 1)
	defer l.tr.end(sec)
	const batch = 4096
	tracer, err := telemetry.NewTracer(1000, 1024)
	if err != nil {
		return err
	}
	reg := telemetry.New()
	for _, c := range []struct {
		name     string
		sent     *telemetry.Counter
		inflight *telemetry.Gauge
		slip     *telemetry.Slippage
		tracer   *telemetry.Tracer
	}{
		{"telemetry.observe_ns", reg.Counter("client.requests"), reg.Gauge("client.inflight"),
			telemetry.NewSlippage(reg, "loadgen.send_slippage", time.Millisecond), tracer},
		{"telemetry.disabled_ns", nil, nil, nil, nil},
	} {
		l.put(c.name, "ns", l.timed(c.name, sec, l.iters(48), batch, func() {
			for i := 0; i < batch; i++ {
				c.sent.Inc()
				c.inflight.Add(1)
				c.slip.Observe(1e-6)
				if c.tracer.Sample() {
					_ = c.tracer.NextID()
				}
				c.inflight.Add(-1)
			}
		})...)
	}
	return nil
}
