package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// perLayer is the per-layer metric list, in BENCHMARK.json order. The
// module names are the layers; "<workload>." metrics are whole-workload
// diagnostics that could not be gated (README.md says why each is here).
// Every traced pass reports every one of them, whichever workload names it.
var perLayer = []metricDef{
	{Name: "sim.engine_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.engine_schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.request_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.request_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.request_bytes", Unit: "B", Better: "lower"},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.fanout_request_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fanout_request_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.fanout_events_per_req", Unit: "count", Better: "lower"},
	{Name: "runner.experiment_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "agg.per_instance_us", Unit: "us", Better: "lower"},
	{Name: "hist.record_ns", Unit: "ns", Better: "lower"},
	{Name: "hist.quantile_ns", Unit: "ns", Better: "lower"},
	{Name: "hist.merge_us", Unit: "us", Better: "lower"},
	{Name: "quantreg.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "quantreg.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "quantreg.resample_us", Unit: "us", Better: "lower"},
	{Name: "stats.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "anatomy.record_ns", Unit: "ns", Better: "lower"},
	{Name: "anatomy.finalize_us", Unit: "us", Better: "lower"},
	{Name: "dist.arrival_sample_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.mmpp_sample_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_allocs", Unit: "count", Better: "lower"},
	{Name: "workload.next_lean_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.write_request_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.parse_request_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.parse_request_allocs", Unit: "count", Better: "lower"},
	{Name: "protocol.write_response_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.parse_response_ns", Unit: "ns", Better: "lower"},
	{Name: "protocol.parse_response_allocs", Unit: "count", Better: "lower"},
	{Name: "server.store_get_ns", Unit: "ns", Better: "lower"},
	{Name: "server.store_set_ns", Unit: "ns", Better: "lower"},
	{Name: "server.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "server.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "server.roundtrip_timed_ns", Unit: "ns", Better: "lower"},
	{Name: "client.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "client.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "client.pipelined_ns", Unit: "ns", Better: "lower"},
	{Name: "client.pipelined_allocs", Unit: "count", Better: "lower"},
	{Name: "loadplane.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "loadplane.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "loadplane.bytes_per_session", Unit: "B", Better: "lower"},
	{Name: "loadplane.sleep_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "loadplane.slip_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadplane.slip_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadplane.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.bytes_per_session", Unit: "B", Better: "lower"},
	{Name: "loadgen.late_send_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.slip_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.slip_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.disabled_ns", Unit: "ns", Better: "lower"},
	{Name: "router.roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "router.roundtrip_allocs", Unit: "count", Better: "lower"},
	{Name: "ledger.client_send_us", Unit: "us", Better: "lower"},
	{Name: "ledger.wire_us", Unit: "us", Better: "lower"},
	{Name: "ledger.srv_parse_us", Unit: "us", Better: "lower"},
	{Name: "ledger.srv_store_us", Unit: "us", Better: "lower"},
	{Name: "ledger.srv_serialize_us", Unit: "us", Better: "lower"},
	{Name: "ledger.srv_write_us", Unit: "us", Better: "lower"},
	{Name: "ledger.client_recv_us", Unit: "us", Better: "lower"},
	{Name: "ledger.other_share_tail", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "sim_factorial.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "sim_factorial.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_fanout_burst.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "sim_fanout_burst.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "live_kv.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "live_kv.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "live_kv.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "live_lean.fail_ratio", Unit: "ratio", Better: "lower"},
}

// ledger is one traced pass: the span recorder, the root span every layer
// section hangs under, and the report being filled.
type ledger struct {
	tr   *tracer
	root int
	rep  *runReport
	cfg  runConfig
	// window is the length of the live windows of the pass.
	window time.Duration
	nextID int // request id of the next walked batch
}

// iters scales an iteration count down for smoke runs.
func (l *ledger) iters(n int) int {
	if l.cfg.quick {
		return max(n/20, 2)
	}
	return n
}

func (l *ledger) put(name, unit string, reps ...float64) {
	l.rep.add(name, unit, true, reps...)
}

// timed runs fn batches times, each under one span of calls calls, and
// returns the nanoseconds per call of every batch.
func (l *ledger) timed(name string, parent, batches, calls int, fn func()) []float64 {
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		id := l.tr.begin(name, parent, 0, calls)
		fn()
		out = append(out, float64(l.tr.end(id))/float64(calls))
	}
	return out
}

// allocsPer reports heap allocations per call of fn, which makes calls
// calls. It runs outside any span: ReadMemStats stops the world.
func allocsPer(calls int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// runTraced is the traced pass. It is the same ledger whichever workload
// names it: BENCHMARK.json's per-layer list is one list, reported whole by
// every traced run. Spans are recorded here, in the benchmark's own files,
// around the calls into each layer; end-to-end numbers never come from it.
func runTraced(ctx context.Context, cfg runConfig, tracePath string) (*runReport, error) {
	l := &ledger{tr: newTracer(), rep: newReport(cfg, true), cfg: cfg, nextID: 1}
	l.window = time.Duration(cfg.seconds / 10 * float64(time.Second))
	l.root = l.tr.begin("ledger", 0, 0, 1)
	steps := []struct {
		name string
		run  func(context.Context) error
	}{
		{"sim", l.simLayer},
		{"request_walk", l.requestWalk},
		{"campaigns", l.campaigns},
		{"analysis", l.analysisLayers},
		{"generators", l.generatorLayers},
		{"server", l.serverLayer},
		{"client", l.clientLayer},
		{"router", l.routerLayer},
		{"sessions", l.sessionLayers},
		{"telemetry", l.telemetryLayer},
		{"live", l.liveLayers},
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		if err := s.run(ctx); err != nil {
			return nil, fmt.Errorf("traced pass, %s: %w", s.name, err)
		}
	}
	l.tr.end(l.root)

	if !l.tr.finish() {
		l.rep.violate("spans do not tile: a child span leaves its parent or children outlast it")
	}
	if err := l.tr.write(tracePath, l.rep.Host, cfg.seed); err != nil {
		return nil, err
	}
	l.rep.Notes = append(l.rep.Notes, fmt.Sprintf("%d spans written to %s", len(l.tr.spans), tracePath))

	// Report in BENCHMARK.json order and insist on the exact list.
	got := make(map[string]reported, len(l.rep.Metrics))
	for _, m := range l.rep.Metrics {
		got[m.Name] = m
	}
	l.rep.Metrics = l.rep.Metrics[:0]
	for _, def := range perLayer {
		m, ok := got[def.Name]
		if !ok {
			return nil, fmt.Errorf("traced pass did not measure %s", def.Name)
		}
		delete(got, def.Name)
		l.rep.Metrics = append(l.rep.Metrics, m)
	}
	if len(got) != 0 {
		return nil, fmt.Errorf("traced pass measured metrics BENCHMARK.json does not list: %v", sortedNames(got))
	}
	if l.rep.Attempted == 0 {
		l.rep.Attempted = 1
	}
	l.rep.Correct = len(l.rep.Violations) == 0
	return l.rep, nil
}
