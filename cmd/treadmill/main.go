// Command treadmill is the load tester CLI: it drives a memcached-protocol
// endpoint over TCP with the full Treadmill measurement procedure —
// open-loop Poisson load, multiple in-process instances, warm-up /
// calibration / measurement phases, per-instance quantile extraction, and
// repeated runs until the estimate converges.
//
// Usage:
//
//	treadmill -target 127.0.0.1:11211 -rate 50000 [-instances 4]
//	          [-conns 8] [-duration 5s] [-runs 5] [-workload w.json]
//	          [-ground-truth] [-closed-loop] [-workers n]
//	          [-fleet :9200] [-agents 4] [-loss-policy abort] [-chaos]
//	          [-journal run.jsonl] [-trace traces.jsonl] [-trace-sample 1000]
//	          [-slippage-alert 1ms] [-telemetry-addr 127.0.0.1:9150]
//	          [-anatomy anatomy.csv] [-flight flight.trace.json]
//
// With -fleet, treadmill runs as a coordinator instead of generating load
// itself: it listens for treadmill-agent processes, calibrates each
// agent's clock at join, waits for -agents of them, and then executes
// every repeated run as a barrier-synchronized broadcast — each agent
// drives rate/N against the target and ships a histogram shard back, the
// paper's many-low-rate-clients configuration.
//
// With -chaos, treadmill skips load generation entirely and runs the
// chaos smoke: loopback fleet campaigns over the deterministic
// fault-injection transport (three degrade-policy seeds plus one abort
// arm, derived from -seed, each under a -duration fault window),
// verifying the coordinator's loss-policy invariants — exactly-once
// cell commit, exact histogram accounting, journaled degrade/abort
// records, and no goroutine leaks. -target is not required.
//
// Observability (shared flag set with tailbench, obs.Flags):
// -journal appends structured JSONL events (config, per-run quantile
// snapshots, convergence trajectory, per-run anatomy, final estimates) that
// survive Ctrl-C; -trace samples per-request lifecycle records to JSONL;
// -telemetry-addr serves /metrics, /debug/vars, and /debug/pprof live;
// -anatomy collects every request's client-observable phase decomposition
// (client send / wire+server / client receive) into a tail-vs-body
// breakdown, prints it, and exports it as CSV or JSONL; -flight (fleet
// mode only) records the campaign flight timeline — clock-corrected
// per-agent run and request spans plus tail-trigger forensic bundles —
// and writes it as Perfetto-loadable Chrome trace-event JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/capture"
	"treadmill/internal/client"
	"treadmill/internal/core"
	"treadmill/internal/experiments"
	"treadmill/internal/fleet"
	"treadmill/internal/flightrec"
	"treadmill/internal/loadgen"
	"treadmill/internal/obs"
	"treadmill/internal/report"
	"treadmill/internal/stats"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// options carries every parsed flag so run can stay a plain function whose
// defers (journal close, trace flush) execute on all exit paths — log.Fatal
// in main would skip them.
type options struct {
	target       string
	rate         float64
	instances    int
	conns        int
	duration     time.Duration
	minRuns      int
	maxRuns      int
	workloadPath string
	seed         uint64
	groundTruth  bool
	closedLoop   bool
	preload      bool
	findCapacity bool
	sloQuantile  float64
	sloTarget    time.Duration
	workers      int
	shards       int
	fleetAddr    string
	fleetAgents  int
	fleetLoss    string
	chaos        bool
	serverTiming bool
	obs          obs.Flags
}

func main() {
	var o options
	flag.StringVar(&o.target, "target", "", "server address (required)")
	flag.Float64Var(&o.rate, "rate", 10000, "total request rate across instances")
	flag.IntVar(&o.instances, "instances", 4, "Treadmill instances")
	flag.IntVar(&o.conns, "conns", 8, "connections per instance")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "load duration per run")
	flag.IntVar(&o.minRuns, "runs", 3, "minimum repeated runs (hysteresis procedure)")
	flag.IntVar(&o.maxRuns, "max-runs", 10, "maximum repeated runs")
	flag.StringVar(&o.workloadPath, "workload", "", "JSON workload config (default: built-in mixed workload)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.groundTruth, "ground-truth", false, "run a tcpdump-style wire-latency prober alongside")
	flag.BoolVar(&o.closedLoop, "closed-loop", false, "use the (flawed) closed-loop controller instead, for comparison")
	flag.BoolVar(&o.preload, "preload", true, "preload the key space before measuring")
	flag.BoolVar(&o.findCapacity, "find-capacity", false, "binary-search the max rate meeting the SLO instead of measuring one rate")
	flag.Float64Var(&o.sloQuantile, "slo-quantile", 0.99, "SLO quantile for -find-capacity")
	flag.DurationVar(&o.sloTarget, "slo-target", 2*time.Millisecond, "SLO latency bound for -find-capacity")
	flag.IntVar(&o.workers, "workers", 0, "cap on process parallelism (GOMAXPROCS) for load generation and statistics (0 = all cores)")
	flag.IntVar(&o.shards, "shards", 0, "route open-loop load through the sharded send plane: N send shards per instance/agent, -1 = one per core, 0 = classic goroutine-per-connection client")
	flag.StringVar(&o.fleetAddr, "fleet", "", "run as a fleet coordinator: listen for treadmill-agent connections on this address and distribute the load")
	flag.IntVar(&o.fleetAgents, "agents", 2, "with -fleet, number of agents to wait for before measuring")
	flag.StringVar(&o.fleetLoss, "loss-policy", "abort", "with -fleet, agent-loss policy: abort or degrade")
	flag.BoolVar(&o.chaos, "chaos", false, "run the loopback chaos-fleet smoke (seeded fault schedules, loss-policy invariants) instead of generating load; -target not required")
	flag.BoolVar(&o.serverTiming, "server-timing", false, "negotiate per-request server-timing trailers (treadmill-kv servers only; others downgrade gracefully) so anatomy splits server time into parse/store/serialize/write/gc/sched")
	o.obs.Register(flag.CommandLine)
	flag.Parse()

	if o.workers > 0 {
		runtime.GOMAXPROCS(o.workers)
	}

	if o.target == "" && !o.chaos {
		fmt.Fprintln(os.Stderr, "treadmill: -target is required")
		flag.Usage()
		os.Exit(2)
	}
	if o.chaos && o.fleetAddr != "" {
		fmt.Fprintln(os.Stderr, "treadmill: -chaos runs its own loopback fleet and is incompatible with -fleet")
		os.Exit(2)
	}
	if o.obs.Flight != "" && o.fleetAddr == "" {
		fmt.Fprintln(os.Stderr, "treadmill: -flight requires -fleet (the flight recorder is the coordinator's campaign timeline)")
		os.Exit(2)
	}
	if o.fleetAddr != "" {
		switch {
		case o.findCapacity || o.closedLoop:
			fmt.Fprintln(os.Stderr, "treadmill: -fleet is incompatible with -find-capacity and -closed-loop")
			os.Exit(2)
		case o.obs.AnatomyEnabled():
			fmt.Fprintln(os.Stderr, "treadmill: -anatomy is not supported with -fleet (per-request phases stay agent-local)")
			os.Exit(2)
		case o.fleetAgents < 1:
			fmt.Fprintln(os.Stderr, "treadmill: -agents must be >= 1")
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, o options) (err error) {
	wl := workload.Default()
	if o.workloadPath != "" {
		wl, err = workload.Load(o.workloadPath)
		if err != nil {
			return err
		}
	}

	// Telemetry plumbing: one shared registry for every layer, with the
	// journal, tracer, and exposition endpoint the shared observability
	// flag set requested.
	reg := telemetry.New()
	obs, err := o.obs.Open(reg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obs.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	defer func() {
		line, werr := obs.WriteTraceFile(o.obs.Trace)
		if line != "" {
			fmt.Println(line)
		}
		if werr != nil && err == nil {
			err = werr
		}
	}()
	if line := obs.ServingLine(); line != "" {
		fmt.Println(line)
	}

	// Chaos smoke: no target, no load — fault-injected loopback fleet
	// campaigns whose pass/fail is the loss-policy invariants.
	if o.chaos {
		fmt.Printf("chaos: loopback fleet campaigns, %v fault window per seed (base seed %d)...\n", o.duration, o.seed)
		results, cerr := experiments.RunChaosSuite(ctx, o.seed, 3, o.duration)
		if len(results) > 0 {
			fmt.Println(experiments.ChaosTable(results))
		}
		return cerr
	}

	// Fleet mode: open the coordinator listener before the (potentially
	// slow) preload, so agents can dial in and calibrate their clocks while
	// the key space loads instead of bouncing off a closed port.
	var co *fleet.Coordinator
	var flight *flightrec.Recorder
	if o.fleetAddr != "" {
		loss, perr := fleet.ParseLossPolicy(o.fleetLoss)
		if perr != nil {
			return perr
		}
		ln, lerr := net.Listen("tcp", o.fleetAddr)
		if lerr != nil {
			return fmt.Errorf("fleet: listen %s: %w", o.fleetAddr, lerr)
		}
		cfg := fleet.Config{
			Loss:    loss,
			Journal: obs.Journal,
			Metrics: reg,
		}
		if o.obs.Flight != "" {
			flight = flightrec.NewRecorder("treadmill-fleet", time.Now().UnixNano(), obs.Journal)
			cfg.Flight = flight
			// The online-quantile trigger keys off each cell's own tail, so
			// the default policy works at any rate without tuning.
			cfg.FlightSpec = &flightrec.CaptureSpec{Quantile: 0.999}
		}
		co = fleet.NewCoordinator(cfg)
		defer co.Close()
		co.Serve(ln)
		fmt.Printf("fleet: accepting agents on %s (loss policy %s)\n", ln.Addr(), loss)
	}

	if o.preload {
		fmt.Printf("preloading %d keys...\n", wl.Keys)
		if err := loadgen.Preload(o.target, wl, o.seed); err != nil {
			return err
		}
	}

	var prober *capture.Prober
	proberStop := make(chan struct{})
	proberDone := make(chan error, 1)
	if o.groundTruth {
		prober, err = capture.NewProber(o.target, "treadmill-probe")
		if err != nil {
			return err
		}
		go func() { proberDone <- prober.Run(500*time.Microsecond, 0, proberStop) }()
	}

	switch {
	case o.findCapacity:
		err = runFindCapacity(ctx, o, wl)
	case o.closedLoop:
		err = runClosedLoop(ctx, o, wl, reg)
	default:
		err = runTreadmill(ctx, o, wl, reg, obs.Journal, obs.Tracer, co)
	}

	// Export the flight timeline even after a failed or interrupted
	// campaign: whatever was recorded is exactly the evidence needed to
	// see what the fleet was doing when things went wrong.
	if flight != nil {
		flight.Close(time.Now().UnixNano())
		spans, marks := flight.Spans(), flight.Marks()
		fmt.Print(flightrec.RenderSummary(flightrec.Summarize(spans, marks)))
		werr := flightrec.WriteChromeTraceFile(o.obs.Flight, spans, marks)
		if werr == nil {
			werr = flightrec.ValidateChromeTraceFile(o.obs.Flight)
		}
		switch {
		case werr != nil && err == nil:
			err = werr
		case werr == nil:
			fmt.Printf("flight: wrote %d spans, %d forensic bundles to %s (trace validates); open in https://ui.perfetto.dev\n",
				len(spans), len(marks), o.obs.Flight)
		}
	}

	if prober != nil {
		close(proberStop)
		if perr := <-proberDone; perr != nil {
			log.Printf("prober: %v", perr)
		}
		wires := prober.Wires()
		if len(wires) > 0 {
			sum, _ := stats.Summarize(wires)
			fmt.Printf("\nground truth (wire) over %d probes: p50=%s p99=%s\n",
				sum.N, report.Micros(sum.P50), report.Micros(sum.P99))
		}
		prober.Close()
	}
	return err
}

func runTreadmill(ctx context.Context, o options, wl workload.Config, reg *telemetry.Registry, journal *telemetry.Journal, tracer *telemetry.Tracer, co *fleet.Coordinator) error {
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed
	cfg.MinRuns = o.minRuns
	cfg.MaxRuns = o.maxRuns
	cfg.Journal = journal
	cfg.Registry = reg
	cfg.Progress = func(u core.ProgressUpdate) {
		fmt.Println(report.ProgressLine(u.Run, u.Runs, u.Estimate, u.RunningMean, u.Converged))
	}
	var m *core.Measurement
	var tcpRunner *core.TCPRunner
	var err error
	if co != nil {
		m, err = measureFleet(ctx, o, wl, cfg, co)
	} else {
		tcpRunner = &core.TCPRunner{
			Addr:      o.target,
			Instances: o.instances,
			PerInstance: loadgen.Options{
				Shards:       o.shards,
				Rate:         o.rate / float64(o.instances),
				Conns:        o.conns,
				Workload:     wl,
				ServerTiming: o.serverTiming,
			},
			Duration:      o.duration,
			Telemetry:     reg,
			Tracer:        tracer,
			SlippageAlert: o.obs.SlippageAlert,
			Anatomy:       o.obs.AnatomyEnabled(),
			Journal:       journal,
		}
		fmt.Printf("measuring %s: %d instances x %.0f rps, %v per run, %d-%d runs\n",
			o.target, o.instances, o.rate/float64(o.instances), o.duration, o.minRuns, o.maxRuns)
		m, err = core.Measure(ctx, cfg, tcpRunner)
	}
	if err != nil {
		// A Ctrl-C before any run completed still returns an error; the
		// journal defer in run has already recorded whatever happened.
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted before the first run completed; no estimates")
			return nil
		}
		return err
	}
	title := fmt.Sprintf("Treadmill measurement (%d runs, converged=%v, %d samples)",
		len(m.Runs), m.Converged, m.TotalSamples)
	if m.Interrupted {
		title += " [interrupted]"
	}
	tab := &report.Table{
		Title:   title,
		Headers: []string{"quantile", "estimate", "run-to-run stddev"},
	}
	for _, q := range cfg.Quantiles {
		tab.AddRow(fmt.Sprintf("p%g", q*100), report.Micros(m.Estimate[q]), report.Micros(m.StdDev[q]))
	}
	fmt.Println(tab)
	fmt.Printf("hysteresis spread (p99): %s\n", report.Percent(m.RelativeSpread()))
	printSlippage(reg, o.obs.SlippageAlert)
	if o.obs.AnatomyEnabled() && tcpRunner != nil {
		if b := tcpRunner.AnatomyBreakdown(); b != nil {
			fmt.Println(anatomy.Table("Tail anatomy (client-observable phases, all runs)", b))
			if err := anatomy.ExportFile(o.obs.Anatomy, []*telemetry.AnatomyRecord{b.Record("final")}); err != nil {
				return err
			}
			fmt.Printf("anatomy: wrote breakdown of %d requests to %s\n", b.Requests, o.obs.Anatomy)
		}
	}
	return nil
}

// Fleet-wide histogram bounds (seconds): every agent records RTTs into
// this fixed geometry so the shards' snapshots merge exactly. 1µs-10s
// covers any latency a memcached-style service can plausibly produce.
const (
	fleetHistLo = 1e-6
	fleetHistHi = 10.0
)

// measureFleet runs the Treadmill procedure with load generation
// distributed over a fleet of treadmill-agent processes: the coordinator
// (already listening since before the preload) waits for the fleet to
// assemble, calibrates clocks at join, then executes every repeated run
// as a barrier-synchronized broadcast where each agent drives its 1/N
// slice of the aggregate rate and ships a histogram shard back.
func measureFleet(ctx context.Context, o options, wl workload.Config, cfg core.Config, co *fleet.Coordinator) (*core.Measurement, error) {
	fmt.Printf("fleet: waiting for %d agents...\n", o.fleetAgents)
	if err := co.WaitAgents(ctx, o.fleetAgents); err != nil {
		return nil, err
	}
	for _, a := range co.Agents() {
		fmt.Printf("fleet: agent %q joined (clock offset %v, sync rtt %v)\n", a.Name, a.Offset, a.RTT)
	}

	spec := fleet.TCPLoadSpec{
		Addr:         o.target,
		TotalRate:    o.rate,
		Conns:        o.conns,
		DurationNs:   o.duration.Nanoseconds(),
		Workload:     wl,
		HistLo:       fleetHistLo,
		HistHi:       fleetHistHi,
		HistBins:     cfg.Hist.Bins,
		SnapPeriodNs: int64(time.Second),
		SendShards:   o.shards,
	}
	fmt.Printf("measuring %s: fleet of %d agents x %.0f rps (aggregate %.0f), %v per run, %d-%d runs\n",
		o.target, o.fleetAgents, o.rate/float64(o.fleetAgents), o.rate, o.duration, o.minRuns, o.maxRuns)
	return core.MeasureSnapshots(ctx, cfg, &fleet.BroadcastLoadRunner{Co: co, Spec: spec})
}

// printSlippage summarizes the send-slippage self-audit: how far actual
// send instants drifted from the open-loop schedule (the paper's pitfall-3
// client-side bias, quantified).
func printSlippage(reg *telemetry.Registry, threshold time.Duration) {
	snap := reg.Snapshot()
	rs, ok := snap.Recorders["loadgen.send_slippage"]
	if !ok || rs.Count == 0 {
		return
	}
	alerts := snap.Counters["loadgen.send_slippage_alerts"]
	fmt.Printf("send slippage: p50=%s p99=%s max=%s over %d sends; %d over the %v alert threshold\n",
		report.Micros(rs.P50), report.Micros(rs.P99), report.Micros(rs.Max),
		rs.Count, alerts, threshold)
}

func runClosedLoop(ctx context.Context, o options, wl workload.Config, reg *telemetry.Registry) error {
	var mu sync.Mutex
	var rtts []float64
	cl, err := loadgen.NewClosedLoop(o.target, loadgen.Options{
		Conns:     o.conns,
		Workload:  wl,
		Seed:      o.seed,
		Telemetry: reg,
		OnResult: func(r *client.Result) {
			if r.Err == nil {
				mu.Lock()
				rtts = append(rtts, r.RTT().Seconds())
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Run(ctx, o.duration)
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop run: %d sent, %d completed, %.0f rps\n",
		st.Sent, st.Completed, st.OfferedRate())
	if len(rtts) > 0 {
		sum, _ := stats.Summarize(rtts)
		fmt.Printf("closed-loop (biased) latency: p50=%s p99=%s — compare with -ground-truth\n",
			report.Micros(sum.P50), report.Micros(sum.P99))
	}
	return nil
}

// runFindCapacity binary-searches the highest rate whose measured SLO
// quantile stays within budget. The -rate flag supplies the search ceiling.
func runFindCapacity(ctx context.Context, o options, wl workload.Config) error {
	opts := loadgen.SweepOptions{
		Options:  loadgen.Options{Conns: o.conns, Workload: wl, Seed: o.seed},
		Duration: o.duration,
		SLO:      loadgen.SLO{Quantile: o.sloQuantile, Target: o.sloTarget},
	}
	floor := o.rate / 64
	fmt.Printf("searching [%g, %g] rps for the highest rate with p%g <= %v...\n",
		floor, o.rate, o.sloQuantile*100, o.sloTarget)
	best, ok, err := loadgen.FindCapacity(ctx, o.target, floor, o.rate, opts)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Printf("even %g rps violates the SLO (p%g = %v); lower the floor or relax the SLO\n",
			floor, o.sloQuantile*100, best.QuantileSLO)
		return nil
	}
	fmt.Printf("capacity: ~%.0f rps (achieved %.0f), p50=%v p99=%v, SLO quantile=%v\n",
		best.TargetRate, best.AchievedRate, best.P50, best.P99, best.QuantileSLO)
	return nil
}
