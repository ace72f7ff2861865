package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	// quick shrinks every workload to a smoke run: the same code paths and
	// the exact correctness checks, but no timing-dependent check, so it is
	// safe inside `go test ./...` on a busy host.
	quick bool
	// golden maps "<workload>" (or "<workload>/quick") and a decimal seed to
	// the expected fingerprint in hex; seeds it does not list are not
	// checked against it.
	golden map[string]map[string]string
	// outDir receives the detail reports and trace.json.
	outDir string
}

func (c runConfig) goldenKey() string {
	if c.quick {
		return c.workload + "/quick"
	}
	return c.workload
}

// setupReps is how many times a run builds its fixture; set-up time is
// reported over them. A smoke run builds it once.
func (c runConfig) setupReps() int {
	if c.quick {
		return 1
	}
	return 5
}

func newReport(cfg runConfig, trace bool) *runReport {
	r := &runReport{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Quick: cfg.quick, Host: readHost()}
	if w := hostWarning(r.Host); w != "" {
		r.Notes = append(r.Notes, w)
	}
	return r
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(ctx context.Context, cfg runConfig) (*runReport, error) {
	r := newReport(cfg, false)
	var err error
	switch cfg.workload {
	case "sim_factorial", "sim_fanout_burst":
		err = runSimEndToEnd(ctx, cfg, r)
	case "live_kv", "live_lean":
		err = runLiveEndToEnd(ctx, cfg, r)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = len(r.Violations) == 0
	return r, nil
}

// runSimEndToEnd: set-up is building the study and one discarded, smaller
// warm-up campaign (it grows the heap and the engine arenas to their
// working size); it is repeated setupReps() times. Then identical repetitions
// of the full campaign run until the time budget is used.
func runSimEndToEnd(ctx context.Context, cfg runConfig, r *runReport) error {
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		t0 := time.Now()
		warm, err := newStudy(cfg.workload, cfg.seed, shapeWarm)
		if err != nil {
			return err
		}
		if _, err := warm.Run(ctx); err != nil {
			return fmt.Errorf("warm-up campaign: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	shape := shapeFull
	if cfg.quick {
		shape = shapeQuick
	}
	st, err := newStudy(cfg.workload, cfg.seed, shape)
	if err != nil {
		return err
	}
	nominal := nominalRequests(st)
	experiments := st.Replicates * (1 << len(st.Factors))

	var nsPerReq, cpuPerReq, p50, p95, p99, rss, campaign, fit, allocs []float64
	var fps []uint64
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep > 0 {
			mean := time.Since(start).Seconds() / float64(rep)
			if cfg.quick || time.Since(start).Seconds()+mean > cfg.seconds {
				break
			}
		}
		runtime.GC()
		resetPeakRSS()
		sr, err := runSimRep(ctx, st)
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		r.Attempted += int64(experiments)
		if len(sr.res.Samples) != experiments {
			r.violate("repetition %d returned %d samples for %d experiments", rep, len(sr.res.Samples), experiments)
			r.Failed += int64(experiments - len(sr.res.Samples))
		}
		if !fitsFinite(sr.fits) {
			r.violate("repetition %d: a quantile-regression fit is not finite", rep)
		}
		fps = append(fps, sr.fp)
		nsPerReq = append(nsPerReq, (sr.runS+sr.fitS)*1e9/nominal)
		cpuPerReq = append(cpuPerReq, sr.cpuS*1e9/nominal)
		us := make([]float64, len(sr.experiments))
		for i, s := range sr.experiments {
			us[i] = s * 1e6
		}
		p50 = append(p50, exactQuantile(us, 0.5))
		p95 = append(p95, exactQuantile(us, 0.95))
		p99 = append(p99, exactQuantile(us, 0.99))
		campaign = append(campaign, sr.runS+sr.fitS)
		fit = append(fit, sr.fitS)
		allocs = append(allocs, float64(sr.mallocs)/nominal)
	}

	// Simulated results are checked for identity, never timed: every
	// repetition of one seed must produce the same samples, bit for bit.
	for i, fp := range fps {
		if fp != fps[0] {
			r.violate("repetition %d fingerprint %016x differs from repetition 0 %016x", i, fp, fps[0])
			r.Failed += int64(experiments)
		}
	}
	if want, ok := cfg.golden[cfg.goldenKey()][strconv.FormatUint(cfg.seed, 10)]; ok {
		if got := fmt.Sprintf("%016x", fps[0]); got != want {
			r.violate("fingerprint %s differs from golden %s for seed %d", got, want, cfg.seed)
			r.Failed = r.Attempted
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf("fingerprint %016x over %d experiments, %.0f nominal simulated requests per repetition", fps[0], experiments, nominal))

	r.add("setup_s", "s", true, setups...)
	r.add("ns_per_req", "ns", true, nsPerReq...)
	r.add("cpu_ns_per_req", "ns", true, cpuPerReq...)
	r.add("lat_p50_us", "us", true, p50...)
	r.add("lat_p95_us", "us", true, p95...)
	r.add("peak_rss_mb", "MB", true, rss...)
	r.add("lat_p99_us", "us", false, p99...)
	r.add("campaign_s", "s", false, campaign...)
	r.add("fit_s", "s", false, fit...)
	r.add("allocs_per_req", "count", false, allocs...)
	r.add("fail_ratio", "ratio", false, float64(r.Failed)/float64(r.Attempted))
	return nil
}

// runLiveEndToEnd: set-up is starting the target, preloading it, dialling
// and one discarded warm-up window; it is repeated setupReps() times and the
// last fixture is kept. Then liveWindows windows of seconds/liveWindows
// each, every one with a fresh OpenLoop and registry.
func runLiveEndToEnd(ctx context.Context, cfg runConfig, r *runReport) error {
	spec, err := liveSpecFor(cfg.workload, cfg.quick)
	if err != nil {
		return err
	}
	windows := liveWindows
	if cfg.quick {
		windows = 2
	}
	window := time.Duration(cfg.seconds / float64(windows) * float64(time.Second))
	warm := window / 8

	var target *liveTarget
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if target != nil {
			target.close()
		}
		t0 := time.Now()
		if target, err = startTarget(spec, cfg.seed); err != nil {
			return err
		}
		if _, err := runLiveWindow(ctx, spec, target, cfg.seed, warm, liveOpts{}); err != nil {
			target.close()
			return fmt.Errorf("warm-up window: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer target.close()

	var nsPerReq, cpuPerReq, p50, p95, p99, rss, rps, slip50, slip99, allocs, late []float64
	var completed uint64
	var elapsed time.Duration
	for i := 0; i < windows; i++ {
		runtime.GC()
		resetPeakRSS()
		w, err := runLiveWindow(ctx, spec, target, cfg.seed+uint64(i)+1, window, liveOpts{})
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		for _, v := range w.check(0) {
			r.violate("window %d: %s", i, v)
		}
		st := w.stats
		completed += st.Completed
		elapsed += st.Elapsed
		r.Attempted += int64(st.Completed + st.Errors)
		r.Failed += int64(st.Errors + w.badReplies)
		if st.Completed == 0 {
			return fmt.Errorf("window %d completed no request", i)
		}
		n := float64(st.Completed)
		nsPerReq = append(nsPerReq, float64(st.Elapsed.Nanoseconds())/n)
		cpuPerReq = append(cpuPerReq, w.cpuS*1e9/n)
		p50 = append(p50, exactQuantile(w.rtt, 0.5))
		p95 = append(p95, exactQuantile(w.rtt, 0.95))
		p99 = append(p99, exactQuantile(w.rtt, 0.99))
		rps = append(rps, n/st.Elapsed.Seconds())
		slip50 = append(slip50, w.slipP50)
		slip99 = append(slip99, w.slipP99)
		allocs = append(allocs, float64(w.mallocs)/n)
		late = append(late, float64(st.LateSends)/float64(st.Sent))
	}
	// The one check that depends on the host keeping up; smoke runs skip it.
	if v := checkRate(spec, completed, elapsed); v != "" && !cfg.quick {
		r.violate("%s", v)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("open loop, Poisson, %.0f rps offered over %d connections, %d windows of %s; loopback, not a real link", spec.rate, liveConns, windows, window),
		"lat_* is send->completion as the tool reports it and excludes the wait before the send; slip_* is that wait (due->send), so read the two together")

	r.add("setup_s", "s", true, setups...)
	r.add("ns_per_req", "ns", true, nsPerReq...)
	r.add("cpu_ns_per_req", "ns", true, cpuPerReq...)
	r.add("lat_p50_us", "us", true, p50...)
	r.add("lat_p95_us", "us", true, p95...)
	r.add("peak_rss_mb", "MB", true, rss...)
	r.add("lat_p99_us", "us", false, p99...)
	r.add("achieved_rps", "1/s", false, rps...)
	r.add("slip_p50_us", "us", false, slip50...)
	r.add("slip_p99_us", "us", false, slip99...)
	r.add("late_send_ratio", "ratio", false, late...)
	r.add("allocs_per_req", "count", false, allocs...)
	r.add("fail_ratio", "ratio", false, float64(r.Failed)/float64(r.Attempted))
	return nil
}
