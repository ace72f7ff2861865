package experiments

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"treadmill/internal/loadgen"
	"treadmill/internal/report"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// SaturateBench is the load-plane capacity contrast the `tailbench
// saturate` target renders: for the classic goroutine-per-connection
// client and the sharded load plane, how many open-loop sessions one
// agent process sustains before its own send-slippage self-audit starts
// alerting (the paper's pitfall-3 client-side bias, used here as the
// saturation criterion), plus the per-request allocation and per-session
// memory cost behind that limit.
//
// All numbers are wall-clock measurements against an in-process
// allocation-free TCP responder, so they isolate the client machinery —
// they are host-specific and not bit-identical across runs.
type SaturateBench struct {
	// SessionCap is where the ramp stops regardless of slippage; it is
	// derived from the process fd limit (each session costs two fds with
	// the in-process responder).
	SessionCap int
	// Shards is the plane arm's send-shard count (GOMAXPROCS).
	Shards int

	Legacy SaturateArm
	Plane  SaturateArm

	// SessionRatio is Plane.Sessions / Legacy.Sessions — the headline
	// sessions-per-agent multiplier.
	SessionRatio float64
}

// SaturateArm is one client implementation's measured capacity.
type SaturateArm struct {
	// Sessions is the highest session count that ran under the alert
	// tolerance (the max sustainable point within the cap).
	Sessions int
	// OnsetSessions is the first session count that saturated (0 = the
	// ramp hit SessionCap without saturating).
	OnsetSessions int
	// RPS is the completed-request throughput at the max sustainable
	// point.
	RPS float64
	// AlertRate is the alerting-send fraction at the max sustainable
	// point.
	AlertRate float64
	// AllocsPerRequest is heap allocations per completed request on the
	// send+receive path (process-wide Mallocs delta over a calibration
	// run against the allocation-free responder).
	AllocsPerRequest float64
	// BytesPerSession is resident heap+stack bytes per dialed session
	// (both endpoints of the loopback pair).
	BytesPerSession float64
}

// leanResponder is an allocation-free memcached-ish SUT: every request
// line gets an "END\r\n" miss (the ramp drives a GET-only workload, and a
// miss is a successful response to both clients). Keeping the responder
// off the heap means process-wide allocation deltas measure the client
// under test, not the stand-in server.
type leanResponder struct {
	ln   net.Listener
	wg   sync.WaitGroup
	stop chan struct{}
}

func startLeanResponder() (*leanResponder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &leanResponder{ln: ln, stop: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				defer c.Close()
				r.serve(c)
			}()
		}
	}()
	return r, nil
}

func (r *leanResponder) serve(c net.Conn) {
	br := bufio.NewReaderSize(c, 4096)
	bw := bufio.NewWriterSize(c, 4096)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if _, err := br.ReadSlice('\n'); err != nil {
			return
		}
		if _, err := bw.WriteString("END\r\n"); err != nil {
			return
		}
		// Coalesce: only flush once the pipelined burst is consumed.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (r *leanResponder) Addr() string { return r.ln.Addr().String() }

func (r *leanResponder) Close() {
	close(r.stop)
	r.ln.Close()
	r.wg.Wait()
}

// saturateWorkload is GET-only so the lean responder's universal miss is
// always a valid reply and the send path never materializes values.
func saturateWorkload() workload.Config {
	return workload.Config{
		Name:        "saturate-get",
		GetFraction: 1.0,
		Keys:        10000,
		ValueSize:   workload.SizeDist{Kind: "constant", Value: 64},
		KeyPrefix:   "sat",
	}
}

const (
	// 5ms rather than the default 1ms: on a single schedulable CPU the
	// non-spinning sleep path routinely overshoots by ~1ms, so a 1ms
	// threshold alerts on timer noise at any load. True saturation grows
	// the send backlog without bound, so onset at 5ms is just as sharp.
	saturateAlertThreshold = 5 * time.Millisecond
	// 5% alerting sends: calibrated above the legacy client's own
	// unloaded stall floor (its per-request garbage produces 1-2% 5ms-late
	// sends in bursts at any session count on one core) and well below
	// the >10% it shows once genuinely saturated.
	saturateAlertTolerance = 0.05
	saturateStartSessions  = 64
	saturatePerSessionRate = 10.0
)

// saturateSessionCap bounds the ramp by the process fd limit: every
// session is a loopback pair (two fds in this process) plus listener and
// journal headroom. The cap is floored to a power of two so it lands on
// the doubling ramp.
func saturateSessionCap() int {
	limit := 4096
	if fds, ok := fdLimit(); ok {
		limit = (fds - 512) / 2
	}
	const hard = 8192
	if limit > hard {
		limit = hard
	}
	cap := saturateStartSessions
	for cap*2 <= limit {
		cap *= 2
	}
	return cap
}

// saturateStep runs one ramp step: sessions open-loop connections at the
// fixed per-session rate for window, against addr, through the classic
// client (shards == 0) or the plane. It returns the run stats and the
// alerting-send fraction from a fresh registry.
func saturateStep(ctx context.Context, addr string, shards, sessions int, seed uint64, window time.Duration) (loadgen.Stats, float64, error) {
	reg := telemetry.New()
	gen, err := loadgen.NewOpenLoop(addr, loadgen.Options{
		Shards:        shards,
		Rate:          saturatePerSessionRate * float64(sessions),
		Conns:         sessions,
		Workload:      saturateWorkload(),
		Seed:          seed,
		MaxInflight:   16,
		Telemetry:     reg,
		SlippageAlert: saturateAlertThreshold,
	})
	if err != nil {
		return loadgen.Stats{}, 0, err
	}
	defer gen.Close()
	stats, err := gen.Run(ctx, window)
	if err != nil {
		return loadgen.Stats{}, 0, err
	}
	snap := reg.Snapshot()
	alertRate := 0.0
	if stats.Sent > 0 {
		alertRate = float64(snap.Counters["loadgen.send_slippage_alerts"]) / float64(stats.Sent)
	}
	// Alerts are observed at dispatch, before the pipeline-full check
	// drops a send from Sent, so a fully wedged run can push the ratio
	// past 1; clamp for sanity.
	if alertRate > 1 {
		alertRate = 1
	}
	return stats, alertRate, nil
}

// saturateSettle lets the previous step's teardown finish before the next
// measurement window opens: closing thousands of loopback pairs and
// collecting their buffers otherwise bleeds into the next step's slippage.
func saturateSettle() {
	runtime.GC()
	time.Sleep(250 * time.Millisecond)
}

// saturateArm ramps one client implementation: double the session count
// at fixed per-session rate until the slippage self-audit alerts on more
// than the tolerated fraction of sends (or errors appear — a full
// pipeline is saturation by another name), then report the last
// sustainable point.
func saturateArm(ctx context.Context, addr string, shards, maxSessions int, seed uint64, window time.Duration, progress func(string)) (SaturateArm, error) {
	var arm SaturateArm
	for sessions := saturateStartSessions; sessions <= maxSessions; sessions *= 2 {
		stats, alertRate, saturated, err := saturateJudgedStep(ctx, addr, shards, sessions, seed, window, progress)
		if err != nil {
			return arm, err
		}
		if saturated {
			// One transient host-wide stall (the CPU is shared with the
			// responder, teardown, and anything else on the machine) can
			// poison a single window; believe saturation only when a
			// second window confirms it.
			saturateSettle()
			if progress != nil {
				progress(fmt.Sprintf("%d sessions: retrying to confirm saturation", sessions))
			}
			stats, alertRate, saturated, err = saturateJudgedStep(ctx, addr, shards, sessions, seed+1, window, progress)
			if err != nil {
				return arm, err
			}
		}
		if saturated {
			arm.OnsetSessions = sessions
			break
		}
		arm.Sessions = sessions
		arm.RPS = float64(stats.Completed) / stats.Elapsed.Seconds()
		arm.AlertRate = alertRate
		saturateSettle()
	}
	return arm, nil
}

// saturateJudgedStep runs one window and applies the saturation verdict:
// too many alerting sends, or errors (a full pipeline is saturation by
// another name).
func saturateJudgedStep(ctx context.Context, addr string, shards, sessions int, seed uint64, window time.Duration, progress func(string)) (loadgen.Stats, float64, bool, error) {
	stats, alertRate, err := saturateStep(ctx, addr, shards, sessions, seed, window)
	if err != nil {
		return stats, 0, false, err
	}
	errRate := 0.0
	if stats.Sent > 0 {
		errRate = float64(stats.Errors) / float64(stats.Sent)
	}
	saturated := alertRate > saturateAlertTolerance || errRate > saturateAlertTolerance
	if progress != nil {
		progress(fmt.Sprintf("%d sessions: %.0f rps, %.2f%% alerts, %.2f%% errors%s",
			sessions, stats.OfferedRate(), 100*alertRate, 100*errRate,
			map[bool]string{true: " [saturated]", false: ""}[saturated]))
	}
	return stats, alertRate, saturated, nil
}

// saturateAllocs measures process-wide heap allocations per completed
// request at a comfortably sub-saturation operating point. Dialing and
// telemetry setup happen outside the measured region, so with the
// allocation-free responder the delta is the client's own send+receive
// path (plus a handful of one-time run-startup allocations amortized over
// the window's requests).
func saturateAllocs(ctx context.Context, addr string, shards int, seed uint64, window time.Duration) (float64, error) {
	const sessions = 64
	gen, err := loadgen.NewOpenLoop(addr, loadgen.Options{
		Shards:      shards,
		Rate:        saturatePerSessionRate * sessions,
		Conns:       sessions,
		Workload:    saturateWorkload(),
		Seed:        seed,
		MaxInflight: 16,
	})
	if err != nil {
		return 0, err
	}
	defer gen.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := gen.Run(ctx, window)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	if stats.Completed == 0 {
		return 0, fmt.Errorf("experiments: saturate alloc run completed nothing")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(stats.Completed), nil
}

// saturateSessionBytes measures resident heap+stack bytes per dialed
// session: buffers, goroutine stacks, and ring/arena state for both ends
// of the loopback pair, without any traffic.
func saturateSessionBytes(addr string, shards, sessions int, seed uint64) (float64, error) {
	memInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	before := memInuse()
	gen, err := loadgen.NewOpenLoop(addr, loadgen.Options{
		Shards:   shards,
		Rate:     1, // unused: the loop never runs
		Conns:    sessions,
		Workload: saturateWorkload(),
		Seed:     seed,
	})
	if err != nil {
		return 0, err
	}
	after := memInuse()
	gen.Close()
	if after <= before {
		return 0, nil
	}
	return float64(after-before) / float64(sessions), nil
}

// RunSaturate measures both client implementations to their slippage
// onset and returns the capacity contrast. progress, when non-nil,
// receives one human-readable line per ramp step.
func RunSaturate(ctx context.Context, s Scale, progress func(string)) (*SaturateBench, error) {
	// Windows shorter than ~2.5s make the alert fraction hostage to one
	// or two scheduler stalls at low session counts.
	window := 2500 * time.Millisecond
	if s.Name == "full" {
		window = 4 * time.Second
	}
	rep := &SaturateBench{SessionCap: saturateSessionCap(), Shards: runtime.GOMAXPROCS(0)}

	sut, err := startLeanResponder()
	if err != nil {
		return nil, err
	}
	defer sut.Close()

	arms := []struct {
		name   string
		shards int
		out    *SaturateArm
	}{
		{"legacy", 0, &rep.Legacy},
		{"plane", -1, &rep.Plane},
	}
	for _, a := range arms {
		if progress != nil {
			progress("ramping " + a.name + " client...")
		}
		arm, err := saturateArm(ctx, sut.Addr(), a.shards, rep.SessionCap, s.Seed, window, progress)
		if err != nil {
			return nil, fmt.Errorf("experiments: saturate %s ramp: %w", a.name, err)
		}
		if arm.Sessions == 0 {
			return nil, fmt.Errorf("experiments: %s client saturated at the starting point (%d sessions)", a.name, saturateStartSessions)
		}
		if arm.AllocsPerRequest, err = saturateAllocs(ctx, sut.Addr(), a.shards, s.Seed, window); err != nil {
			return nil, fmt.Errorf("experiments: saturate %s allocs: %w", a.name, err)
		}
		if arm.BytesPerSession, err = saturateSessionBytes(sut.Addr(), a.shards, 1024, s.Seed); err != nil {
			return nil, fmt.Errorf("experiments: saturate %s session bytes: %w", a.name, err)
		}
		*a.out = arm
	}
	rep.SessionRatio = float64(rep.Plane.Sessions) / float64(rep.Legacy.Sessions)
	return rep, nil
}

// SaturateTable renders the capacity contrast, one row per client.
func SaturateTable(b *SaturateBench) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Load-plane saturation (%.0f rps/session, >%.0f%% of sends slipping >%v saturates, cap %d sessions, %d shards)",
			saturatePerSessionRate, 100*saturateAlertTolerance, saturateAlertThreshold, b.SessionCap, b.Shards),
		Headers: []string{"client", "sessions", "onset", "rps", "rps/core", "alerts", "allocs/req", "bytes/session"},
	}
	row := func(name string, a SaturateArm) {
		onset := "none (cap)"
		if a.OnsetSessions > 0 {
			onset = fmt.Sprintf("%d", a.OnsetSessions)
		}
		t.AddRow(name,
			fmt.Sprintf("%d", a.Sessions), onset,
			fmt.Sprintf("%.0f", a.RPS), fmt.Sprintf("%.0f", a.RPS/float64(b.Shards)),
			report.Percent(a.AlertRate),
			fmt.Sprintf("%.3f", a.AllocsPerRequest),
			fmt.Sprintf("%.0f", a.BytesPerSession))
	}
	row("legacy", b.Legacy)
	row("plane", b.Plane)
	t.AddRow("plane/legacy", fmt.Sprintf("%.1fx", b.SessionRatio), "", "", "", "", "", "")
	return t
}
