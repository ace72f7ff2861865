package loadgen

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"treadmill/internal/client"
	"treadmill/internal/loadplane"
	"treadmill/internal/server"
	"treadmill/internal/workload"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func smallWorkload() workload.Config {
	cfg := workload.Default()
	cfg.Keys = 200
	cfg.ValueSize = workload.SizeDist{Kind: "constant", Value: 64}
	return cfg
}

func TestPreload(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().Len(); n != 200 {
		t.Errorf("store has %d items after preload, want 200", n)
	}
}

func TestOpenLoopAchievesRate(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rtts []float64
	ol, err := NewOpenLoop(srv.Addr(), Options{
		Rate: 2000, Conns: 4, Workload: cfg, Seed: 2,
		OnResult: func(r *client.Result) {
			mu.Lock()
			rtts = append(rtts, r.RTT().Seconds())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	stats, err := ol.Run(context.Background(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Errorf("%d errors", stats.Errors)
	}
	if stats.Completed != stats.Sent {
		t.Errorf("sent %d != completed %d", stats.Sent, stats.Completed)
	}
	// Poisson with rate 2000 over 2s: ~4000 sends, sd ~63.
	if math.Abs(stats.OfferedRate()-2000) > 200 {
		t.Errorf("offered rate = %g, want ~2000", stats.OfferedRate())
	}
	mu.Lock()
	n := len(rtts)
	mu.Unlock()
	if uint64(n) != stats.Completed {
		t.Errorf("OnResult saw %d, completed %d", n, stats.Completed)
	}
}

// TestOpenLoopStatsArePerRun reuses one generator for two windows: every
// counter must describe the window it was returned from, so a short second
// run cannot inherit the long first run's sends.
func TestOpenLoopStatsArePerRun(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	ol, err := NewOpenLoop(srv.Addr(), Options{Rate: 2000, Conns: 2, Workload: cfg, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	first, err := ol.Run(context.Background(), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ol.Run(context.Background(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sent == 0 || second.Sent == 0 {
		t.Fatalf("no sends: first %d, second %d", first.Sent, second.Sent)
	}
	for name, st := range map[string]Stats{"first": first, "second": second} {
		if st.Sent < st.Completed {
			t.Errorf("%s run: sent %d < completed %d", name, st.Sent, st.Completed)
		}
	}
	// A fifth of the window: with cumulative counters the second Sent
	// would exceed the first's.
	if second.Sent >= first.Sent {
		t.Errorf("second run sent %d, first %d: counters carried over", second.Sent, first.Sent)
	}
}

func TestOpenLoopPrecision(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	ol, err := NewOpenLoop(srv.Addr(), Options{Rate: 5000, Conns: 8, Workload: cfg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	// The late-send bound is a wall-clock reading on a shared host, so it
	// gets three attempts and passes on the first that meets it.
	var late []float64
	for attempt := 0; attempt < 3; attempt++ {
		stats, err := ol.Run(context.Background(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Regardless of per-send precision, the offered rate must hold on
		// every attempt: the schedule self-corrects by sending immediately
		// when behind.
		if rate := stats.OfferedRate(); rate < 4000 || rate > 6000 {
			t.Errorf("attempt %d: offered rate = %g, want ~5000", attempt+1, rate)
		}
		if !loadplane.SpinWaitNow() {
			return // without spare cores per-send precision is not promised
		}
		// With spare cores the generator waits precisely (see
		// loadplane.SleepUntil): fewer than 5% of sends more than one
		// period late.
		frac := float64(stats.LateSends) / float64(stats.Sent)
		if frac <= 0.05 {
			return
		}
		late = append(late, frac)
	}
	t.Errorf("late sends fraction above 0.05 on every attempt: %v", late)
}

// TestOpenLoopRTTNotSenderBound is the regression test for a sender that
// inflated the latency it measured: at 10 k rps a loopback round trip
// through the product's server takes tens of microseconds, but a sender
// spinning on runtime.Gosched for every gap kept a core busy and pushed
// the median RTT to ~2 ms. Like TestOpenLoopPrecision it is a wall-clock
// reading on a shared host, so it passes on the first of three attempts
// that meets the bound. An attempt that overlaps a starvation hold does
// not count: the sender then spins on purpose to keep its schedule (see
// loadplane.SleepStarved), and is skipped when every attempt did.
func TestOpenLoopRTTNotSenderBound(t *testing.T) {
	if !loadplane.SpinWaitNow() {
		t.Skip("GOMAXPROCS == 1: the sender does not spin, so it cannot bias this way")
	}
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	const bound = 500 * time.Microsecond
	var mu sync.Mutex
	rtts := make([]float64, 0, 16384)
	ol, err := NewOpenLoop(srv.Addr(), Options{
		Rate: 10000, Conns: 2, Workload: cfg, Seed: 7,
		OnResult: func(r *client.Result) {
			if r.Err == nil {
				mu.Lock()
				rtts = append(rtts, r.RTT().Seconds())
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	var p50s []time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		// Run returns after every completion's OnResult, so between runs
		// the slice is this goroutine's alone.
		rtts = rtts[:0]
		starved := loadplane.SleepStarved()
		if _, err := ol.Run(context.Background(), time.Second); err != nil {
			t.Fatal(err)
		}
		if len(rtts) == 0 {
			t.Fatal("no successful completions")
		}
		if starved || loadplane.SleepStarved() {
			continue
		}
		sort.Float64s(rtts)
		p50 := time.Duration(rtts[len(rtts)/2] * float64(time.Second))
		if p50 < bound {
			return
		}
		p50s = append(p50s, p50)
	}
	if len(p50s) == 0 {
		t.Skip("every attempt overlapped a starvation hold: the host was too busy to wake a sleeping sender in time")
	}
	t.Errorf("median RTT at or above %v on every attempt outside a starvation hold: %v", bound, p50s)
}

func TestOpenLoopContextCancel(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	ol, err := NewOpenLoop(srv.Addr(), Options{Rate: 1000, Conns: 2, Workload: cfg, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := ol.Run(ctx, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancel did not stop the run promptly")
	}
}

func TestOpenLoopValidation(t *testing.T) {
	srv := startServer(t)
	if _, err := NewOpenLoop(srv.Addr(), Options{Rate: 0, Conns: 1, Workload: smallWorkload()}); err == nil {
		t.Error("zero rate should error")
	}
	// A rate that is not finite draws zero or NaN gaps: the loop would send
	// until its context fires instead of for the run's duration.
	for _, rate := range []float64{math.Inf(1), math.NaN()} {
		for _, shards := range []int{0, 1} {
			ol, err := NewOpenLoop(srv.Addr(), Options{Rate: rate, Conns: 1, Shards: shards, Workload: smallWorkload()})
			if err == nil {
				ol.Close()
				t.Errorf("rate %g with %d shards should error", rate, shards)
			}
		}
	}
	if _, err := NewOpenLoop(srv.Addr(), Options{Rate: 100, Conns: 0, Workload: smallWorkload()}); err == nil {
		t.Error("zero conns should error")
	}
	ol, err := NewOpenLoop(srv.Addr(), Options{Rate: 100, Conns: 1, Workload: smallWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	if _, err := ol.Run(context.Background(), 0); err == nil {
		t.Error("zero duration should error")
	}
}

func TestClosedLoopKeepsOneOutstandingPerWorker(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	const conns = 4
	clg, err := NewClosedLoop(srv.Addr(), Options{Conns: conns, Workload: cfg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer clg.Close()
	stats, err := clg.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Errorf("%d errors", stats.Errors)
	}
	if stats.Completed == 0 {
		t.Fatal("no completions")
	}
	// Closed loop on loopback: throughput = conns / rtt. Just sanity-check
	// it ran at a plausible clip and sent≈completed.
	if stats.Sent-stats.Completed > conns {
		t.Errorf("sent %d vs completed %d", stats.Sent, stats.Completed)
	}
}

func TestClosedLoopThinkTimeLowersThroughput(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	run := func(think time.Duration) float64 {
		clg, err := NewClosedLoop(srv.Addr(), Options{Conns: 2, ThinkTime: think, Workload: cfg, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		defer clg.Close()
		stats, err := clg.Run(context.Background(), 800*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return stats.OfferedRate()
	}
	fast := run(0)
	slow := run(5 * time.Millisecond)
	if slow >= fast/2 {
		t.Errorf("think time did not lower throughput: %g vs %g", slow, fast)
	}
	// 2 workers with 5ms think: at most ~2/5ms = 400 rps.
	if slow > 500 {
		t.Errorf("closed loop with think time ran at %g rps, want <= ~400", slow)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	srv := startServer(t)
	if _, err := NewClosedLoop(srv.Addr(), Options{Conns: 0, Workload: smallWorkload()}); err == nil {
		t.Error("zero conns should error")
	}
	cl, err := NewClosedLoop(srv.Addr(), Options{Conns: 1, Workload: smallWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Run(context.Background(), 0); err == nil {
		t.Error("zero duration should error")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := NewOpenLoop("127.0.0.1:1", Options{Rate: 100, Conns: 1, Workload: smallWorkload()}); err == nil {
		t.Error("open loop dial to dead port should error")
	}
	if _, err := NewClosedLoop("127.0.0.1:1", Options{Conns: 1, Workload: smallWorkload()}); err == nil {
		t.Error("closed loop dial to dead port should error")
	}
}

func TestSleepUntilPrecision(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond} {
		deadline := time.Now().Add(d)
		loadplane.SleepUntil(deadline, loadplane.SpinWaitNow())
		lag := time.Since(deadline)
		if lag < 0 {
			t.Errorf("woke before deadline by %v", -lag)
		}
		if lag > 2*time.Millisecond {
			t.Errorf("woke %v after a %v deadline", lag, d)
		}
	}
}
