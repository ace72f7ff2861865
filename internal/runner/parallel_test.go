package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"treadmill/internal/sim"
	"treadmill/internal/telemetry"
	"treadmill/internal/testlock"
)

// parityStudy is a small campaign that exercises samples, anatomy, journal
// events, and progress — everything the determinism guarantee covers.
func parityStudy(seed uint64, workers int, journal *telemetry.Journal) *Study {
	paper := PaperFactors()
	return &Study{
		Base:           sim.DefaultClusterConfig(2),
		Factors:        []Factor{paper[0], paper[2]},
		TotalRate:      300000,
		ConnsPerClient: 4,
		Duration:       0.04,
		Warmup:         0.01,
		Replicates:     2,
		Quantiles:      []float64{0.5, 0.99},
		Seed:           seed,
		Workers:        workers,
		CollectAnatomy: true,
		Journal:        journal,
	}
}

// runParity executes one campaign and returns its result, journal bytes,
// and progress trace.
func runParity(t *testing.T, seed uint64, workers int) (*Result, string, []int) {
	t.Helper()
	var buf bytes.Buffer
	journal := telemetry.NewJournal(&buf)
	s := parityStudy(seed, workers, journal)
	var progress []int
	s.Progress = func(done, total int) { progress = append(progress, done) }
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	return res, buf.String(), progress
}

// TestStudyRunWorkerParity is the determinism guarantee: for several seeds,
// Study.Run must produce byte-identical results — samples (exact float
// equality), quantiles, per-cell anatomy breakdowns, the journal's anatomy
// event sequence, and the progress trace — for any worker count.
func TestStudyRunWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign parity sweep in -short mode")
	}
	testlock.CPUBound(t)
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{1, 42, 911} {
		baseRes, baseJournal, baseProgress := runParity(t, seed, 1)
		for _, w := range workerCounts[1:] {
			res, journal, progress := runParity(t, seed, w)
			if !reflect.DeepEqual(baseRes.Samples, res.Samples) {
				t.Errorf("seed %d workers %d: samples differ from sequential", seed, w)
			}
			if !reflect.DeepEqual(baseRes.Anatomy, res.Anatomy) {
				t.Errorf("seed %d workers %d: anatomy breakdowns differ from sequential", seed, w)
			}
			if journal != baseJournal {
				t.Errorf("seed %d workers %d: journal bytes differ from sequential", seed, w)
			}
			if !reflect.DeepEqual(progress, baseProgress) {
				t.Errorf("seed %d workers %d: progress trace %v != %v", seed, w, progress, baseProgress)
			}
			// Fits consume only Samples, but assert the full chain anyway:
			// identical samples must yield identical coefficients.
			baseFit, err := baseRes.Fit(0.99, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			fit, err := res.Fit(0.99, 40, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseFit.Coefs, fit.Coefs) {
				t.Errorf("seed %d workers %d: fit coefficients differ", seed, w)
			}
		}
	}
}

// TestProgressAndGaugeMonotonic checks that out-of-order completion cannot
// make the progress callback or the runner.experiments_done gauge go
// backwards: commits are ordered, so both count 1..n exactly. The reorder
// buffer's gauge can move either way but never below zero, and is empty at
// the last commit and when Run returns.
func TestProgressAndGaugeMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	reg := telemetry.New()
	s := parityStudy(7, 4, nil)
	s.Telemetry = reg
	var progress []int
	var gauges, buffered []int64
	doneG := reg.Gauge("runner.experiments_done")
	bufferedG := reg.Gauge("runner.experiments_buffered")
	s.Progress = func(done, total int) {
		progress = append(progress, done)
		gauges = append(gauges, doneG.Value())
		buffered = append(buffered, bufferedG.Value())
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Samples)
	if len(progress) != n {
		t.Fatalf("progress called %d times, want %d", len(progress), n)
	}
	for i, p := range progress {
		if p != i+1 {
			t.Fatalf("progress[%d] = %d, want %d (must be monotone without gaps)", i, p, i+1)
		}
		if gauges[i] != int64(i+1) {
			t.Fatalf("gauge at commit %d = %d, want %d", i, gauges[i], i+1)
		}
		// Whatever is buffered is finished but uncommitted: at most the
		// experiments not yet committed, none after the last commit.
		if buffered[i] < 0 || buffered[i] > int64(n-i-1) {
			t.Fatalf("experiments_buffered at commit %d = %d, want 0..%d", i, buffered[i], n-i-1)
		}
	}
	if got := bufferedG.Value(); got != 0 {
		t.Errorf("experiments_buffered = %d after completion, want 0", got)
	}
	if got := reg.Gauge("runner.experiments_total").Value(); got != int64(n) {
		t.Errorf("experiments_total = %d, want %d", got, n)
	}
	if got := reg.Gauge("runner.experiments_inflight").Value(); got != 0 {
		t.Errorf("experiments_inflight = %d after completion, want 0", got)
	}
	if got := reg.Gauge("runner.workers").Value(); got != 4 {
		t.Errorf("workers gauge = %d, want 4", got)
	}
}

// brokenFactor returns a factor whose high level produces an invalid
// cluster, so roughly half the campaign's runs fail at NewCluster.
func brokenFactor() Factor {
	return Factor{
		Name: "broken", Low: "ok", High: "broken",
		Apply: func(cfg *sim.ClusterConfig, level int) {
			if level == 1 {
				cfg.Server.CPU.Cores = 0 // NewCluster rejects this
			}
		},
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, in the style of the capture.Prober shutdown tests.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: %d > baseline %d", runtime.NumGoroutine(), base)
}

// TestStudyRunErrorStopsPool checks that a failing run cancels the pool,
// Run reports the failure, and no worker goroutine leaks.
func TestStudyRunErrorStopsPool(t *testing.T) {
	base := runtime.NumGoroutine()
	paper := PaperFactors()
	s := &Study{
		Base:           sim.DefaultClusterConfig(2),
		Factors:        []Factor{paper[0], brokenFactor()},
		TotalRate:      200000,
		ConnsPerClient: 4,
		Duration:       0.02,
		Warmup:         0.005,
		Replicates:     2,
		Quantiles:      []float64{0.99},
		Seed:           3,
		Workers:        4,
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("campaign with broken cells should fail")
	}
	waitForGoroutines(t, base)
}

// TestStudyRunContextCancel checks that cancelling the caller's context
// stops the pool cleanly: Run returns the context error and every worker
// exits.
func TestStudyRunContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s := parityStudy(5, 4, nil)
	done := 0
	s.Progress = func(d, total int) {
		done = d
		if d == 1 {
			cancel() // cancel mid-campaign, with runs still in flight
		}
	}
	_, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done == 0 {
		t.Fatal("expected at least one committed run before cancellation")
	}
	waitForGoroutines(t, base)
	cancel()
}

// anatomyCost runs the parity study at one worker with CollectAnatomy on and
// off and returns the bytes the anatomy path allocated (the on-minus-off
// TotalAlloc difference; both runs simulate the identical request stream) and
// the number of measured requests it reduced. A campaign reuses the storage
// an earlier one released, so a discarded run at the same duration fills the
// stores first: otherwise the off run would pay for growing them and the on
// run would not.
func anatomyCost(t *testing.T, duration float64) (bytes int64, requests uint64) {
	t.Helper()
	run := func(collect bool) (uint64, *Result) {
		s := parityStudy(1, 1, nil)
		s.Duration = duration
		s.CollectAnatomy = collect
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Run(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	run(false)
	off, _ := run(false)
	on, res := run(true)
	for _, b := range res.Anatomy {
		requests += b.Requests
	}
	return int64(on) - int64(off), requests
}

// TestCampaignAnatomyBytesPerRequest pins that collecting anatomy costs
// O(bins) per experiment, not O(requests): quadrupling the experiment length
// must leave the anatomy path's allocation where it was (a per-request buffer
// regrown by append costs ≈ 1 KB per request and grows 4.5× here).
func TestCampaignAnatomyBytesPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	testlock.CPUBound(t)
	short, _ := anatomyCost(t, 0.04)
	long, requests := anatomyCost(t, 0.16)
	t.Logf("anatomy path allocated %d B at Duration 0.04, %d B at 0.16 (%d measured requests, %.1f B each)",
		short, long, requests, float64(long)/float64(requests))
	if requests == 0 || short <= 0 {
		t.Fatalf("no anatomy cost measured: %d requests, %d B", requests, short)
	}
	if float64(long) > 1.5*float64(short) {
		t.Errorf("anatomy allocation grew %.2fx with a 4x longer experiment, want <= 1.5x", float64(long)/float64(short))
	}
	if perReq := float64(long) / float64(requests); perReq > 16 {
		t.Errorf("anatomy allocation is %.1f B per measured request, want <= 16", perReq)
	}
}

// BenchmarkStudyRunParallel times the smoke campaign at increasing worker
// counts; on a multi-core machine wall-clock should drop near-linearly
// while the output stays bit-identical. The anatomy sub-benchmark is the
// same campaign with the per-request observer on.
func BenchmarkStudyRunParallel(b *testing.B) {
	bench := func(name string, workers int, anatomy bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := parityStudy(1, workers, nil)
				s.CollectAnatomy = anatomy
				if _, err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		bench(fmt.Sprintf("workers=%d", w), w, false)
	}
	bench("anatomy/workers=1", 1, true)
}
