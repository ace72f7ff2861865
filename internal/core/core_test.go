package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"treadmill/internal/dist"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/testlock"
	"treadmill/internal/workload"
)

// syntheticRunner produces lognormal streams; optional perRunShift makes
// each run converge to a different value (hysteresis).
func syntheticRunner(instances, samples int, perRunShift float64) Runner {
	return RunnerFunc(func(_ context.Context, run int, seed uint64) ([][]float64, error) {
		rng := dist.NewRNG(seed)
		shift := 1 + perRunShift*float64(run%4)
		l := dist.LognormalFromMoments(100e-6*shift, 0.5)
		streams := make([][]float64, instances)
		for i := range streams {
			s := make([]float64, samples)
			for j := range s {
				s[j] = l.Sample(rng)
			}
			streams[i] = s
		}
		return streams, nil
	})
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Hist = hist.Config{WarmupSamples: 100, CalibrationSamples: 500, Bins: 1024, OverflowRebinFraction: 0.001}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Quantiles = nil },
		func(c *Config) { c.Quantiles = []float64{1.5}; c.PrimaryQuantile = 1.5 },
		func(c *Config) { c.PrimaryQuantile = 0.42 },
		func(c *Config) { c.MinRuns = 0 },
		func(c *Config) { c.MaxRuns = 1; c.MinRuns = 5 },
		func(c *Config) { c.ConvergenceWindow = 0 },
		func(c *Config) { c.ConvergenceTolerance = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := Measure(context.Background(), cfg, syntheticRunner(2, 1000, 0)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMeasureConvergesOnStableSystem(t *testing.T) {
	cfg := smallCfg()
	m, err := Measure(context.Background(), cfg, syntheticRunner(4, 20000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Error("stable system did not converge")
	}
	if len(m.Runs) > cfg.MaxRuns {
		t.Errorf("ran %d times", len(m.Runs))
	}
	// Known distribution: P50 of lognormal(mean 100µs, cv²=0.5) is
	// mean/sqrt(1+cv²) ≈ 81.6µs.
	p50 := m.Estimate[0.5]
	if p50 < 70e-6 || p50 > 95e-6 {
		t.Errorf("p50 = %g, want ~82µs", p50)
	}
	if m.Estimate[0.99] <= m.Estimate[0.95] || m.Estimate[0.95] <= m.Estimate[0.5] {
		t.Error("quantile estimates not monotone")
	}
	if m.TotalSamples == 0 {
		t.Error("no samples counted")
	}
}

func TestMeasureDetectsHysteresis(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxRuns = 12
	// Strong per-run shifts: estimates differ by up to 60% across runs.
	m, err := Measure(context.Background(), cfg, syntheticRunner(2, 20000, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if m.RelativeSpread() < 0.2 {
		t.Errorf("relative spread = %g, expected large hysteresis", m.RelativeSpread())
	}
	if len(m.Runs) < cfg.MinRuns {
		t.Errorf("only %d runs", len(m.Runs))
	}
	// The final estimate must average across runs, not report one run.
	per := m.PerRun(0.99)
	lo, hi := per[0], per[0]
	for _, v := range per {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if est := m.Estimate[0.99]; est <= lo || est >= hi {
		t.Errorf("estimate %g not strictly inside per-run range [%g, %g]", est, lo, hi)
	}
}

func TestMeasureRunnerError(t *testing.T) {
	boom := errors.New("boom")
	r := RunnerFunc(func(context.Context, int, uint64) ([][]float64, error) { return nil, boom })
	if _, err := Measure(context.Background(), smallCfg(), r); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestMeasureEmptyStreams(t *testing.T) {
	r := RunnerFunc(func(context.Context, int, uint64) ([][]float64, error) {
		return [][]float64{{}}, nil
	})
	if _, err := Measure(context.Background(), smallCfg(), r); err == nil {
		t.Error("empty instance stream should error")
	}
	r2 := RunnerFunc(func(context.Context, int, uint64) ([][]float64, error) {
		return nil, nil
	})
	if _, err := Measure(context.Background(), smallCfg(), r2); err == nil {
		t.Error("no streams should error")
	}
}

func TestMeasureContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Measure(ctx, smallCfg(), syntheticRunner(1, 1000, 0)); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestMeasureWarmupDiscard(t *testing.T) {
	// First WarmupSamples of each stream are poisoned; they must not
	// affect the estimates.
	r := RunnerFunc(func(_ context.Context, _ int, seed uint64) ([][]float64, error) {
		rng := dist.NewRNG(seed)
		s := make([]float64, 30000)
		for j := range s {
			if j < 100 {
				s[j] = 10 // absurd warm-up latency
			} else {
				s[j] = 100e-6 * (0.8 + 0.4*rng.Float64())
			}
		}
		return [][]float64{s}, nil
	})
	cfg := smallCfg()
	m, err := Measure(context.Background(), cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Estimate[0.99] > 1e-3 {
		t.Errorf("p99 = %g; warm-up samples leaked into the estimate", m.Estimate[0.99])
	}
}

func TestSimRunnerProducesStreams(t *testing.T) {
	r := &SimRunner{
		Cluster:        sim.DefaultClusterConfig(4),
		RatePerClient:  100000.0 / 4,
		ConnsPerClient: 8,
		Duration:       0.2,
		Warmup:         0.05,
	}
	streams, err := r.RunOnce(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 4 {
		t.Fatalf("%d streams", len(streams))
	}
	for i, s := range streams {
		if len(s) < 500 {
			t.Errorf("instance %d has only %d samples", i, len(s))
		}
		for _, v := range s {
			if v <= 0 {
				t.Fatalf("non-positive latency %g", v)
			}
		}
	}
}

func TestSimRunnerValidation(t *testing.T) {
	r := &SimRunner{Cluster: sim.DefaultClusterConfig(1)}
	if _, err := r.RunOnce(context.Background(), 0, 1); err == nil {
		t.Error("unconfigured sim runner should error")
	}
}

func TestSimHysteresisAcrossRuns(t *testing.T) {
	testlock.CPUBound(t)
	// With random placement and NUMA same-node, different seeds converge
	// to different P99s — the Fig. 4 phenomenon.
	cluster := sim.DefaultClusterConfig(4)
	cluster.Server.RandomPlacement = true
	cluster.Server.CPU.Governor = sim.Performance
	r := &SimRunner{
		Cluster:        cluster,
		RatePerClient:  700000.0 / 4,
		ConnsPerClient: 4, // few connections: placement luck matters
		Duration:       0.3,
		Warmup:         0.05,
	}
	cfg := smallCfg()
	cfg.MinRuns = 4
	cfg.MaxRuns = 6
	cfg.ConvergenceWindow = 2
	m, err := Measure(context.Background(), cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.RelativeSpread() < 0.03 {
		t.Errorf("relative spread = %g; expected visible run-to-run variation", m.RelativeSpread())
	}
}

func TestTCPRunnerEndToEnd(t *testing.T) {
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wl := workload.Default()
	wl.Keys = 100
	wl.ValueSize = workload.SizeDist{Kind: "constant", Value: 64}
	if err := loadgen.Preload(srv.Addr(), wl, 1); err != nil {
		t.Fatal(err)
	}
	r := &TCPRunner{
		Addr:        srv.Addr(),
		Instances:   2,
		PerInstance: loadgen.Options{Rate: 2000, Conns: 2, Workload: wl},
		Duration:    500 * time.Millisecond,
	}
	streams, err := r.RunOnce(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 {
		t.Fatalf("%d streams", len(streams))
	}
	for i, s := range streams {
		if len(s) < 300 {
			t.Errorf("instance %d: %d samples", i, len(s))
		}
	}
}

func TestTCPRunnerValidation(t *testing.T) {
	r := &TCPRunner{Instances: 0, Duration: time.Second}
	if _, err := r.RunOnce(context.Background(), 0, 1); err == nil {
		t.Error("0 instances should error")
	}
	r = &TCPRunner{Instances: 1, Duration: 0}
	if _, err := r.RunOnce(context.Background(), 0, 1); err == nil {
		t.Error("0 duration should error")
	}
	r = &TCPRunner{
		Instances:   1,
		Duration:    time.Second,
		Addr:        "127.0.0.1:1",
		PerInstance: loadgen.Options{Rate: 10, Conns: 1, Workload: workload.Default()},
	}
	if _, err := r.RunOnce(context.Background(), 0, 1); err == nil {
		t.Error("dead address should error")
	}
}

func TestTCPRunnerRestartHook(t *testing.T) {
	// Each run restarts the server; the measurement must follow the new
	// address.
	var current *server.Server
	restarts := 0
	restart := func() (string, error) {
		if current != nil {
			current.Close()
		}
		s, err := server.New(server.DefaultConfig())
		if err != nil {
			return "", err
		}
		if err := s.Start(); err != nil {
			return "", err
		}
		wl := workload.Default()
		wl.Keys = 50
		wl.ValueSize = workload.SizeDist{Kind: "constant", Value: 32}
		if err := loadgen.Preload(s.Addr(), wl, 1); err != nil {
			return "", err
		}
		current = s
		restarts++
		return s.Addr(), nil
	}
	defer func() {
		if current != nil {
			current.Close()
		}
	}()

	wl := workload.Default()
	wl.Keys = 50
	wl.ValueSize = workload.SizeDist{Kind: "constant", Value: 32}
	r := &TCPRunner{
		Instances:   1,
		PerInstance: loadgen.Options{Rate: 3000, Conns: 2, Workload: wl},
		Duration:    300 * time.Millisecond,
		Restart:     restart,
	}
	cfg := smallCfg()
	cfg.MinRuns = 2
	cfg.MaxRuns = 3
	cfg.ConvergenceWindow = 1
	cfg.ConvergenceTolerance = 0.5
	cfg.Hist.WarmupSamples = 50
	cfg.Hist.CalibrationSamples = 200
	m, err := Measure(context.Background(), cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if restarts != len(m.Runs) {
		t.Errorf("restarted %d times for %d runs", restarts, len(m.Runs))
	}
}

func TestPerRunOrdering(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxRuns = 6
	m, err := Measure(context.Background(), cfg, syntheticRunner(2, 5000, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	per := m.PerRun(0.5)
	if len(per) != len(m.Runs) {
		t.Fatalf("per-run length %d vs %d runs", len(per), len(m.Runs))
	}
	for i, r := range m.Runs {
		if per[i] != r.ByQuantile[0.5] {
			t.Errorf("run %d mismatch", i)
		}
	}
}

func ExampleMeasure() {
	runner := RunnerFunc(func(_ context.Context, _ int, seed uint64) ([][]float64, error) {
		rng := dist.NewRNG(seed)
		l := dist.LognormalFromMoments(100e-6, 0.5)
		streams := make([][]float64, 2)
		for i := range streams {
			s := make([]float64, 20000)
			for j := range s {
				s[j] = l.Sample(rng)
			}
			streams[i] = s
		}
		return streams, nil
	})
	cfg := DefaultConfig()
	cfg.Hist.WarmupSamples = 100
	cfg.Hist.CalibrationSamples = 500
	m, err := Measure(context.Background(), cfg, runner)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("converged:", m.Converged)
	// Output: converged: true
}
