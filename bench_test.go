// Ablation benches for the design choices DESIGN.md calls out; each
// reports the contrast it exists to show as custom metrics. The paper's
// tables and figures are regenerated by cmd/tailbench (fig1 … fig12,
// table4), not here.
package treadmill_test

import (
	"context"
	"math"
	"testing"
	"time"

	"treadmill/internal/agg"
	"treadmill/internal/core"
	"treadmill/internal/dist"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/quantreg"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/workload"
)

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// BenchmarkAblationControlLoop contrasts open- vs closed-loop generation
// cost and reports the p99 each controller observes on the same simulated
// server (metrics "open_p99_us" / "closed_p99_us").
func BenchmarkAblationControlLoop(b *testing.B) {
	run := func(open bool, seed uint64) float64 {
		cfg := sim.DefaultClusterConfig(4)
		cfg.Server.CPU.Governor = sim.Performance
		cfg.Seed = seed
		cluster, err := sim.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var lats []float64
		for _, c := range cluster.Clients {
			c.OnComplete = func(r *sim.Request) {
				if r.Created > 0.02 {
					lats = append(lats, r.MeasuredLatency())
				}
			}
			if open {
				if err := c.StartOpenLoop(700000.0/4, 16); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := c.StartClosedLoop(30, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		cluster.Run(0.1)
		p99, err := stats.Quantile(lats, 0.99)
		if err != nil {
			b.Fatal(err)
		}
		return p99
	}
	var openP99, closedP99 float64
	for i := 0; i < b.N; i++ {
		openP99 = run(true, uint64(i)+1)
		closedP99 = run(false, uint64(i)+1)
	}
	b.ReportMetric(openP99*1e6, "open_p99_us")
	b.ReportMetric(closedP99*1e6, "closed_p99_us")
}

// BenchmarkAblationAggregation contrasts pooled vs per-instance quantile
// aggregation on a fleet with one deviant client.
func BenchmarkAblationAggregation(b *testing.B) {
	rng := dist.NewRNG(1)
	instances := make([][]float64, 4)
	srcs := make([]agg.QuantileSource, 4)
	for i := range instances {
		shift := 100e-6
		if i == 0 {
			shift = 250e-6 // remote-rack client
		}
		s := make([]float64, 20000)
		for j := range s {
			s[j] = shift + 10e-6*rng.Normal()
		}
		instances[i] = s
		srcs[i] = agg.Samples(s)
	}
	var pooled, per float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pooled, err = agg.Pooled(instances, 0.99)
		if err != nil {
			b.Fatal(err)
		}
		per, err = agg.PerInstance(srcs, 0.99, agg.Mean)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pooled*1e6, "pooled_p99_us")
	b.ReportMetric(per*1e6, "per_instance_p99_us")
}

// BenchmarkAblationHistogramBinning contrasts the adaptive histogram with
// the static-bucket design on a drifting latency stream, reporting the p99
// error of each against the exact quantile.
func BenchmarkAblationHistogramBinning(b *testing.B) {
	rng := dist.NewRNG(2)
	samples := make([]float64, 100000)
	for j := range samples {
		samples[j] = 100e-6 * (1 + float64(j)/2000) * (0.9 + 0.2*rng.Float64())
	}
	exact, _ := hist.ExactQuantile(samples, 0.99)
	var adaptiveErr, staticErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := hist.New(hist.Config{WarmupSamples: 0, CalibrationSamples: 1000, Bins: 2048, OverflowRebinFraction: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		st, err := hist.NewStatic(0, 1e-3, 2048)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range samples {
			if err := h.Record(v); err != nil {
				b.Fatal(err)
			}
			st.Record(v)
		}
		ap99, err := h.Quantile(0.99)
		if err != nil {
			b.Fatal(err)
		}
		sp99, err := st.Quantile(0.99)
		if err != nil {
			b.Fatal(err)
		}
		adaptiveErr = (ap99 - exact) / exact
		staticErr = (sp99 - exact) / exact
	}
	b.ReportMetric(adaptiveErr*100, "adaptive_p99_err_pct")
	b.ReportMetric(staticErr*100, "static_p99_err_pct")
}

// BenchmarkAblationHysteresis contrasts a single run against the
// repeated-run procedure, reporting the run-to-run spread the single-run
// design silently ignores.
func BenchmarkAblationHysteresis(b *testing.B) {
	runner := &core.SimRunner{
		Cluster:        func() sim.ClusterConfig { c := sim.DefaultClusterConfig(4); c.Server.RandomPlacement = true; return c }(),
		RatePerClient:  700000.0 / 4,
		ConnsPerClient: 4,
		Duration:       0.08,
		Warmup:         0.02,
	}
	cfg := core.DefaultConfig()
	cfg.Hist = hist.Config{WarmupSamples: 100, CalibrationSamples: 500, Bins: 2048, OverflowRebinFraction: 0.001}
	cfg.MinRuns, cfg.MaxRuns = 4, 5
	cfg.ConvergenceWindow = 2
	var spread float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		m, err := core.Measure(context.Background(), cfg, runner)
		if err != nil {
			b.Fatal(err)
		}
		spread = m.RelativeSpread()
	}
	b.ReportMetric(spread*100, "run_spread_pct")
}

// BenchmarkTCPMeasurement times the full measurement procedure against the
// real TCP server (the quickstart path).
func BenchmarkTCPMeasurement(b *testing.B) {
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	wl := workload.Default()
	wl.Keys = 100
	wl.ValueSize = workload.SizeDist{Kind: "constant", Value: 128}
	if err := loadgen.Preload(srv.Addr(), wl, 1); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MinRuns, cfg.MaxRuns = 2, 2
	cfg.ConvergenceWindow = 1
	cfg.ConvergenceTolerance = 0.5
	cfg.Hist.WarmupSamples = 50
	cfg.Hist.CalibrationSamples = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		_, err := core.Measure(context.Background(), cfg, &core.TCPRunner{
			Addr:        srv.Addr(),
			Instances:   2,
			PerInstance: loadgen.Options{Rate: 2000, Conns: 2, Workload: wl},
			Duration:    300 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// tailOnlyEffect is a one-factor, two-level response whose effect lives
// only in the tail: at a=1, 5% of requests suffer a 60-unit slowdown and the
// other 95% get slightly faster, so the mean barely moves.
func tailOnlyEffect() (x [][]float64, y []float64) {
	rng := dist.NewRNG(7)
	for i := 0; i < 4000; i++ {
		a := float64(i % 2)
		x = append(x, []float64{a})
		v := 100 + rng.Normal()
		if a == 1 {
			if rng.Float64() < 0.05 {
				v += 60
			} else {
				v -= 60.0 * 0.05 / 0.95
			}
		}
		y = append(y, v)
	}
	return x, y
}

// meanVsTailEffect estimates the factor's effect on the mean, as classic
// ANOVA does, and on the p99, as the paper's quantile regression does. On a
// one-factor two-level design the OLS/ANOVA effect is exactly
// mean(y|a=1) − mean(y|a=0) and its 1-df F-test is a two-sample test, which
// the permutation test stands in for.
func meanVsTailEffect(tb testing.TB, x [][]float64, y []float64) (meanEst, meanP, qrEst, qrP float64) {
	tb.Helper()
	var groups [2][]float64
	for i, row := range x {
		groups[int(row[0])] = append(groups[int(row[0])], y[i])
	}
	meanEst, meanP, err := stats.MeanDiffPermutation(groups[0], groups[1], 2000, dist.NewRNG(8))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := quantreg.FullFactorialModel([]string{"a"})
	if err != nil {
		tb.Fatal(err)
	}
	qr, err := quantreg.Fit(m, x, y, 0.99, quantreg.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ca, _ := qr.Coef("a")
	return meanEst, meanP, ca.Est, ca.P
}

// TestANOVAMissesTailEffect is the paper's argument for quantile regression
// (§IV-A): a factor that only affects the tail is invisible to a mean model
// but recovered by a p99 fit.
func TestANOVAMissesTailEffect(t *testing.T) {
	x, y := tailOnlyEffect()
	meanEst, meanP, qrEst, qrP := meanVsTailEffect(t, x, y)
	t.Logf("mean contrast %.7g (permutation p=%.3g), p99 effect %.4g (exact bootstrap p=%.3g)", meanEst, meanP, qrEst, qrP)
	if math.Abs(meanEst) > 0.5 || meanP <= 0.05 {
		t.Errorf("mean contrast %.4g (permutation p=%.3g) flagged the mean-neutral tail effect; construction broken", meanEst, meanP)
	}
	if qrEst < 50 || qrEst > 70 {
		t.Errorf("p99 quantile regression effect = %.4g, want within [50, 70] (true +60)", qrEst)
	}
	if qrP > 0.01 {
		t.Errorf("p99 quantile regression missed the tail effect (p=%.3g)", qrP)
	}
}

// BenchmarkAblationANOVAvsQuantreg contrasts the paper's chosen technique
// with the classic ANOVA baseline on a response whose factor effect lives
// only in the tail: the mean model reports an insignificant effect while
// p99 quantile regression recovers it (metrics are the recovered effect
// sizes).
func BenchmarkAblationANOVAvsQuantreg(b *testing.B) {
	x, y := tailOnlyEffect()
	var meanEst, qrEst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meanEst, _, qrEst, _ = meanVsTailEffect(b, x, y)
	}
	b.ReportMetric(meanEst, "anova_mean_effect")
	b.ReportMetric(qrEst, "quantreg_p99_effect")
}
