// Benchmarks that regenerate every table and figure of the paper's
// evaluation (at Quick scale; use cmd/tailbench -scale full for
// paper-sized campaigns), plus ablation benches for the design choices
// DESIGN.md calls out. Reported ns/op is the cost of regenerating the
// experiment end to end.
package treadmill_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"treadmill/internal/agg"
	"treadmill/internal/anova"
	"treadmill/internal/core"
	"treadmill/internal/dist"
	"treadmill/internal/experiments"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/quantreg"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/workload"
)

// attribution campaigns are expensive; share them across the benches that
// consume them (Table IV, Figs. 7-12).
var (
	attrOnce      sync.Once
	attrMemcached *experiments.Attribution
	attrMcrouter  *experiments.Attribution
	attrErr       error
)

func attributions(b *testing.B) (*experiments.Attribution, *experiments.Attribution) {
	b.Helper()
	attrOnce.Do(func() {
		s := experiments.Quick()
		attrMemcached, attrErr = experiments.RunAttribution(context.Background(), s, "memcached")
		if attrErr != nil {
			return
		}
		attrMcrouter, attrErr = experiments.RunAttribution(context.Background(), s, "mcrouter")
	})
	if attrErr != nil {
		b.Fatal(attrErr)
	}
	return attrMemcached, attrMcrouter
}

func BenchmarkFig1OutstandingRequests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ClientDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig2(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3ClientQueueingBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig3(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Hysteresis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig4(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5LowUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6HighUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig6(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4QuantileRegression(b *testing.B) {
	mem, _ := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table4(mem); len(tab.Rows) != 16 {
			b.Fatalf("%d rows", len(tab.Rows))
		}
	}
}

func BenchmarkFig7MemcachedEstimates(b *testing.B) {
	mem, _ := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8MemcachedMarginal(b *testing.B) {
	mem, _ := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9McrouterEstimates(b *testing.B) {
	_, mcr := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(mcr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10McrouterMarginal(b *testing.B) {
	_, mcr := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(mcr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PseudoR2(b *testing.B) {
	mem, mcr := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig11(mem, mcr); len(tab.Rows) != 4 {
			b.Fatalf("%d rows", len(tab.Rows))
		}
	}
}

func BenchmarkFig12Tuning(b *testing.B) {
	mem, _ := attributions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig12(mem); err != nil {
			b.Fatal(err)
		}
	}
}

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

// BenchmarkAblationQuantregSolver contrasts the quantile regression solvers on
// the paper-shaped 480x16 problem: the closed form the default path takes on
// this saturated design, IRLS (which the same path takes once the model stops
// short of the 4-way term: 480x15) and the exact simplex.
func BenchmarkAblationQuantregSolver(b *testing.B) {
	rng := dist.NewRNG(3)
	names := []string{"numa", "turbo", "dvfs", "nic"}
	full, err := quantreg.FullFactorialModel(names)
	if err != nil {
		b.Fatal(err)
	}
	upTo3Way, err := quantreg.FactorialModel(names, 3)
	if err != nil {
		b.Fatal(err)
	}
	var x [][]float64
	var y []float64
	for rep := 0; rep < 30; rep++ {
		for mask := 0; mask < 16; mask++ {
			row := []float64{float64(mask & 1), float64(mask >> 1 & 1), float64(mask >> 2 & 1), float64(mask >> 3 & 1)}
			x = append(x, row)
			y = append(y, 355+56*row[0]-29*row[1]-8*row[2]+29*row[3]+10*rng.Normal())
		}
	}
	for _, arm := range []struct {
		name      string
		model     *quantreg.Model
		solver    quantreg.Solver
		iterative bool
	}{
		{"closed-form", full, quantreg.IRLS, false},
		{quantreg.IRLS.String(), upTo3Way, quantreg.IRLS, true},
		{quantreg.Simplex.String(), full, quantreg.Simplex, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := quantreg.Fit(arm.model, x, y, 0.99, quantreg.Options{Solver: arm.solver})
				if err != nil {
					b.Fatal(err)
				}
				if (res.Iterations > 0) != arm.iterative {
					b.Fatalf("%s: %d iterations", arm.name, res.Iterations)
				}
			}
		})
	}
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

// BenchmarkAblationANOVAvsQuantreg contrasts the paper's chosen technique
// with the classic ANOVA baseline on a response whose factor effect lives
// only in the tail: ANOVA (mean model) reports an insignificant effect
// while p99 quantile regression recovers it (metrics are the recovered
// effect sizes).
func BenchmarkAblationANOVAvsQuantreg(b *testing.B) {
	rng := dist.NewRNG(7)
	m, err := quantreg.FullFactorialModel([]string{"a"})
	if err != nil {
		b.Fatal(err)
	}
	var x [][]float64
	var y []float64
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
	var anovaEst, qrEst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		av, err := anova.Fit(m, x, y)
		if err != nil {
			b.Fatal(err)
		}
		ea, _ := av.Effect("a")
		anovaEst = ea.Est
		qr, err := quantreg.Fit(m, x, y, 0.99, quantreg.Options{Solver: quantreg.IRLS})
		if err != nil {
			b.Fatal(err)
		}
		ca, _ := qr.Coef("a")
		qrEst = ca.Est
	}
	b.ReportMetric(anovaEst, "anova_mean_effect")
	b.ReportMetric(qrEst, "quantreg_p99_effect")
}
