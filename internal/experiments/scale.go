// Package experiments regenerates every table and figure from the paper's
// evaluation. Each experiment is a pure function of a Scale (paper-sized or
// quick) and a seed, returning report structures; cmd/tailbench prints
// them and bench_test.go times them.
package experiments

import (
	"treadmill/internal/sim"
	"treadmill/internal/telemetry"
)

// Scale sizes the experiments. Full reproduces the paper's sample sizes;
// Quick runs the same code paths in seconds for tests and benchmarks.
type Scale struct {
	Name string
	// Duration / Warmup are simulated seconds per experiment run.
	Duration, Warmup float64
	// Replicates per factorial permutation (paper: >= 30).
	Replicates int
	// HysteresisRuns for Fig. 4 (paper shows 4).
	HysteresisRuns int
	// TuningRuns per arm for Fig. 12 (paper: 100).
	TuningRuns int
	// Seed makes every experiment deterministic.
	Seed uint64
	// Workers bounds campaign-level parallelism: concurrent factorial
	// experiments inside each study (runner.Study.Workers) and concurrent
	// tuning-evaluation runs. Results are bit-identical for any value. 0
	// means GOMAXPROCS.
	Workers int
	// Telemetry, when non-nil, receives live campaign-progress gauges
	// from the studies this scale drives (see runner.Study.Telemetry).
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives per-factorial-cell anatomy events
	// from attribution campaigns (see runner.Study.Journal).
	Journal *telemetry.Journal
}

// Quick returns a scale that exercises every code path in seconds.
func Quick() Scale {
	return Scale{
		Name:           "quick",
		Duration:       0.08,
		Warmup:         0.02,
		Replicates:     2,
		HysteresisRuns: 3,
		TuningRuns:     6,
		Seed:           1,
	}
}

// Full returns the paper-sized scale (2⁴ × 30 = 480 factorial experiments,
// 100-run tuning arms). Budget several minutes per attribution figure.
func Full() Scale {
	return Scale{
		Name:           "full",
		Duration:       0.25,
		Warmup:         0.05,
		Replicates:     30,
		HysteresisRuns: 4,
		TuningRuns:     100,
		Seed:           1,
	}
}

// Offered loads, matching the paper's setup: 100k RPS ≈ 10% utilization,
// 800k ≈ 80% (§III-C); the factorial study runs at 70% ("high") and 15%
// ("low") like §V.
const (
	rate10pct = 100000.0
	rate80pct = 800000.0
	lowRate   = 150000.0
	highRate  = 700000.0
	// mcrouter's per-request CPU demand is higher, so the same utilization
	// levels correspond to lower request rates.
	mcrouterLowRate  = 130000.0
	mcrouterHighRate = 600000.0
)

// clientFleet is the paper's 8-client Treadmill fleet.
const clientFleet = 8

// baseCluster returns the default testbed with n clients and a stable
// server configuration (factors all at a fixed reference level) for the
// measurement-fidelity experiments (Figs. 1-6).
func baseCluster(n int, seed uint64) sim.ClusterConfig {
	cfg := sim.DefaultClusterConfig(n)
	cfg.Server.CPU.Governor = sim.Performance
	cfg.Server.CPU.TurboEnabled = false
	cfg.Seed = seed
	return cfg
}

// factorialCluster returns the testbed template for the attribution study
// (Figs. 7-12, Table IV): factors start at low level; the runner mutates
// copies per experiment. Random placement models server restarts.
func factorialCluster(seed uint64) sim.ClusterConfig {
	cfg := sim.DefaultClusterConfig(clientFleet)
	cfg.Server.RandomPlacement = true
	cfg.Seed = seed
	return cfg
}
