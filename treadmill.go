// Package treadmill is a statistically rigorous tail-latency measurement
// and attribution toolkit — a reproduction of "Treadmill: Attributing the
// Source of Tail Latency through Precise Load Testing and Statistical
// Inference" (Zhang, Meisner, Mars, Tang; ISCA 2016).
//
// The package is a facade over the implementation packages. It exposes:
//
//   - the measurement engine (Measure): open-loop load over multiple
//     lightly-utilized instances, warm-up/calibration/measurement phases,
//     per-instance quantile aggregation, and repeated runs until the
//     estimate converges despite performance hysteresis;
//   - load generation over real TCP against any memcached-protocol server
//     (NewOpenLoop / NewClosedLoop, plus the bundled Server and Router);
//   - the discrete-event testbed simulator used for the paper's hardware
//     attribution study (SimCluster, the runner.Study campaign driver);
//   - quantile regression with factorial interaction models
//     (FitQuantileRegression) for attributing tail latency to factors.
//
// See examples/ for complete programs and DESIGN.md for the system map.
package treadmill

import (
	"context"

	"treadmill/internal/agg"
	"treadmill/internal/core"
	"treadmill/internal/dist"
	"treadmill/internal/loadgen"
	"treadmill/internal/quantreg"
	"treadmill/internal/router"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/workload"
)

// Measurement engine (internal/core).
type (
	// Config controls the Treadmill measurement procedure.
	Config = core.Config
	// Measurement is the outcome: converged estimates plus per-run detail.
	Measurement = core.Measurement
	// Runner produces per-instance latency streams for one experiment run.
	Runner = core.Runner
	// RunnerFunc adapts a function to Runner.
	RunnerFunc = core.RunnerFunc
	// TCPRunner drives a real memcached-protocol endpoint.
	TCPRunner = core.TCPRunner
	// SimRunner drives the discrete-event testbed simulator.
	SimRunner = core.SimRunner
)

// DefaultConfig returns the paper-shaped measurement procedure.
func DefaultConfig() Config { return core.DefaultConfig() }

// Measure executes the full Treadmill procedure: repeated experiment runs,
// per-instance quantile extraction, cross-instance combination, and
// convergence detection on the primary quantile.
func Measure(ctx context.Context, cfg Config, r Runner) (*Measurement, error) {
	return core.Measure(ctx, cfg, r)
}

// Load generation (internal/loadgen, internal/workload).
type (
	// LoadOptions configures a load generator.
	LoadOptions = loadgen.Options
	// OpenLoop is the precisely-timed Poisson (open-loop) generator.
	OpenLoop = loadgen.OpenLoop
	// ClosedLoop is the worker-thread (closed-loop) generator, provided to
	// quantify its bias.
	ClosedLoop = loadgen.ClosedLoop
	// Workload describes the request mix (JSON-configurable).
	Workload = workload.Config
)

// NewOpenLoop connects an open-loop generator to addr.
func NewOpenLoop(addr string, opts LoadOptions) (*OpenLoop, error) {
	return loadgen.NewOpenLoop(addr, opts)
}

// NewClosedLoop connects a closed-loop generator to addr.
func NewClosedLoop(addr string, opts LoadOptions) (*ClosedLoop, error) {
	return loadgen.NewClosedLoop(addr, opts)
}

// DefaultWorkload returns the GET-dominated mixed workload.
func DefaultWorkload() Workload { return workload.Default() }

// LoadWorkload reads a workload description from a JSON file.
func LoadWorkload(path string) (Workload, error) { return workload.Load(path) }

// Preload stores a workload's full key space on the server so GETs hit.
func Preload(addr string, wl Workload, seed uint64) error {
	return loadgen.Preload(addr, wl, seed)
}

// Capacity planning (internal/loadgen).
type (
	// SLO is a latency objective at one quantile.
	SLO = loadgen.SLO
	// SweepOptions configures Sweep and FindCapacity.
	SweepOptions = loadgen.SweepOptions
	// SweepPoint is one measured operating point.
	SweepPoint = loadgen.SweepPoint
)

// Sweep measures the latency-vs-load curve at the given rates.
func Sweep(ctx context.Context, addr string, rates []float64, opts SweepOptions) ([]SweepPoint, error) {
	return loadgen.Sweep(ctx, addr, rates, opts)
}

// FindCapacity binary-searches for the highest rate that meets the SLO.
func FindCapacity(ctx context.Context, addr string, lo, hi float64, opts SweepOptions) (SweepPoint, bool, error) {
	return loadgen.FindCapacity(ctx, addr, lo, hi, opts)
}

// Servers (internal/server, internal/router).
type (
	// Server is the bundled memcached-protocol key-value server.
	Server = server.Server
	// ServerConfig configures it.
	ServerConfig = server.Config
	// Router is the bundled mcrouter-style protocol router.
	Router = router.Router
	// RouterConfig configures it.
	RouterConfig = router.Config
)

// NewServer creates a key-value server (call Start to listen).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// DefaultServerConfig returns a production-shaped server configuration on
// an ephemeral localhost port.
func DefaultServerConfig() ServerConfig { return server.DefaultConfig() }

// NewRouter creates a protocol router over the given backends.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// DefaultRouterConfig returns a router configuration for the backends.
func DefaultRouterConfig(backends []string) RouterConfig { return router.DefaultConfig(backends) }

// Simulator (internal/sim).
type (
	// SimCluster is the discrete-event testbed: clients, links, and a
	// server with NUMA / Turbo / DVFS / NIC-affinity models.
	SimCluster = sim.Cluster
	// SimClusterConfig wires a testbed.
	SimClusterConfig = sim.ClusterConfig
	// SimRequest is one simulated request with all measurement-point
	// timestamps (load-tester view, wire view, server view). The pointer a
	// client's OnComplete receives is valid until the callback returns (the
	// client reuses the record); copy the struct to keep it.
	SimRequest = sim.Request
)

// NewSimCluster instantiates a simulated testbed.
func NewSimCluster(cfg SimClusterConfig) (*SimCluster, error) { return sim.NewCluster(cfg) }

// DefaultSimCluster returns the default testbed shape with n clients.
func DefaultSimCluster(n int) SimClusterConfig { return sim.DefaultClusterConfig(n) }

// Statistical inference (internal/quantreg, internal/agg).
type (
	// QuantRegModel describes regression terms (factors + interactions).
	QuantRegModel = quantreg.Model
	// QuantRegOptions configures the fit.
	QuantRegOptions = quantreg.Options
	// QuantRegResult is a fitted quantile regression.
	QuantRegResult = quantreg.Result
	// Combine selects how per-instance metrics are reduced.
	Combine = agg.Combine
)

// Cross-instance combinators.
const (
	CombineMean   = agg.Mean
	CombineMedian = agg.Median
	CombineMax    = agg.Max
)

// FullFactorialModel builds the model with all interactions over the named
// factors (paper Eq. 1).
func FullFactorialModel(factors []string) (*QuantRegModel, error) {
	return quantreg.FullFactorialModel(factors)
}

// FitQuantileRegression estimates the conditional tau-quantile of y given
// the raw factor rows x.
func FitQuantileRegression(m *QuantRegModel, x [][]float64, y []float64, tau float64, opts QuantRegOptions) (*QuantRegResult, error) {
	return quantreg.Fit(m, x, y, tau, opts)
}

// NewRNG returns a seeded random stream compatible with every option
// struct in this module.
func NewRNG(seed uint64) *dist.RNG { return dist.NewRNG(seed) }
