// Package runner drives the tail-latency attribution study (paper §IV-V):
// a 2-level full factorial over the four hardware factors (Table III),
// with randomized experiment order, at least 30 replicates per
// permutation, per-experiment quantile extraction via the Treadmill
// procedure, and quantile-regression fits over the collected samples.
package runner

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"treadmill/internal/agg"
	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/quantreg"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/telemetry"
)

// Factor is one 2-level experimental factor.
type Factor struct {
	Name string
	// Low and High label the two levels as in the paper's Table III.
	Low, High string
	// Apply configures a cluster for the given level (0 or 1).
	Apply func(cfg *sim.ClusterConfig, level int)
}

// PaperFactors returns the paper's four factors with their Table III
// levels, mapped onto the simulator's knobs.
func PaperFactors() []Factor {
	return []Factor{
		{
			Name: "numa", Low: "same-node", High: "interleave",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				if level == 0 {
					cfg.Server.NUMA = sim.NUMASameNode
				} else {
					cfg.Server.NUMA = sim.NUMAInterleave
				}
			},
		},
		{
			Name: "turbo", Low: "off", High: "on",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				cfg.Server.CPU.TurboEnabled = level == 1
			},
		},
		{
			Name: "dvfs", Low: "ondemand", High: "performance",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				if level == 0 {
					cfg.Server.CPU.Governor = sim.Ondemand
				} else {
					cfg.Server.CPU.Governor = sim.Performance
				}
			},
		},
		{
			Name: "nic", Low: "same-node", High: "all-nodes",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				if level == 0 {
					cfg.Server.NICAffinity = sim.NICSameNode
				} else {
					cfg.Server.NICAffinity = sim.NICAllNodes
				}
			},
		},
	}
}

// Permutations enumerates all 2^k level assignments.
func Permutations(k int) [][]int {
	out := make([][]int, 0, 1<<k)
	for mask := 0; mask < 1<<k; mask++ {
		levels := make([]int, k)
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				levels[i] = 1
			}
		}
		out = append(out, levels)
	}
	return out
}

// Sample is one experiment outcome: the factor levels and the measured
// latency quantiles (per the Treadmill per-instance aggregation).
type Sample struct {
	Levels    []int
	Quantiles map[float64]float64
}

// Study configures the attribution experiment campaign.
type Study struct {
	// Base is the cluster template (workload, client fleet, service
	// model); factor Apply functions mutate copies of it.
	Base sim.ClusterConfig
	// Factors are the experimental factors (default: PaperFactors).
	Factors []Factor
	// TotalRate is the offered load, split evenly over the clients.
	TotalRate float64
	// ConnsPerClient is each client's connection count.
	ConnsPerClient int
	// Duration / Warmup are simulated seconds per experiment.
	Duration, Warmup float64
	// Replicates is the number of experiments per permutation (the paper
	// uses >= 30).
	Replicates int
	// Quantiles to extract per experiment.
	Quantiles []float64
	// Seed drives experiment-order randomization and per-run seeds.
	Seed uint64
	// Progress, when non-nil, receives (done, total) after each
	// experiment.
	Progress func(done, total int)
	// Telemetry, when non-nil, exposes campaign progress as live gauges
	// (runner.experiments_done, runner.experiments_total) so a long
	// full-scale campaign can be watched over the exposition endpoint.
	Telemetry *telemetry.Registry
	// Workers bounds how many experiments run concurrently. Each experiment
	// is an isolated, seed-deterministic simulation, so the campaign is
	// embarrassingly parallel; results are committed in schedule order —
	// anatomy as one per-experiment aggregate merged into its cell's — so
	// Result, anatomy breakdowns, journal events, and Progress callbacks
	// are bit-identical for every worker count. 0 means GOMAXPROCS.
	Workers int
	// CollectAnatomy accumulates every request's phase decomposition into
	// one tail-vs-body breakdown per factorial cell (Result.Anatomy) —
	// the mechanistic complement to the regression's statistical
	// attribution.
	CollectAnatomy bool
	// Journal, when non-nil (and CollectAnatomy set), receives one
	// "anatomy" event per factorial cell after the campaign.
	Journal *telemetry.Journal
}

func (s *Study) validate() error {
	if s.TotalRate <= 0 || s.ConnsPerClient < 1 || s.Duration <= 0 || s.Warmup < 0 {
		return fmt.Errorf("runner: need positive rate/conns/duration")
	}
	if len(s.Base.Clients) == 0 {
		return fmt.Errorf("runner: base cluster needs clients")
	}
	return s.campaign().validate()
}

// Result is a completed campaign.
type Result struct {
	Factors   []string
	Quantiles []float64
	Samples   []Sample
	// Anatomy maps each factorial cell (LevelsKey) to its tail-vs-body
	// phase breakdown, merged over the cell's replicates. Nil unless the
	// study set CollectAnatomy.
	Anatomy map[string]*anatomy.Breakdown
}

// campaign maps the study onto the shared campaign engine.
func (s *Study) campaign() *campaign {
	c := &campaign{
		replicates: s.Replicates,
		quantiles:  s.Quantiles,
		seed:       s.Seed,
		workers:    s.Workers,
		journal:    s.Journal,
		progress:   s.Progress,
		telemetry:  s.Telemetry,
	}
	for _, f := range s.Factors {
		c.factors = append(c.factors, f.Name)
	}
	if s.CollectAnatomy {
		c.anatomySource = anatomy.SourceSim
	}
	return c
}

// Run executes the campaign: Replicates × 2^k experiments in randomized
// order (preserving independence between consecutive experiments, §V-A).
//
// Experiments run on a bounded worker pool (see Workers); every run is an
// isolated simulation with a schedule-index-derived seed, and outcomes are
// committed in schedule order, so the returned Result — samples, per-cell
// anatomy, journal event sequence, Progress callbacks — is bit-identical
// for any worker count. The first failing run cancels the pool, and Run
// returns only after every worker has stopped (no goroutine leaks).
func (s *Study) Run(ctx context.Context) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s.campaign().run(ctx, func(_ context.Context, _ int, levels []int, seed uint64, record func(float64, anatomy.Vec)) (Sample, error) {
		return s.runConfig(levels, seed, record)
	})
}

// RunConfig performs one experiment: fresh cluster, configured levels,
// open-loop load, per-instance quantile extraction, mean combination. It
// is exported so the tuning evaluation (Fig. 12) can replay individual
// configurations outside a full campaign — such replays deliberately do
// not feed the per-cell anatomy aggregation.
func (s *Study) RunConfig(levels []int, seed uint64) (Sample, error) {
	return s.runConfig(levels, seed, nil)
}

// runConfig is RunConfig with an optional record callback that receives
// every post-warmup request's (total latency, phase vector) pair, in
// completion order. Run passes the experiment's own aggregator's Record,
// so nothing per-request is retained for anatomy.
func (s *Study) runConfig(levels []int, seed uint64, record func(total float64, v anatomy.Vec)) (Sample, error) {
	cfg := s.Base
	// Deep-enough copy of the mutable parts factor Apply functions touch.
	cfg.Clients = append([]sim.ClientSpec(nil), s.Base.Clients...)
	for i, f := range s.Factors {
		f.Apply(&cfg, levels[i])
	}
	cfg.Seed = seed
	cluster, err := sim.NewCluster(cfg)
	if err != nil {
		return Sample{}, err
	}
	// The samples are read out by newSample before these return the
	// cluster's storage and the sample buffers for the next experiment.
	defer cluster.Release()
	perClient := drawSamples(len(cluster.Clients))
	defer keepSamples(perClient)
	// Expected post-warmup completions per client, plus slack for the
	// arrival process's spread, so the completion callback rarely regrows.
	expect := int(s.TotalRate * s.Duration / float64(len(cluster.Clients)))
	for i, c := range cluster.Clients {
		i := i
		if want := expect + expect/8 + 16; cap(perClient[i]) < want {
			perClient[i] = make([]float64, 0, want)
		}
		c.OnComplete = func(req *sim.Request) {
			if req.Created >= s.Warmup {
				perClient[i] = append(perClient[i], req.MeasuredLatency())
				if record != nil {
					record(req.MeasuredLatency(), req.Phases)
				}
			}
		}
		if err := c.StartOpenLoop(s.TotalRate/float64(len(cluster.Clients)), s.ConnsPerClient); err != nil {
			return Sample{}, err
		}
	}
	cluster.Run(s.Warmup + s.Duration)

	for i, samples := range perClient {
		if len(samples) == 0 {
			return Sample{}, fmt.Errorf("client %d produced no samples", i)
		}
	}
	return newSample(levels, s.Quantiles, sortedSources(perClient))
}

// sampleStore keeps the per-client latency buffers of finished experiments
// for the next experiment to fill, as sim's store keeps a released
// cluster's: a campaign holds one set per worker instead of allocating one
// per experiment.
var sampleStore struct {
	sync.Mutex
	bufs [][]float64
}

// drawSamples returns n empty per-client sample buffers, reusing kept ones;
// a buffer the store lacks is nil, for the caller to size.
func drawSamples(n int) [][]float64 {
	set := make([][]float64, n)
	sampleStore.Lock()
	defer sampleStore.Unlock()
	for i := range set {
		k := len(sampleStore.bufs)
		if k == 0 {
			break
		}
		set[i] = sampleStore.bufs[k-1][:0]
		sampleStore.bufs[k-1] = nil
		sampleStore.bufs = sampleStore.bufs[:k-1]
	}
	return set
}

// keepSamples returns the buffers of a set drawSamples gave out; they must
// no longer be read.
func keepSamples(set [][]float64) {
	sampleStore.Lock()
	sampleStore.bufs = append(sampleStore.bufs, set...)
	sampleStore.Unlock()
}

// sortedSources sorts each instance's samples in place — once, however many
// quantiles are then read — and wraps them as quantile sources. The caller
// must own the slices.
func sortedSources(perInstance [][]float64) []agg.QuantileSource {
	srcs := make([]agg.QuantileSource, len(perInstance))
	for i, samples := range perInstance {
		sort.Float64s(samples)
		srcs[i] = agg.Sorted(samples)
	}
	return srcs
}

// newSample extracts one experiment's quantiles the Treadmill way: each
// quantile per load-tester instance first, then the mean across instances
// (never pooled — paper §III-B, Fig. 2).
func newSample(levels []int, quantiles []float64, srcs []agg.QuantileSource) (Sample, error) {
	out := Sample{Levels: append([]int(nil), levels...), Quantiles: make(map[float64]float64, len(quantiles))}
	for _, q := range quantiles {
		v, err := agg.PerInstance(srcs, q, agg.Mean)
		if err != nil {
			return Sample{}, err
		}
		out.Quantiles[q] = v
	}
	return out, nil
}

// Fit runs quantile regression of the tau-quantile samples on the full
// factorial model, with the paper's data perturbation and exact bootstrap
// inference. Each coefficient is the Möbius transform of the cells' own
// tau-quantiles over their replicates, and its standard error is the exact
// variance of that transform under the stratified bootstrap (no resampling,
// see quantreg.Fit). bootstrap is ignored: it survives from when the
// standard errors came from that many Monte Carlo refits.
func (r *Result) Fit(tau float64, bootstrap int, seed uint64) (*quantreg.Result, error) {
	model, err := quantreg.FullFactorialModel(r.Factors)
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(r.Samples))
	y := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		row := make([]float64, len(s.Levels))
		for j, l := range s.Levels {
			row[j] = float64(l)
		}
		x[i] = row
		v, ok := s.Quantiles[tau]
		if !ok {
			return nil, fmt.Errorf("runner: sample %d missing quantile %g", i, tau)
		}
		y[i] = v
	}
	// The paper perturbs with 0.01 standard deviations, scaled here to the
	// response, and seed drives it. quantreg.Fit solves the full factorial
	// over 0/1 levels in closed form, which has no degenerate vertices to
	// be kept off; the perturbation stays because it is part of the paper's
	// procedure (§V-A). It is drawn once, so the standard errors are the
	// exact bootstrap of the perturbed responses.
	perturb := 0.01 * stats.StdDev(y)
	return quantreg.Fit(model, x, y, tau, quantreg.Options{
		PerturbStdDev: perturb,
		RNG:           dist.NewRNG(seed),
	})
}

// ConfigQuantiles returns the observed mean quantile for each permutation,
// keyed by the permutation's level vector (for Figs. 7 and 9).
func (r *Result) ConfigQuantiles(tau float64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range r.Samples {
		key := LevelsKey(s.Levels)
		out[key] = append(out[key], s.Quantiles[tau])
	}
	return out
}

// LevelsKey renders a level vector as a stable map key like "0101".
func LevelsKey(levels []int) string {
	b := make([]byte, len(levels))
	for i, l := range levels {
		b[i] = byte('0' + l)
	}
	return string(b)
}

// MarginalImpact computes Fig. 8/10: the average latency change from
// turning each factor to high level, assuming all other factors are
// equally likely low or high. With a fitted model this is the mean over
// all 2^(k-1) co-configurations of (predict(high) − predict(low)).
func MarginalImpact(fit *quantreg.Result, factors []string) (map[string]float64, error) {
	k := len(factors)
	out := make(map[string]float64, k)
	for fi := range factors {
		total := 0.0
		count := 0
		for mask := 0; mask < 1<<k; mask++ {
			if mask&(1<<fi) != 0 {
				continue // enumerate co-configurations with factor fi low
			}
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				if mask&(1<<j) != 0 {
					row[j] = 1
				}
			}
			lo, err := fit.Predict(row)
			if err != nil {
				return nil, err
			}
			row[fi] = 1
			hi, err := fit.Predict(row)
			if err != nil {
				return nil, err
			}
			total += hi - lo
			count++
		}
		out[factors[fi]] = total / float64(count)
	}
	return out, nil
}

// BestConfig searches all permutations for the lowest predicted
// tau-quantile latency (the Fig. 12 tuning step).
func BestConfig(fit *quantreg.Result, k int) ([]int, float64, error) {
	best := []int(nil)
	bestVal := 0.0
	for _, levels := range Permutations(k) {
		row := make([]float64, k)
		for i, l := range levels {
			row[i] = float64(l)
		}
		v, err := fit.Predict(row)
		if err != nil {
			return nil, 0, err
		}
		if best == nil || v < bestVal {
			best = levels
			bestVal = v
		}
	}
	return best, bestVal, nil
}
