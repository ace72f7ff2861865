package runner

import (
	"context"
	"sort"
	"testing"

	"treadmill/internal/agg"
	"treadmill/internal/dist"
	"treadmill/internal/quantreg"
	"treadmill/internal/sim"
)

func TestPermutations(t *testing.T) {
	perms := Permutations(3)
	if len(perms) != 8 {
		t.Fatalf("%d permutations", len(perms))
	}
	seen := map[string]bool{}
	for _, p := range perms {
		if len(p) != 3 {
			t.Fatalf("bad levels %v", p)
		}
		seen[LevelsKey(p)] = true
	}
	if len(seen) != 8 {
		t.Errorf("%d distinct permutations", len(seen))
	}
}

func TestLevelsKey(t *testing.T) {
	if LevelsKey([]int{0, 1, 1, 0}) != "0110" {
		t.Errorf("key = %q", LevelsKey([]int{0, 1, 1, 0}))
	}
	if LevelsKey(nil) != "" {
		t.Error("empty levels should render empty")
	}
}

func TestPaperFactorsApply(t *testing.T) {
	factors := PaperFactors()
	if len(factors) != 4 {
		t.Fatalf("%d factors", len(factors))
	}
	cfg := sim.DefaultClusterConfig(1)
	for i := range factors {
		factors[i].Apply(&cfg, 1)
	}
	if cfg.Server.NUMA != sim.NUMAInterleave ||
		!cfg.Server.CPU.TurboEnabled ||
		cfg.Server.CPU.Governor != sim.Performance ||
		cfg.Server.NICAffinity != sim.NICAllNodes {
		t.Errorf("high levels not applied: %+v", cfg.Server)
	}
	for i := range factors {
		factors[i].Apply(&cfg, 0)
	}
	if cfg.Server.NUMA != sim.NUMASameNode ||
		cfg.Server.CPU.TurboEnabled ||
		cfg.Server.CPU.Governor != sim.Ondemand ||
		cfg.Server.NICAffinity != sim.NICSameNode {
		t.Errorf("low levels not applied: %+v", cfg.Server)
	}
}

func TestStudyValidation(t *testing.T) {
	good := func() *Study {
		return &Study{
			Base:           sim.DefaultClusterConfig(2),
			Factors:        PaperFactors(),
			TotalRate:      100000,
			ConnsPerClient: 4,
			Duration:       0.1,
			Replicates:     1,
			Quantiles:      []float64{0.99},
		}
	}
	muts := []func(*Study){
		func(s *Study) { s.Factors = nil },
		func(s *Study) { s.TotalRate = 0 },
		func(s *Study) { s.ConnsPerClient = 0 },
		func(s *Study) { s.Duration = 0 },
		func(s *Study) { s.Replicates = 0 },
		func(s *Study) { s.Quantiles = nil },
		func(s *Study) { s.Base.Clients = nil },
	}
	for i, mut := range muts {
		s := good()
		mut(s)
		if _, err := s.Run(context.Background()); err == nil {
			t.Errorf("bad study %d accepted", i)
		}
	}
}

// smallStudy is a reduced campaign that still exercises the full pipeline:
// two factors (numa, dvfs), moderate load, short runs.
func smallStudy() *Study {
	paper := PaperFactors()
	return &Study{
		Base:    sim.DefaultClusterConfig(4),
		Factors: []Factor{paper[0], paper[2]},
		// High load: the NUMA penalty only matters once queueing magnifies
		// it (paper Finding 6), so test in the 70% regime the paper uses.
		TotalRate:      700000,
		ConnsPerClient: 8,
		Duration:       0.12,
		Warmup:         0.03,
		Replicates:     3,
		Quantiles:      []float64{0.5, 0.95, 0.99},
		Seed:           11,
	}
}

func TestStudyRunAndFit(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	s := smallStudy()
	progress := 0
	s.Progress = func(done, total int) {
		progress = done
		if total != 12 {
			t.Fatalf("total = %d, want 12", total)
		}
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 12 { // 2^2 × 3 replicates
		t.Fatalf("%d samples", len(res.Samples))
	}
	if progress != 12 {
		t.Errorf("progress reached %d", progress)
	}
	// Every permutation must appear exactly Replicates times.
	counts := map[string]int{}
	for _, smp := range res.Samples {
		counts[LevelsKey(smp.Levels)]++
		for _, q := range res.Quantiles {
			if smp.Quantiles[q] <= 0 {
				t.Fatalf("non-positive quantile for %v", smp.Levels)
			}
		}
		if smp.Quantiles[0.99] < smp.Quantiles[0.5] {
			t.Fatalf("p99 < p50 for %v", smp.Levels)
		}
	}
	for key, c := range counts {
		if c != 3 {
			t.Errorf("permutation %s ran %d times", key, c)
		}
	}

	fit, err := res.Fit(0.99, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Coefs) != 4 { // intercept + 2 mains + 1 interaction
		t.Fatalf("%d coefficients", len(fit.Coefs))
	}
	if fit.PseudoR2 < 0.2 {
		t.Errorf("pseudo-R2 = %g; factors should explain latency variance", fit.PseudoR2)
	}
	// NUMA interleave must hurt the tail (positive coefficient), per the
	// simulator mechanism and the paper's Finding 6.
	numa, ok := fit.Coef("numa")
	if !ok {
		t.Fatal("numa coefficient missing")
	}
	if numa.Est <= 0 {
		t.Errorf("numa p99 coefficient = %g, want positive (interleave hurts)", numa.Est)
	}

	// Marginal impacts and best config must be computable.
	marg, err := MarginalImpact(fit, res.Factors)
	if err != nil {
		t.Fatal(err)
	}
	if len(marg) != 2 {
		t.Fatalf("marginal impacts: %v", marg)
	}
	best, bestVal, err := BestConfig(fit, len(res.Factors))
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 || bestVal <= 0 {
		t.Errorf("best = %v (%g)", best, bestVal)
	}
	// The best config must predict no worse than the all-low config.
	allLow, _ := fit.Predict([]float64{0, 0})
	if bestVal > allLow+1e-12 {
		t.Errorf("best config %v (%g) worse than all-low (%g)", best, bestVal, allLow)
	}
}

func TestConfigQuantiles(t *testing.T) {
	res := &Result{
		Factors:   []string{"a"},
		Quantiles: []float64{0.99},
		Samples: []Sample{
			{Levels: []int{0}, Quantiles: map[float64]float64{0.99: 1}},
			{Levels: []int{0}, Quantiles: map[float64]float64{0.99: 2}},
			{Levels: []int{1}, Quantiles: map[float64]float64{0.99: 5}},
		},
	}
	cq := res.ConfigQuantiles(0.99)
	if len(cq["0"]) != 2 || len(cq["1"]) != 1 {
		t.Errorf("config quantiles = %v", cq)
	}
}

func TestFitMissingQuantile(t *testing.T) {
	res := &Result{
		Factors:   []string{"a"},
		Quantiles: []float64{0.5},
		Samples: []Sample{
			{Levels: []int{0}, Quantiles: map[float64]float64{0.5: 1}},
			{Levels: []int{1}, Quantiles: map[float64]float64{0.5: 2}},
		},
	}
	if _, err := res.Fit(0.99, 0, 1); err == nil {
		t.Error("missing quantile should error")
	}
}

// syntheticFit builds a quantreg result with known coefficients for
// MarginalImpact/BestConfig unit tests.
func syntheticFit(t *testing.T) *quantreg.Result {
	t.Helper()
	m, err := quantreg.FullFactorialModel([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// y = 100 + 10a − 20b + 5ab exactly.
	rng := dist.NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := float64(rng.Intn(2)), float64(rng.Intn(2))
		x = append(x, []float64{a, b})
		y = append(y, 100+10*a-20*b+5*a*b)
	}
	fit, err := quantreg.Fit(m, x, y, 0.5, quantreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fit
}

func TestMarginalImpactExact(t *testing.T) {
	fit := syntheticFit(t)
	marg, err := MarginalImpact(fit, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// a: effect 10 + 5·E[b] = 12.5; b: −20 + 5·E[a] = −17.5.
	if d := marg["a"] - 12.5; d < -0.5 || d > 0.5 {
		t.Errorf("marginal a = %g, want ~12.5", marg["a"])
	}
	if d := marg["b"] + 17.5; d < -0.5 || d > 0.5 {
		t.Errorf("marginal b = %g, want ~-17.5", marg["b"])
	}
}

func TestBestConfigExact(t *testing.T) {
	fit := syntheticFit(t)
	best, val, err := BestConfig(fit, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum of {100, 110, 80, 95} is a=0, b=1 → 80.
	if LevelsKey(best) != "01" {
		t.Errorf("best = %v", best)
	}
	if val < 79 || val > 81 {
		t.Errorf("best value = %g, want ~80", val)
	}
}

// constSource is a non-sample quantile source (the shape of a fleet
// histogram snapshot): it answers every quantile itself.
type constSource float64

func (c constSource) Quantile(q float64) (float64, error) { return float64(c) + q, nil }

// TestNewSampleSortOnceMatchesPerQuantile pins the sort-once extraction to
// the path it replaced: agg.Samples copied and sorted each instance once per
// quantile, sortedSources sorts each instance once in place, and the two
// must agree to the bit at the ends, the median and the tail quantiles —
// while sources that are not raw samples pass through newSample untouched.
func TestNewSampleSortOnceMatchesPerQuantile(t *testing.T) {
	rng := dist.NewRNG(9)
	lat := dist.LognormalFromMoments(200e-6, 0.6)
	perClient := make([][]float64, 4)
	var old []agg.QuantileSource
	for i := range perClient {
		perClient[i] = make([]float64, 1000+37*i) // completion order: unsorted
		for j := range perClient[i] {
			perClient[i][j] = lat.Sample(rng)
		}
		old = append(old, agg.Samples(append([]float64(nil), perClient[i]...)))
	}
	taus := []float64{0, 0.5, 0.95, 0.99, 1}
	got, err := newSample([]int{0, 1}, taus, sortedSources(perClient))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range taus {
		want, err := agg.PerInstance(old, tau, agg.Mean)
		if err != nil {
			t.Fatal(err)
		}
		if got.Quantiles[tau] != want {
			t.Errorf("tau %g: sort-once %v != per-quantile %v", tau, got.Quantiles[tau], want)
		}
	}
	for i, s := range perClient {
		if !sort.Float64sAreSorted(s) {
			t.Errorf("instance %d not sorted in place", i)
		}
	}

	snap, err := newSample(nil, taus, []agg.QuantileSource{constSource(1), constSource(3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range taus {
		if want := 2 + tau; snap.Quantiles[tau] != want {
			t.Errorf("tau %g: non-sample sources gave %v, want %v", tau, snap.Quantiles[tau], want)
		}
	}

	if _, err := newSample(nil, []float64{1.5}, sortedSources([][]float64{{1, 2}})); err == nil {
		t.Error("quantile 1.5 accepted")
	}
	if _, err := newSample(nil, taus, sortedSources([][]float64{{}})); err == nil {
		t.Error("empty instance accepted")
	}
}
