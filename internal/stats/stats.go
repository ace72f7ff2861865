// Package stats provides the statistical primitives Treadmill's measurement
// procedure is built on: descriptive statistics, exact sample quantiles,
// bootstrap confidence intervals, permutation tests for factor screening
// (paper §IV-B), and convergence detection for the repeated-run hysteresis
// procedure (paper §II-D, §III-B).
package stats

import (
	"fmt"
	"math"
	"sort"

	"treadmill/internal/dist"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 when len < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the sample median, or 0 for an empty slice.
func Median(xs []float64) float64 {
	q, err := Quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return q
}

// Min returns the smallest value; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th sample quantile with linear interpolation
// (type 7). The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for data already in ascending order: no copy,
// no sort. A caller that reads several quantiles of one sample set sorts it
// once and reads them all from here.
func QuantileSorted(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, fmt.Errorf("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes a type-7 quantile on already-sorted data.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary bundles the descriptive statistics Treadmill reports per run.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary. It returns an error for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: summarize empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantileSorted(sorted, 0.50),
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

// BootstrapCI estimates a percentile-method confidence interval for an
// arbitrary statistic by resampling with replacement.
//
// confidence is the coverage (e.g. 0.95); resamples controls the bootstrap
// replicate count. The RNG makes the interval reproducible.
func BootstrapCI(xs []float64, stat func([]float64) float64, confidence float64, resamples int, rng *dist.RNG) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("stats: bootstrap of empty slice")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("stats: confidence %g out of (0,1)", confidence)
	}
	if resamples < 10 {
		return 0, 0, fmt.Errorf("stats: need >= 10 resamples, got %d", resamples)
	}
	reps := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		reps[r] = stat(buf)
	}
	sort.Float64s(reps)
	alpha := (1 - confidence) / 2
	return quantileSorted(reps, alpha), quantileSorted(reps, 1-alpha), nil
}

// PermutationTest returns the two-sided p-value for the null hypothesis
// that groups a and b come from the same distribution, using the difference
// of means as the test statistic. This is the screening test the paper uses
// to decide which hardware factors actually move the tail (§IV-B): it makes
// no normality assumption, which matters because latency quantiles are not
// normal.
func PermutationTest(a, b []float64, permutations int, rng *dist.RNG) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("stats: permutation test needs non-empty groups (%d, %d)", len(a), len(b))
	}
	if permutations < 100 {
		return 0, fmt.Errorf("stats: need >= 100 permutations, got %d", permutations)
	}
	observed := math.Abs(Mean(a) - Mean(b))
	pooled := make([]float64, 0, len(a)+len(b))
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	extreme := 0
	na := len(a)
	for p := 0; p < permutations; p++ {
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		d := math.Abs(Mean(pooled[:na]) - Mean(pooled[na:]))
		if d >= observed {
			extreme++
		}
	}
	// Add-one smoothing keeps the p-value away from an impossible exact 0.
	return (float64(extreme) + 1) / (float64(permutations) + 1), nil
}

// MeanDiffPermutation returns the signed difference of means (b − a) and
// the two-sided permutation p-value for the null hypothesis that a and b
// come from the same distribution. It is the release gate's comparison
// primitive: delta > 0 means b is larger (slower, when the samples are
// latency quantiles) than a.
//
// Unlike PermutationTest, the pooled values are put in a canonical sorted
// order before shuffling, so the p-value depends only on the pooled
// multiset, the group sizes, and the RNG stream — with equal group sizes
// swapping a and b flips delta's sign but returns the bit-identical
// p-value, which is the symmetry the gate's property tests pin.
func MeanDiffPermutation(a, b []float64, permutations int, rng *dist.RNG) (delta, p float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("stats: permutation test needs non-empty groups (%d, %d)", len(a), len(b))
	}
	if permutations < 100 {
		return 0, 0, fmt.Errorf("stats: need >= 100 permutations, got %d", permutations)
	}
	delta = Mean(b) - Mean(a)
	observed := math.Abs(delta)
	pooled := make([]float64, 0, len(a)+len(b))
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	sort.Float64s(pooled)
	na := len(a)
	extreme := 0
	for i := 0; i < permutations; i++ {
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		d := math.Abs(Mean(pooled[:na]) - Mean(pooled[na:]))
		if d >= observed {
			extreme++
		}
	}
	// Add-one smoothing keeps the p-value away from an impossible exact 0.
	return delta, (float64(extreme) + 1) / (float64(permutations) + 1), nil
}

// HolmBonferroni applies the Holm step-down multiple-comparison correction
// to a family of p-values at family-wise error rate alpha: sort the
// p-values ascending, compare the i-th smallest against alpha/(m−i), and
// stop rejecting at the first failure. It returns a rejection mask
// parallel to ps. Holm dominates plain Bonferroni (never rejects less)
// while still controlling the family-wise error rate, which is what keeps
// a many-cell gate from crying wolf on one lucky cell.
func HolmBonferroni(ps []float64, alpha float64) ([]bool, error) {
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("stats: alpha %g out of (0,1)", alpha)
	}
	for i, p := range ps {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("stats: p-value %d = %g invalid: want [0,1]", i, p)
		}
	}
	m := len(ps)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return ps[order[i]] < ps[order[j]] })
	reject := make([]bool, m)
	for rank, idx := range order {
		if ps[idx] > alpha/float64(m-rank) {
			break // step-down: everything at or after the first failure stands
		}
		reject[idx] = true
	}
	return reject, nil
}

// HolmThreshold returns the step-down significance cut the comparison with
// the given 0-based ascending rank faced in a family of m tests: alpha/(m−rank).
func HolmThreshold(alpha float64, m, rank int) float64 {
	return alpha / float64(m-rank)
}

// NormalCDF returns Φ(x), the standard normal CDF.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// TwoSidedPValueZ converts a z-statistic into a two-sided p-value under a
// standard-normal null, as quantile regression packages report for
// coefficient tests with bootstrap standard errors.
func TwoSidedPValueZ(z float64) float64 {
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// ConvergenceDetector implements the stopping rule of the repeated-run
// procedure (paper §III-B): keep repeating the experiment until the running
// mean of the per-run converged estimates is stable. Stability means the
// relative change of the running mean stayed below Tolerance for Window
// consecutive observations, with at least MinRuns observations total.
type ConvergenceDetector struct {
	// MinRuns is the minimum number of runs before convergence can be
	// declared. The paper repeats each configuration >= 30 times.
	MinRuns int
	// Window is how many consecutive stable updates are required.
	Window int
	// Tolerance is the maximum relative change of the running mean that
	// still counts as stable.
	Tolerance float64

	values []float64
	stable int
}

// NewConvergenceDetector returns a detector with the paper-informed
// defaults: at least 5 runs, 3 consecutive stable updates, 1% tolerance.
func NewConvergenceDetector() *ConvergenceDetector {
	return &ConvergenceDetector{MinRuns: 5, Window: 3, Tolerance: 0.01}
}

// Observe records the converged estimate of one run and reports whether the
// running mean has converged.
func (c *ConvergenceDetector) Observe(v float64) bool {
	prevMean := Mean(c.values)
	c.values = append(c.values, v)
	mean := Mean(c.values)
	if len(c.values) > 1 {
		switch {
		case prevMean == 0 && mean == 0:
			// A constant-zero sequence has a perfectly stable running mean;
			// the relative-change test below would divide by zero.
			c.stable++
		case prevMean != 0 && math.Abs(mean-prevMean)/math.Abs(prevMean) <= c.Tolerance:
			c.stable++
		default:
			c.stable = 0
		}
	}
	return c.Converged()
}

// ObserveChecked is Observe with input validation: NaN and ±Inf
// observations poison a running mean silently (every later relative-change
// test involves them), so they are rejected with an error naming the
// offending value instead of being folded in.
func (c *ConvergenceDetector) ObserveChecked(v float64) (bool, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false, fmt.Errorf("stats: convergence observation %g invalid: want finite", v)
	}
	return c.Observe(v), nil
}

// Converged reports whether the stopping rule is satisfied.
func (c *ConvergenceDetector) Converged() bool {
	return len(c.values) >= c.MinRuns && c.stable >= c.Window
}

// N returns how many runs have been observed.
func (c *ConvergenceDetector) N() int { return len(c.values) }

// Mean returns the running mean of observed estimates.
func (c *ConvergenceDetector) Mean() float64 { return Mean(c.values) }

// Values returns a copy of the observed estimates.
func (c *ConvergenceDetector) Values() []float64 {
	out := make([]float64, len(c.values))
	copy(out, c.values)
	return out
}
