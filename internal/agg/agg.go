// Package agg implements cross-instance statistical aggregation.
//
// The paper's Fig. 2 shows why pooling raw distributions from multiple
// load-tester instances biases high quantiles: one unusual client (e.g. on
// a remote rack) contributes most of the pooled tail, so the "system" P99
// is really that client's P99. Treadmill instead extracts the metric of
// interest from each instance and combines the per-instance metrics
// (§III-B). Both strategies are implemented here — the correct one for use
// and the pooled one as the measurable baseline.
package agg

import (
	"fmt"
	"math"
	"sort"

	"treadmill/internal/stats"
)

// Combine is a reduction over per-instance metrics.
type Combine int

// Supported combinators.
const (
	// Mean averages per-instance quantiles — Treadmill's default.
	Mean Combine = iota
	// Median is robust to a single deviant instance.
	Median
	// Max reports the worst instance, useful for fan-out analyses where
	// the slowest responder dominates (Dean & Barroso).
	Max
)

// String returns the combinator name.
func (c Combine) String() string {
	switch c {
	case Mean:
		return "mean"
	case Median:
		return "median"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("Combine(%d)", int(c))
	}
}

// QuantileSource yields a quantile estimate; both *hist.Histogram and raw
// sample sets satisfy it via adapters below.
type QuantileSource interface {
	Quantile(q float64) (float64, error)
}

// Samples adapts a raw sample slice to QuantileSource.
type Samples []float64

// Quantile implements QuantileSource with exact sample quantiles.
func (s Samples) Quantile(q float64) (float64, error) {
	return stats.Quantile(s, q)
}

// Sorted adapts a sample slice already in ascending order to QuantileSource:
// the same exact quantiles as Samples without the copy and sort per call,
// for callers that own the slice and read several quantiles from it.
type Sorted []float64

// Quantile implements QuantileSource.
func (s Sorted) Quantile(q float64) (float64, error) {
	return stats.QuantileSorted(s, q)
}

// PerInstance extracts the q-th quantile from every instance and reduces
// them with the given combinator — the unbiased procedure.
func PerInstance(instances []QuantileSource, q float64, combine Combine) (float64, error) {
	if len(instances) == 0 {
		return 0, fmt.Errorf("agg: no instances")
	}
	vals := make([]float64, len(instances))
	for i, src := range instances {
		v, err := src.Quantile(q)
		if err != nil {
			return 0, fmt.Errorf("agg: instance %d: %w", i, err)
		}
		vals[i] = v
	}
	switch combine {
	case Mean:
		return stats.Mean(vals), nil
	case Median:
		return stats.Median(vals), nil
	case Max:
		return stats.Max(vals), nil
	default:
		return 0, fmt.Errorf("agg: unknown combinator %v", combine)
	}
}

// Pooled merges all instances' raw samples and extracts one quantile from
// the combined distribution — the biased baseline of Fig. 2. It is only
// defined for raw samples since that is the only lossless pooling.
func Pooled(instances [][]float64, q float64) (float64, error) {
	var all []float64
	for _, s := range instances {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0, fmt.Errorf("agg: no samples to pool")
	}
	return stats.Quantile(all, q)
}

// Decomposition is the Fig. 2 analysis: for each latency bin, the share of
// samples contributed by each instance.
type Decomposition struct {
	// Edges are bin upper edges (ascending).
	Edges []float64
	// Shares[b][i] is instance i's fraction of the samples in bin b;
	// each row sums to 1 (or is all zero for an empty bin).
	Shares [][]float64
	// Counts[b] is the total number of samples in bin b.
	Counts []int
}

// Decompose bins the pooled samples and attributes each bin's mass to
// instances. bins must be >= 2.
func Decompose(instances [][]float64, bins int) (*Decomposition, error) {
	if bins < 2 {
		return nil, fmt.Errorf("agg: need >= 2 bins, got %d", bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range instances {
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("agg: no samples to decompose")
	}
	if hi <= lo {
		hi = lo + 1e-12
	}
	d := &Decomposition{
		Edges:  make([]float64, bins),
		Shares: make([][]float64, bins),
		Counts: make([]int, bins),
	}
	width := (hi - lo) / float64(bins)
	for b := 0; b < bins; b++ {
		d.Edges[b] = lo + float64(b+1)*width
		d.Shares[b] = make([]float64, len(instances))
	}
	for i, s := range instances {
		for _, v := range s {
			b := int((v - lo) / width)
			if b >= bins {
				b = bins - 1
			}
			d.Shares[b][i]++
			d.Counts[b]++
		}
	}
	for b := range d.Shares {
		if d.Counts[b] == 0 {
			continue
		}
		for i := range d.Shares[b] {
			d.Shares[b][i] /= float64(d.Counts[b])
		}
	}
	return d, nil
}

// DominantInstance returns the instance with the largest share of samples
// at or above the q-th pooled quantile, and that share — quantifying the
// "Client 1 dominates the tail" effect.
func DominantInstance(instances [][]float64, q float64) (instance int, share float64, err error) {
	cut, err := Pooled(instances, q)
	if err != nil {
		return 0, 0, err
	}
	counts := make([]int, len(instances))
	total := 0
	for i, s := range instances {
		for _, v := range s {
			if v >= cut {
				counts[i]++
				total++
			}
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("agg: no samples above quantile %g", q)
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best, float64(counts[best]) / float64(total), nil
}

// SortedCopy returns a sorted copy of xs (helper for report rendering).
func SortedCopy(xs []float64) []float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return cp
}
