package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"treadmill/internal/runner"
)

// exactQuantile returns the q-quantile of values by linear interpolation
// between order statistics (position q·(n−1)). It sorts values in place.
func exactQuantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	if q <= 0 {
		return values[0]
	}
	if q >= 1 {
		return values[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return values[n-1]
	}
	return values[lo] + frac*(values[lo+1]-values[lo])
}

// summary is one metric over a run's repetitions: median, quartiles, and
// as spread the distance between the quartiles.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles of reps the way Python's
// statistics.quantiles(values, n=4) does (exclusive method, position
// p·(n+1)), so the numbers this harness prints are the ones the driver's
// acceptance check recomputes. One repetition has no spread: Q1 = Q3 = it.
func summarize(reps []float64) summary {
	xs := append([]float64(nil), reps...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	at := func(p float64) float64 {
		if n == 1 {
			return xs[0]
		}
		pos := p*float64(n+1) - 1 // zero-based
		switch {
		case pos <= 0:
			return xs[0]
		case pos >= float64(n-1):
			return xs[n-1]
		}
		lo := int(pos)
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return summary{N: n, Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

// relSpread is the inter-quartile distance as a share of the median.
func (s summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// fingerprint hashes (FNV-1a, 64 bit) the factor levels and the float bits
// of every quantile of every sample, in schedule order and in the order
// quantiles lists them — map iteration order must not leak in.
func fingerprint(samples []runner.Sample, quantiles []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range samples {
		for _, l := range s.Levels {
			b[0] = byte(l)
			h.Write(b[:1])
		}
		for _, q := range quantiles {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Quantiles[q]))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
