package agg

import (
	"math"
	"testing"

	"treadmill/internal/dist"
)

func normalSamples(rng *dist.RNG, n int, mean, sd float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*rng.Normal()
	}
	return out
}

func TestPerInstanceCombinators(t *testing.T) {
	instances := []QuantileSource{
		Samples{1, 2, 3, 4, 5},
		Samples{11, 12, 13, 14, 15},
		Samples{101, 102, 103, 104, 105},
	}
	got, err := PerInstance(instances, 0.5, Mean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(3+13+103)/3.0) > 1e-9 {
		t.Errorf("mean of medians = %g", got)
	}
	got, err = PerInstance(instances, 0.5, Median)
	if err != nil || got != 13 {
		t.Errorf("median of medians = %g, %v", got, err)
	}
	got, err = PerInstance(instances, 0.5, Max)
	if err != nil || got != 103 {
		t.Errorf("max of medians = %g, %v", got, err)
	}
}

func TestSortedMatchesSamples(t *testing.T) {
	unsorted := Samples{9, 2, 7, 4, 4, 1}
	sorted := Sorted{1, 2, 4, 4, 7, 9}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		want, err := unsorted.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sorted.Quantile(q); err != nil || got != want {
			t.Errorf("q=%g: Sorted %g, %v; Samples %g", q, got, err, want)
		}
	}
	if _, err := (Sorted{}).Quantile(0.5); err == nil {
		t.Error("empty Sorted should error")
	}
}

func TestPerInstanceErrors(t *testing.T) {
	if _, err := PerInstance(nil, 0.5, Mean); err == nil {
		t.Error("no instances should error")
	}
	if _, err := PerInstance([]QuantileSource{Samples{}}, 0.5, Mean); err == nil {
		t.Error("empty instance should error")
	}
	if _, err := PerInstance([]QuantileSource{Samples{1}}, 0.5, Combine(9)); err == nil {
		t.Error("unknown combinator should error")
	}
}

func TestPooledVsPerInstanceBias(t *testing.T) {
	// Reproduce the Fig. 2 scenario: three ordinary clients plus one
	// remote-rack client with a +150µs shift. Pooling lets the deviant
	// client own the tail; per-instance aggregation does not.
	rng := dist.NewRNG(1)
	normal := [][]float64{
		normalSamples(rng, 20000, 100e-6, 10e-6),
		normalSamples(rng, 20000, 100e-6, 10e-6),
		normalSamples(rng, 20000, 100e-6, 10e-6),
	}
	remote := normalSamples(rng, 20000, 250e-6, 10e-6)
	all := append(append([][]float64{}, normal...), remote)

	pooled, err := Pooled(all, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]QuantileSource, len(all))
	for i, s := range all {
		srcs[i] = Samples(s)
	}
	per, err := PerInstance(srcs, 0.99, Mean)
	if err != nil {
		t.Fatal(err)
	}
	// Pooled P99 lands inside the remote client's distribution (~250µs);
	// per-instance mean is ~ (3×125 + 275)/4 ≈ 160µs.
	if pooled < 230e-6 {
		t.Errorf("pooled p99 = %g, expected to be captured by the remote client", pooled)
	}
	if per > 200e-6 {
		t.Errorf("per-instance p99 = %g, expected well below pooled %g", per, pooled)
	}
}

func TestPooledErrors(t *testing.T) {
	if _, err := Pooled(nil, 0.5); err == nil {
		t.Error("no samples should error")
	}
	if _, err := Pooled([][]float64{{}}, 0.5); err == nil {
		t.Error("empty samples should error")
	}
}

func TestDecompose(t *testing.T) {
	// Instance 0 occupies low latencies, instance 1 high: shares must
	// reflect that.
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = 1 + float64(i%10)*0.01 // ~[1, 1.1]
		b[i] = 2 + float64(i%10)*0.01 // ~[2, 2.1]
	}
	d, err := Decompose([][]float64{a, b}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Edges) != 10 || len(d.Shares) != 10 {
		t.Fatalf("bad shape")
	}
	if d.Shares[0][0] < 0.99 {
		t.Errorf("lowest bin share of instance 0 = %g, want ~1", d.Shares[0][0])
	}
	if d.Shares[9][1] < 0.99 {
		t.Errorf("highest bin share of instance 1 = %g, want ~1", d.Shares[9][1])
	}
	// Shares in non-empty bins sum to 1.
	for bi, row := range d.Shares {
		if d.Counts[bi] == 0 {
			continue
		}
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("bin %d shares sum to %g", bi, sum)
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose([][]float64{{1}}, 1); err == nil {
		t.Error("1 bin should error")
	}
	if _, err := Decompose([][]float64{{}}, 4); err == nil {
		t.Error("no samples should error")
	}
}

func TestDecomposeConstantSamples(t *testing.T) {
	d, err := Decompose([][]float64{{5, 5, 5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range d.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant-sample decomposition lost samples: %d", total)
	}
}

func TestDominantInstance(t *testing.T) {
	rng := dist.NewRNG(2)
	inst := [][]float64{
		normalSamples(rng, 5000, 100e-6, 5e-6),
		normalSamples(rng, 5000, 100e-6, 5e-6),
		normalSamples(rng, 5000, 300e-6, 5e-6), // owns the tail
	}
	who, share, err := DominantInstance(inst, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if who != 2 {
		t.Errorf("dominant instance = %d, want 2", who)
	}
	if share < 0.9 {
		t.Errorf("dominant share = %g, want ~1", share)
	}
	if _, _, err := DominantInstance(nil, 0.9); err == nil {
		t.Error("no samples should error")
	}
}

func TestSortedCopy(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedCopy(in)
	if out[0] != 1 || out[2] != 3 {
		t.Errorf("sorted = %v", out)
	}
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestCombineString(t *testing.T) {
	if Mean.String() != "mean" || Median.String() != "median" || Max.String() != "max" {
		t.Error("combine names wrong")
	}
	if Combine(7).String() == "" {
		t.Error("unknown should render")
	}
}
