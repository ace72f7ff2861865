package stats

import (
	"math"
	"testing"
	"testing/quick"

	"treadmill/internal/dist"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %g, want 5", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", v, 32.0/7)
	}
	if s := StdDev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %g", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton cases wrong")
	}
}

func TestMedianMinMax(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	if Min([]float64{3, 1, 2}) != 1 || Max([]float64{3, 1, 2}) != 3 {
		t.Error("min/max wrong")
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"Min": func() { Min(nil) },
		"Max": func() { Max(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 1 || xs[3] != 4 {
		t.Error("Quantile mutated input")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty should error")
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("q<0 should error")
	}
	if got, err := Quantile([]float64{42}, 0.9); err != nil || got != 42 {
		t.Errorf("single element: %g, %v", got, err)
	}
	// The sorted entry point reads the same value from pre-sorted data and
	// rejects the same inputs.
	for _, q := range []float64{0, 0.3, 0.99, 1} {
		want, _ := Quantile([]float64{4, 1, 3, 2}, q)
		if got, err := QuantileSorted(xs, q); err != nil || got != want {
			t.Errorf("QuantileSorted(q=%g) = %g, %v; want %g", q, got, err, want)
		}
	}
	if _, err := QuantileSorted(nil, 0.5); err == nil {
		t.Error("QuantileSorted: empty should error")
	}
	if _, err := QuantileSorted(xs, 1.1); err == nil {
		t.Error("QuantileSorted: q>1 should error")
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty should error")
	}
	xs := make([]float64, 0, 1000)
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Errorf("N/min/max = %d/%g/%g", s.N, s.Min, s.Max)
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Errorf("mean = %g", s.Mean)
	}
	if math.Abs(s.P50-500.5) > 1 || math.Abs(s.P99-990) > 1.5 {
		t.Errorf("P50=%g P99=%g", s.P50, s.P99)
	}
	if s.P50 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 {
		t.Error("percentiles not monotone")
	}
}

func TestBootstrapCICoversTruth(t *testing.T) {
	rng := dist.NewRNG(1)
	l := dist.LognormalFromMoments(100, 0.5)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = l.Sample(rng)
	}
	lo, hi, err := BootstrapCI(xs, Mean, 0.95, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate CI [%g, %g]", lo, hi)
	}
	if lo > 100 || hi < 100 {
		t.Errorf("95%% CI [%g, %g] does not cover true mean 100", lo, hi)
	}
	if hi-lo > 20 {
		t.Errorf("CI too wide: [%g, %g]", lo, hi)
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	rng := dist.NewRNG(1)
	if _, _, err := BootstrapCI(nil, Mean, 0.95, 100, rng); err == nil {
		t.Error("empty should error")
	}
	if _, _, err := BootstrapCI([]float64{1}, Mean, 1.5, 100, rng); err == nil {
		t.Error("bad confidence should error")
	}
	if _, _, err := BootstrapCI([]float64{1}, Mean, 0.95, 5, rng); err == nil {
		t.Error("too few resamples should error")
	}
}

func TestPermutationTestDetectsShift(t *testing.T) {
	rng := dist.NewRNG(5)
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.Normal()
		b[i] = rng.Normal() + 1.5 // large shift
	}
	p, err := PermutationTest(a, b, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Errorf("p = %g for clearly shifted groups, want < 0.01", p)
	}
}

func TestPermutationTestNullUniform(t *testing.T) {
	rng := dist.NewRNG(6)
	// Same distribution: p-value should usually be large.
	small := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 50)
		b := make([]float64, 50)
		for i := range a {
			a[i] = rng.Normal()
			b[i] = rng.Normal()
		}
		p, err := PermutationTest(a, b, 500, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.05 {
			small++
		}
	}
	// Under the null ~5% of trials are significant; allow slack.
	if small > 8 {
		t.Errorf("%d/%d false positives at alpha=0.05", small, trials)
	}
}

func TestPermutationTestErrors(t *testing.T) {
	rng := dist.NewRNG(1)
	if _, err := PermutationTest(nil, []float64{1}, 500, rng); err == nil {
		t.Error("empty group should error")
	}
	if _, err := PermutationTest([]float64{1}, []float64{2}, 10, rng); err == nil {
		t.Error("too few permutations should error")
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("Phi(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestTwoSidedPValueZ(t *testing.T) {
	if p := TwoSidedPValueZ(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("p(z=0) = %g, want 1", p)
	}
	if p := TwoSidedPValueZ(1.96); math.Abs(p-0.05) > 1e-3 {
		t.Errorf("p(z=1.96) = %g, want ~0.05", p)
	}
	if p := TwoSidedPValueZ(-1.96); math.Abs(p-0.05) > 1e-3 {
		t.Errorf("p symmetric: %g", p)
	}
	if p := TwoSidedPValueZ(10); p > 1e-12 {
		t.Errorf("p(z=10) = %g, want ~0", p)
	}
}

func TestConvergenceDetector(t *testing.T) {
	c := NewConvergenceDetector()
	// Identical values converge exactly at MinRuns (stable counter grows
	// from the 2nd observation).
	for i := 0; i < 4; i++ {
		if c.Observe(100) && c.N() < c.MinRuns {
			t.Fatalf("converged before MinRuns at n=%d", c.N())
		}
	}
	if !c.Observe(100) {
		t.Fatalf("should converge at n=%d", c.N())
	}
	if c.Mean() != 100 {
		t.Errorf("mean = %g", c.Mean())
	}
}

func TestConvergenceDetectorUnstable(t *testing.T) {
	c := NewConvergenceDetector()
	// Alternating large jumps never converge.
	vals := []float64{100, 200, 100, 200, 100, 200, 100, 200}
	for _, v := range vals {
		if c.Observe(v) {
			t.Fatalf("converged on oscillating sequence at n=%d", c.N())
		}
	}
}

func TestConvergenceDetectorEventually(t *testing.T) {
	c := NewConvergenceDetector()
	// Jumpy start then settles: must converge within a bounded number of
	// further observations.
	seq := []float64{50, 180, 90, 140}
	for _, v := range seq {
		c.Observe(v)
	}
	converged := false
	for i := 0; i < 50 && !converged; i++ {
		converged = c.Observe(115)
	}
	if !converged {
		t.Fatal("never converged on settling sequence")
	}
	vals := c.Values()
	if len(vals) != c.N() {
		t.Errorf("Values len %d != N %d", len(vals), c.N())
	}
	vals[0] = -1
	if c.Values()[0] == -1 {
		t.Error("Values returned internal slice")
	}
}

// Property: quantile is monotone in q for any data.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%100) + 2
		rng := dist.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			v, err := Quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bootstrap CI brackets the point estimate.
func TestBootstrapBracketsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.Float64()*50 + 1
		}
		lo, hi, err := BootstrapCI(xs, Mean, 0.9, 200, rng)
		if err != nil {
			return false
		}
		m := Mean(xs)
		return lo <= m+1e-9 && m <= hi+1e-9 && lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: variance is never negative and zero for constant data.
func TestVarianceProperty(t *testing.T) {
	f := func(seed uint64, c float64) bool {
		if math.IsNaN(c) || math.Abs(c) > 1e300 {
			// Summing ~20 copies of a near-max float overflows; that is a
			// float64 limitation, not a variance bug.
			return true
		}
		rng := dist.NewRNG(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		if Variance(xs) < 0 {
			return false
		}
		cs := make([]float64, 20)
		for i := range cs {
			cs[i] = c
		}
		return Variance(cs) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanDiffPermutationSwapSymmetry(t *testing.T) {
	// Equal-size groups: swapping the arguments must flip delta's sign and
	// return the bit-identical p-value when the RNG stream is the same.
	a := []float64{100, 104, 98, 101, 103, 99, 102, 100}
	b := []float64{118, 122, 117, 121, 119, 120, 118, 123}
	d1, p1, err := MeanDiffPermutation(a, b, 500, dist.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	d2, p2, err := MeanDiffPermutation(b, a, 500, dist.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != -d2 {
		t.Errorf("delta not antisymmetric: %g vs %g", d1, d2)
	}
	if p1 != p2 {
		t.Errorf("p-value not symmetric: %g vs %g", p1, p2)
	}
	if d1 <= 0 {
		t.Errorf("delta = %g, want > 0 (b is larger)", d1)
	}
	if p1 > 0.05 {
		t.Errorf("p = %g for a clearly separated pair, want small", p1)
	}
}

func TestMeanDiffPermutationIdentical(t *testing.T) {
	a := []float64{5, 5, 5, 5, 5, 5}
	d, p, err := MeanDiffPermutation(a, a, 200, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("delta = %g, want 0", d)
	}
	if p != 1 {
		t.Errorf("p = %g for identical groups, want exactly 1", p)
	}
}

func TestMeanDiffPermutationErrors(t *testing.T) {
	if _, _, err := MeanDiffPermutation(nil, []float64{1}, 200, dist.NewRNG(1)); err == nil {
		t.Error("empty group accepted")
	}
	if _, _, err := MeanDiffPermutation([]float64{1}, []float64{2}, 10, dist.NewRNG(1)); err == nil {
		t.Error("too few permutations accepted")
	}
}

func TestHolmBonferroni(t *testing.T) {
	// m=4 at alpha=0.05: thresholds 0.0125, 0.0167, 0.025, 0.05 by rank.
	ps := []float64{0.01, 0.04, 0.001, 0.2}
	rej, err := HolmBonferroni(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Errorf("reject[%d] = %v, want %v (ps=%v)", i, rej[i], want[i], ps)
		}
	}

	// Step-down: a failure blocks every larger p even below its own cut.
	// ranks: 0.02 vs 0.0125 fails, so 0.03 (vs 0.0167) cannot be rejected.
	rej, err = HolmBonferroni([]float64{0.02, 0.03, 0.04, 0.06}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rej {
		if r {
			t.Errorf("reject[%d] = true after step-down failure", i)
		}
	}

	if _, err := HolmBonferroni([]float64{0.5}, 0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := HolmBonferroni([]float64{math.NaN()}, 0.05); err == nil {
		t.Error("NaN p-value accepted")
	}
	if rej, err := HolmBonferroni(nil, 0.05); err != nil || len(rej) != 0 {
		t.Errorf("empty family: rej=%v err=%v", rej, err)
	}
}

func TestConvergenceDetectorConstantSamples(t *testing.T) {
	// A constant nonzero sequence converges exactly when both MinRuns and
	// Window are satisfied — never earlier.
	c := &ConvergenceDetector{MinRuns: 5, Window: 3, Tolerance: 0.01}
	for i := 1; i <= 4; i++ {
		if c.Observe(250e-6) {
			t.Fatalf("converged at n=%d < MinRuns", i)
		}
	}
	if !c.Observe(250e-6) {
		t.Fatal("constant sequence not converged at MinRuns")
	}

	// Constant zero must converge too: a perfectly stable running mean of 0
	// used to trip the relative-change division guard and never stabilize.
	z := &ConvergenceDetector{MinRuns: 5, Window: 3, Tolerance: 0.01}
	for i := 1; i <= 4; i++ {
		if z.Observe(0) {
			t.Fatalf("zero sequence converged at n=%d < MinRuns", i)
		}
	}
	if !z.Observe(0) {
		t.Fatal("constant-zero sequence never converged")
	}
}

func TestConvergenceDetectorTwoSampleMinimum(t *testing.T) {
	// The smallest meaningful configuration: converges at n=2 on a stable
	// pair, and a second jumpy observation resets the window.
	c := &ConvergenceDetector{MinRuns: 2, Window: 1, Tolerance: 0.05}
	if c.Observe(100) {
		t.Fatal("converged on a single observation")
	}
	if !c.Observe(101) {
		t.Fatal("stable pair not converged at the two-sample minimum")
	}

	d := &ConvergenceDetector{MinRuns: 2, Window: 1, Tolerance: 0.05}
	d.Observe(100)
	if d.Observe(200) {
		t.Fatal("converged across a 2x jump")
	}
}

func TestConvergenceDetectorObserveChecked(t *testing.T) {
	c := &ConvergenceDetector{MinRuns: 2, Window: 1, Tolerance: 0.05}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.ObserveChecked(bad); err == nil {
			t.Errorf("observation %g accepted", bad)
		}
	}
	if c.N() != 0 {
		t.Errorf("rejected observations were recorded: n=%d", c.N())
	}
	ok, err := c.ObserveChecked(100)
	if err != nil || ok {
		t.Errorf("first finite observation: ok=%v err=%v", ok, err)
	}
	if ok, err := c.ObserveChecked(100.5); err != nil || !ok {
		t.Errorf("stable pair: ok=%v err=%v", ok, err)
	}
}
