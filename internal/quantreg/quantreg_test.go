package quantreg

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"treadmill/internal/dist"
	"treadmill/internal/stats"
)

func TestFactorialModelTerms(t *testing.T) {
	m, err := FullFactorialModel([]string{"numa", "turbo", "dvfs", "nic"})
	if err != nil {
		t.Fatal(err)
	}
	// 1 intercept + C(4,1)+C(4,2)+C(4,3)+C(4,4) = 1+4+6+4+1 = 16 terms,
	// exactly the 16 rows of the paper's Table IV.
	if m.NumTerms() != 16 {
		t.Fatalf("terms = %d, want 16", m.NumTerms())
	}
	if m.Terms[0].Name != "(Intercept)" {
		t.Errorf("first term = %q", m.Terms[0].Name)
	}
	for _, want := range []string{"numa", "turbo:dvfs", "numa:dvfs:nic", "numa:turbo:dvfs:nic"} {
		if m.TermIndex(want) < 0 {
			t.Errorf("missing term %q", want)
		}
	}
	if m.TermIndex("nope") != -1 {
		t.Error("TermIndex of missing term should be -1")
	}
	// Order: mains before interactions.
	if m.TermIndex("nic") > m.TermIndex("numa:turbo") {
		t.Error("main effects should precede interactions")
	}
}

// TestFactorialModelOrders: the full factorial over k variables holds
// C(k, r) terms of interaction order r, listed by ascending order.
func TestFactorialModelOrders(t *testing.T) {
	for k := 1; k <= 5; k++ {
		names := make([]string, k)
		for v := range names {
			names[v] = string(rune('a' + v))
		}
		m, err := FullFactorialModel(names)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumTerms() != 1<<k {
			t.Errorf("k=%d: %d terms, want %d", k, m.NumTerms(), 1<<k)
		}
		count := make([]int, k+1)
		for j, term := range m.Terms {
			r := len(term.Vars)
			if j > 0 && r < len(m.Terms[j-1].Vars) {
				t.Errorf("k=%d: term %q (order %d) after %q", k, term.Name, r, m.Terms[j-1].Name)
			}
			count[r]++
		}
		binom := 1
		for r := 0; r <= k; r++ {
			if count[r] != binom {
				t.Errorf("k=%d: %d terms of order %d, want %d", k, count[r], r, binom)
			}
			binom = binom * (k - r) / (r + 1)
		}
	}
}

func TestFactorialModelErrors(t *testing.T) {
	if _, err := FullFactorialModel(nil); err == nil {
		t.Error("no variables should error")
	}
	many := make([]string, 17)
	for i := range many {
		many[i] = "v"
	}
	if _, err := FullFactorialModel(many); err == nil {
		t.Error("17 variables should refuse")
	}
}

func TestDesignMatrix(t *testing.T) {
	m, _ := FullFactorialModel([]string{"a", "b"})
	// terms: intercept, a, b, a:b
	d, err := m.Design([][]float64{{1, 0}, {1, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || len(d[0]) != 4 {
		t.Fatalf("design shape %dx%d", len(d), len(d[0]))
	}
	// Row {1,1}: intercept=1, a=1, b=1, ab=1.
	for j := 0; j < 4; j++ {
		if d[1][j] != 1 {
			t.Errorf("row1 col%d = %g, want 1", j, d[1][j])
		}
	}
	// Row {1,0}: ab term must be 0.
	if d[0][3] != 0 {
		t.Errorf("interaction of (1,0) = %g, want 0", d[0][3])
	}
	if _, err := m.Design([][]float64{{1}}); err == nil {
		t.Error("wrong row width should error")
	}
	if _, err := m.Design(nil); err == nil {
		t.Error("empty design should error")
	}
}

func TestPinballLoss(t *testing.T) {
	// τ=0.9: positive residual weighted 0.9, negative 0.1.
	got := PinballLoss([]float64{1, -1}, 0.9)
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("loss = %g, want 1.0", got)
	}
	if PinballLoss(nil, 0.5) != 0 {
		t.Error("empty loss should be 0")
	}
}

// genFactorial builds a synthetic 2^2 factorial dataset where the true
// conditional τ-quantile is known by construction: y = 10 + 5a + 3b − 4ab +
// noise, with noise quantile ≈ nq.
func genFactorial(rng *dist.RNG, reps int, noise func() float64) (x [][]float64, y []float64) {
	for a := 0.0; a <= 1; a++ {
		for b := 0.0; b <= 1; b++ {
			for r := 0; r < reps; r++ {
				x = append(x, []float64{a, b})
				y = append(y, 10+5*a+3*b-4*a*b+noise())
			}
		}
	}
	return
}

func TestFitMedianRecoversCoefficients(t *testing.T) {
	rng := dist.NewRNG(1)
	// Symmetric noise: median of noise is 0, so median regression should
	// recover the deterministic coefficients.
	x, y := genFactorial(rng, 200, func() float64 { return rng.Normal() * 0.5 })
	m, _ := FullFactorialModel([]string{"a", "b"})
	// Fit's closed form, and the reference LP on the same data.
	arms := []struct {
		name string
		fit  func() (*Result, error)
	}{
		{"closed-form", func() (*Result, error) { return Fit(m, x, y, 0.5, Options{}) }},
		{"simplex", func() (*Result, error) {
			res, _, err := simplexResult(m, x, y, 0.5)
			return res, err
		}},
	}
	for _, arm := range arms {
		res, err := arm.fit()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		want := map[string]float64{"(Intercept)": 10, "a": 5, "b": 3, "a:b": -4}
		for name, w := range want {
			c, ok := res.Coef(name)
			if !ok {
				t.Fatalf("%s: missing %s", arm.name, name)
			}
			if math.Abs(c.Est-w) > 0.15 {
				t.Errorf("%s: %s = %g, want ~%g", arm.name, name, c.Est, w)
			}
		}
		// With noise sd 0.5 against a signal spread of ~4 the model
		// explains roughly 3/4 of the pinball loss.
		if res.PseudoR2 < 0.65 {
			t.Errorf("%s: pseudo-R2 = %g, want > 0.65", arm.name, res.PseudoR2)
		}
	}
}

func TestFitHighQuantileShiftsIntercept(t *testing.T) {
	rng := dist.NewRNG(2)
	// Exponential noise: the τ-quantile of Exp(1) is −ln(1−τ). The fitted
	// intercept should absorb exactly that shift.
	e := dist.Exponential{Rate: 1}
	x, y := genFactorial(rng, 400, func() float64 { return e.Sample(rng) })
	m, _ := FullFactorialModel([]string{"a", "b"})
	for _, tau := range []float64{0.5, 0.9, 0.95} {
		res, err := Fit(m, x, y, tau, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, _ := res.Coef("(Intercept)")
		want := 10 - math.Log(1-tau)
		if math.Abs(c.Est-want) > 0.25 {
			t.Errorf("tau=%g: intercept = %g, want ~%g", tau, c.Est, want)
		}
		// Slopes unchanged: noise is iid across cells.
		a, _ := res.Coef("a")
		if math.Abs(a.Est-5) > 0.3 {
			t.Errorf("tau=%g: a = %g, want ~5", tau, a.Est)
		}
	}
}

func TestSimplexExactOnTinyProblem(t *testing.T) {
	// Median of {1,2,4} with intercept-only model is exactly 2 (an LP
	// vertex at a data point — a property the reference must reproduce).
	beta, _, err := fitSimplex([][]float64{{1}, {1}, {1}}, []float64{1, 2, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-9 {
		t.Errorf("median = %g, want exactly 2", beta[0])
	}
}

func TestFitErrors(t *testing.T) {
	m, _ := FullFactorialModel([]string{"a"})
	x := [][]float64{{0}, {1}, {0}, {1}}
	y := []float64{1, 2, 1, 2}
	if _, err := Fit(m, x, y, 0, Options{}); err == nil {
		t.Error("tau=0 should error")
	}
	if _, err := Fit(m, x, y[:2], 0.5, Options{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit(m, x[:1], y[:1], 0.5, Options{}); err == nil {
		t.Error("too few samples should error")
	}
	if _, err := Fit(m, x, y, 0.5, Options{BootstrapSamples: 100}); err == nil {
		t.Error("bootstrap without RNG should error")
	}
	if _, err := Fit(m, x, y, 0.5, Options{BootstrapSamples: 5, RNG: dist.NewRNG(1)}); err == nil {
		t.Error("too few bootstrap samples should error")
	}
}

func TestBootstrapInference(t *testing.T) {
	rng := dist.NewRNG(4)
	x, y := genFactorial(rng, 100, func() float64 { return rng.Normal() * 0.5 })
	m, _ := FullFactorialModel([]string{"a", "b"})
	res, err := Fit(m, x, y, 0.5, Options{BootstrapSamples: 200, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Coefs {
		if math.IsNaN(c.StdErr) || math.IsNaN(c.P) {
			t.Fatalf("%s: inference not filled in", c.Term)
		}
		if c.StdErr <= 0 {
			t.Errorf("%s: se = %g", c.Term, c.StdErr)
		}
	}
	// Large true effects must be significant; the coefficients are 5, 3,
	// -4 against noise sd 0.5 with 400 obs.
	for _, name := range []string{"a", "b", "a:b"} {
		c, _ := res.Coef(name)
		if c.P > 0.001 {
			t.Errorf("%s: p = %g, want < 0.001", name, c.P)
		}
	}
}

func TestBootstrapNullEffectInsignificant(t *testing.T) {
	rng := dist.NewRNG(5)
	// b has zero true effect, alone and with a.
	var x [][]float64
	var y []float64
	for a := 0.0; a <= 1; a++ {
		for b := 0.0; b <= 1; b++ {
			for r := 0; r < 100; r++ {
				x = append(x, []float64{a, b})
				y = append(y, 10+5*a+rng.Normal())
			}
		}
	}
	m, _ := FullFactorialModel([]string{"a", "b"})
	res, err := Fit(m, x, y, 0.5, Options{BootstrapSamples: 200, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, null := range []string{"b", "a:b"} {
		c, _ := res.Coef(null)
		if c.P < 0.01 {
			t.Errorf("null effect %s has p = %g; expected insignificant", null, c.P)
		}
	}
	ca, _ := res.Coef("a")
	if ca.P > 0.001 {
		t.Errorf("true effect a has p = %g; expected significant", ca.P)
	}
}

func TestPerturbationPreservesEstimates(t *testing.T) {
	rng := dist.NewRNG(6)
	x, y := genFactorial(rng, 150, func() float64 { return rng.Normal() })
	m, _ := FullFactorialModel([]string{"a", "b"})
	plain, err := Fit(m, x, y, 0.9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := Fit(m, x, y, 0.9, Options{PerturbStdDev: 0.01, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Coefs {
		if d := math.Abs(plain.Coefs[i].Est - pert.Coefs[i].Est); d > 0.2 {
			t.Errorf("%s: perturbation moved estimate by %g", plain.Coefs[i].Term, d)
		}
	}
}

func TestPredict(t *testing.T) {
	rng := dist.NewRNG(7)
	x, y := genFactorial(rng, 100, func() float64 { return rng.Normal() * 0.1 })
	m, _ := FullFactorialModel([]string{"a", "b"})
	res, err := Fit(m, x, y, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// y(1,1) = 10+5+3-4 = 14 at the median.
	got, err := res.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-14) > 0.2 {
		t.Errorf("predict(1,1) = %g, want ~14", got)
	}
	if _, err := res.Predict([]float64{1}); err == nil {
		t.Error("wrong row width should error")
	}
}

func TestPseudoR2Bounds(t *testing.T) {
	rng := dist.NewRNG(8)
	// Pure noise: model explains nothing; pseudo-R2 ~ 0.
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x = append(x, []float64{float64(i % 2)})
		y = append(y, rng.Normal())
	}
	m, _ := FullFactorialModel([]string{"a"})
	res, err := Fit(m, x, y, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PseudoR2 < 0 || res.PseudoR2 > 0.05 {
		t.Errorf("noise pseudo-R2 = %g, want ~0", res.PseudoR2)
	}
	// Deterministic response: pseudo-R2 = 1.
	for i := range y {
		y[i] = 3 + 2*x[i][0]
	}
	res2, err := Fit(m, x, y, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PseudoR2 < 0.999 {
		t.Errorf("deterministic pseudo-R2 = %g, want ~1", res2.PseudoR2)
	}
}

// TestPseudoR2BestConstantScoresZero: Eq. 2's denominator is the loss of
// the best constant model, so predicting the pinball-optimal constant
// explains nothing: R² is exactly 0. For y = 1…10 at τ = 0.95 the optimum
// is 10; the interpolated sample quantile, 9.55, loses 2.475 to its 2.25,
// which would score the optimal constant 0.091.
func TestPseudoR2BestConstantScoresZero(t *testing.T) {
	constant := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	y := []float64{3, 1, 4, 10, 5, 9, 2, 6, 8, 7}
	if r2 := pseudoR2(constant(len(y), 10), y, 0.95); r2 != 0 {
		t.Errorf("pseudo-R2 of the optimal constant 10 at tau=0.95 = %g, want 0", r2)
	}
	f := func(seed uint64, tau8 uint8, n8 uint8) bool {
		tau := 0.01 + 0.98*float64(tau8)/255
		rng := dist.NewRNG(seed)
		y := make([]float64, 2+int(n8)%60)
		for i := range y {
			y[i] = math.Round(rng.Float64() * 20)
		}
		if slices.Min(y) == slices.Max(y) {
			return true // a constant response scores 1 by definition
		}
		// Any point of the optimal bracket is a best constant; the loss
		// sums agree to rounding.
		lo, _ := optimalBracket(y, tau)
		return pseudoR2(constant(len(y), lo), y, tau) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: for intercept-only fits, the reference LP's estimate equals the
// sample τ-quantile (up to LP vertex choice within a data gap).
func TestInterceptOnlyQuantileProperty(t *testing.T) {
	f := func(seed uint64, tau8 uint8) bool {
		tau := 0.1 + 0.8*float64(tau8)/255
		rng := dist.NewRNG(seed)
		n := 101
		ones := make([][]float64, n)
		y := make([]float64, n)
		for i := range y {
			ones[i] = []float64{1}
			y[i] = rng.Float64() * 100
		}
		beta, _, err := fitSimplex(ones, y, tau)
		if err != nil {
			return false
		}
		lo, _ := stats.Quantile(y, math.Max(0, tau-0.03))
		hi, _ := stats.Quantile(y, math.Min(1, tau+0.03))
		return beta[0] >= lo-1e-6 && beta[0] <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: pinball loss is non-negative and zero only for zero residuals.
func TestPinballLossProperty(t *testing.T) {
	f := func(seed uint64, tau8 uint8) bool {
		tau := 0.05 + 0.9*float64(tau8)/255
		rng := dist.NewRNG(seed)
		resid := make([]float64, 20)
		for i := range resid {
			resid[i] = rng.Normal()
		}
		if PinballLoss(resid, tau) < 0 {
			return false
		}
		zero := make([]float64, 5)
		return PinballLoss(zero, tau) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStratifiedBootstrapSurvivesSmallReplicates(t *testing.T) {
	// 2 replicates per cell of a 2^4 design: a plain case bootstrap empties
	// cells; the stratified bootstrap must not.
	rng := dist.NewRNG(11)
	m, _ := FullFactorialModel([]string{"a", "b", "c", "d"})
	var x [][]float64
	var y []float64
	for mask := 0; mask < 16; mask++ {
		row := []float64{
			float64(mask & 1), float64(mask >> 1 & 1),
			float64(mask >> 2 & 1), float64(mask >> 3 & 1),
		}
		for rep := 0; rep < 2; rep++ {
			x = append(x, row)
			y = append(y, 100+20*row[0]-10*row[1]+5*row[0]*row[3]+rng.Normal())
		}
	}
	res, err := Fit(m, x, y, 0.5, Options{
		BootstrapSamples:    100,
		RNG:                 rng,
		StratifiedBootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Coefs {
		if math.IsNaN(c.StdErr) || c.StdErr < 0 {
			t.Errorf("%s: se = %g", c.Term, c.StdErr)
		}
	}
	a, _ := res.Coef("a")
	if a.P > 0.01 {
		t.Errorf("large effect a has p=%g", a.P)
	}
}

func TestPredictCI(t *testing.T) {
	rng := dist.NewRNG(21)
	x, y := genFactorial(rng, 100, func() float64 { return rng.Normal() * 0.5 })
	m, _ := FullFactorialModel([]string{"a", "b"})
	res, err := Fit(m, x, y, 0.5, Options{
		BootstrapSamples: 200, RNG: rng, KeepBootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// True median at (1,1) is 14.
	est, lo, hi, err := res.PredictCI([]float64{1, 1}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi || est < lo || est > hi {
		t.Fatalf("CI [%g, %g] does not bracket est %g", lo, hi, est)
	}
	if lo > 14 || hi < 14 {
		t.Errorf("95%% CI [%g, %g] misses true value 14", lo, hi)
	}
	if hi-lo > 1 {
		t.Errorf("CI too wide: [%g, %g]", lo, hi)
	}
	if _, _, _, err := res.PredictCI([]float64{1, 1}, 1.5); err == nil {
		t.Error("bad confidence should error")
	}
	if _, _, _, err := res.PredictCI([]float64{1}, 0.9); err == nil {
		t.Error("bad row should error")
	}
}

func TestPredictCIRequiresKeptBootstrap(t *testing.T) {
	rng := dist.NewRNG(22)
	x, y := genFactorial(rng, 50, func() float64 { return rng.Normal() })
	m, _ := FullFactorialModel([]string{"a", "b"})
	res, err := Fit(m, x, y, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := res.PredictCI([]float64{0, 0}, 0.9); err == nil {
		t.Error("PredictCI without KeepBootstrap should error")
	}
}
