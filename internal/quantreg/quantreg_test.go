package quantreg

import (
	"math"
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

func TestFactorialModelOrders(t *testing.T) {
	m, err := FactorialModel([]string{"a", "b", "c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTerms() != 4 { // intercept + 3 mains
		t.Errorf("main-effects model has %d terms, want 4", m.NumTerms())
	}
	m2, err := FactorialModel([]string{"a", "b", "c"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTerms() != 7 { // + 3 two-ways
		t.Errorf("order-2 model has %d terms, want 7", m2.NumTerms())
	}
}

func TestFactorialModelErrors(t *testing.T) {
	if _, err := FullFactorialModel(nil); err == nil {
		t.Error("no variables should error")
	}
	if _, err := FactorialModel([]string{"a"}, 0); err == nil {
		t.Error("order 0 should error")
	}
	if _, err := FactorialModel([]string{"a"}, 2); err == nil {
		t.Error("order > k should error")
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
	if d.Rows != 3 || d.Cols != 4 {
		t.Fatalf("design shape %dx%d", d.Rows, d.Cols)
	}
	// Row {1,1}: intercept=1, a=1, b=1, ab=1.
	for j := 0; j < 4; j++ {
		if d.At(1, j) != 1 {
			t.Errorf("row1 col%d = %g, want 1", j, d.At(1, j))
		}
	}
	// Row {1,0}: ab term must be 0.
	if d.At(0, 3) != 0 {
		t.Errorf("interaction of (1,0) = %g, want 0", d.At(0, 3))
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

// irlsResult runs the design-matrix IRLS path on (m, x, y) directly: what Fit
// did for every input before it learned the saturated closed form, and what
// it still does whenever the closed form does not apply.
func irlsResult(m *Model, x [][]float64, y []float64, tau float64) (*Result, error) {
	design, err := m.Design(x)
	if err != nil {
		return nil, err
	}
	opts := Options{}.withDefaults()
	beta, iters, err := fitIRLS(design, y, tau, opts.MaxIterations, opts.Tolerance)
	if err != nil {
		return nil, err
	}
	res := &Result{Tau: tau, Iterations: iters, model: m}
	for j, term := range m.Terms {
		res.Coefs = append(res.Coefs, Coefficient{Term: term.Name, Est: beta[j], StdErr: math.NaN(), P: math.NaN()})
	}
	res.PseudoR2 = pseudoR2(design.MulVec(beta), y, tau)
	return res, nil
}

func TestFitMedianRecoversCoefficients(t *testing.T) {
	rng := dist.NewRNG(1)
	// Symmetric noise: median of noise is 0, so median regression should
	// recover the deterministic coefficients.
	x, y := genFactorial(rng, 200, func() float64 { return rng.Normal() * 0.5 })
	m, _ := FullFactorialModel([]string{"a", "b"})
	// The design is saturated, so Solver: IRLS — the default path — answers
	// in closed form; the IRLS arm drives the iteration itself.
	arms := []struct {
		name      string
		fit       func() (*Result, error)
		iterative bool
	}{
		{"closed-form", func() (*Result, error) { return Fit(m, x, y, 0.5, Options{Solver: IRLS}) }, false},
		{"irls", func() (*Result, error) { return irlsResult(m, x, y, 0.5) }, true},
		{"simplex", func() (*Result, error) { return Fit(m, x, y, 0.5, Options{Solver: Simplex}) }, true},
	}
	for _, arm := range arms {
		res, err := arm.fit()
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if (res.Iterations > 0) != arm.iterative {
			t.Errorf("%s: Iterations = %d", arm.name, res.Iterations)
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
		closed, err := Fit(m, x, y, tau, Options{Solver: IRLS})
		if err != nil {
			t.Fatal(err)
		}
		if closed.Iterations != 0 {
			t.Errorf("tau=%g: saturated design took %d iterations, want the closed form", tau, closed.Iterations)
		}
		irls, err := irlsResult(m, x, y, tau)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"closed-form": closed, "irls": irls} {
			c, _ := res.Coef("(Intercept)")
			want := 10 - math.Log(1-tau)
			if math.Abs(c.Est-want) > 0.25 {
				t.Errorf("%s tau=%g: intercept = %g, want ~%g", name, tau, c.Est, want)
			}
			// Slopes unchanged: noise is iid across cells.
			a, _ := res.Coef("a")
			if math.Abs(a.Est-5) > 0.3 {
				t.Errorf("%s tau=%g: a = %g, want ~5", name, tau, a.Est)
			}
		}
	}
}

// TestIRLSMatchesSimplex compares the two iterative solvers on inputs the
// saturated closed form does not take — a main-effects model, and a full
// model over a factor and a continuous covariate — so Solver: IRLS really is
// IRLS here.
func TestIRLSMatchesSimplex(t *testing.T) {
	rng := dist.NewRNG(3)
	x, y := genFactorial(rng, 40, func() float64 { return rng.Normal() })
	mains, _ := FactorialModel([]string{"a", "b"}, 1)
	xc := make([][]float64, len(x))
	yc := make([]float64, len(y))
	for i, row := range x {
		load := rng.Float64()
		xc[i] = []float64{row[0], load}
		yc[i] = y[i] + 2*load
	}
	covariate, _ := FullFactorialModel([]string{"a", "load"})
	cases := []struct {
		name string
		m    *Model
		x    [][]float64
		y    []float64
	}{
		{"main-effects", mains, x, y},
		{"continuous-covariate", covariate, xc, yc},
	}
	for _, tc := range cases {
		for _, tau := range []float64{0.25, 0.5, 0.9} {
			ir, err := Fit(tc.m, tc.x, tc.y, tau, Options{Solver: IRLS})
			if err != nil {
				t.Fatal(err)
			}
			if ir.Iterations == 0 {
				t.Errorf("%s tau=%g: IRLS reports no iterations; the closed form must not take this input", tc.name, tau)
			}
			sx, err := Fit(tc.m, tc.x, tc.y, tau, Options{Solver: Simplex})
			if err != nil {
				t.Fatal(err)
			}
			// Compare achieved objective value, the meaningful metric (the
			// argmin can be non-unique on discrete designs).
			d, _ := tc.m.Design(tc.x)
			lossOf := func(beta []float64) float64 {
				pred := d.MulVec(beta)
				resid := make([]float64, len(tc.y))
				for i := range tc.y {
					resid[i] = tc.y[i] - pred[i]
				}
				return PinballLoss(resid, tau)
			}
			li, ls := lossOf(ir.Estimates()), lossOf(sx.Estimates())
			if li > ls*(1+1e-3)+1e-9 {
				t.Errorf("%s tau=%g: IRLS loss %g exceeds simplex optimum %g", tc.name, tau, li, ls)
			}
		}
	}
}

func TestSimplexExactOnTinyProblem(t *testing.T) {
	// Median of {1,2,4} with intercept-only model is exactly 2 (an LP
	// vertex at a data point — a property simplex must reproduce).
	m, _ := FactorialModel([]string{"z"}, 1)
	x := [][]float64{{0}, {0}, {0}}
	y := []float64{1, 2, 4}
	res, err := Fit(m, x, y, 0.5, Options{Solver: Simplex})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.Coef("(Intercept)")
	if math.Abs(c.Est-2) > 1e-9 {
		t.Errorf("median = %g, want exactly 2", c.Est)
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
	res, err := Fit(m, x, y, 0.5, Options{Solver: IRLS, BootstrapSamples: 200, RNG: rng})
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
	// b has zero true effect.
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
	m, _ := FactorialModel([]string{"a", "b"}, 1)
	res, err := Fit(m, x, y, 0.5, Options{Solver: IRLS, BootstrapSamples: 200, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := res.Coef("b")
	if cb.P < 0.01 {
		t.Errorf("null effect b has p = %g; expected insignificant", cb.P)
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
	plain, err := Fit(m, x, y, 0.9, Options{Solver: IRLS})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := Fit(m, x, y, 0.9, Options{Solver: IRLS, PerturbStdDev: 0.01, RNG: rng})
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
	res, err := Fit(m, x, y, 0.5, Options{Solver: IRLS})
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
	m, _ := FactorialModel([]string{"a"}, 1)
	res, err := Fit(m, x, y, 0.5, Options{Solver: IRLS})
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
	res2, err := Fit(m, x, y, 0.5, Options{Solver: IRLS})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PseudoR2 < 0.999 {
		t.Errorf("deterministic pseudo-R2 = %g, want ~1", res2.PseudoR2)
	}
}

func TestSolverString(t *testing.T) {
	if IRLS.String() != "irls" || Simplex.String() != "simplex" {
		t.Error("solver names wrong")
	}
	if Solver(9).String() == "" {
		t.Error("unknown solver should render")
	}
}

// Property: for intercept-only fits, the estimate equals the sample
// τ-quantile (up to LP vertex choice within a data gap).
func TestInterceptOnlyQuantileProperty(t *testing.T) {
	f := func(seed uint64, tau8 uint8) bool {
		tau := 0.1 + 0.8*float64(tau8)/255
		rng := dist.NewRNG(seed)
		n := 101
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range y {
			x[i] = []float64{0}
			y[i] = rng.Float64() * 100
		}
		m, err := FactorialModel([]string{"z"}, 1)
		if err != nil {
			return false
		}
		res, err := Fit(m, x, y, tau, Options{Solver: Simplex})
		if err != nil {
			return false
		}
		c, _ := res.Coef("(Intercept)")
		lo, _ := stats.Quantile(y, math.Max(0, tau-0.03))
		hi, _ := stats.Quantile(y, math.Min(1, tau+0.03))
		return c.Est >= lo-1e-6 && c.Est <= hi+1e-6
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
	// 2 replicates per cell of a 2^4 design: a plain case bootstrap loses
	// cells and goes rank-deficient; the stratified bootstrap must not.
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
		Solver:              IRLS,
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
		Solver: IRLS, BootstrapSamples: 200, RNG: rng, KeepBootstrap: true,
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
	res, err := Fit(m, x, y, 0.5, Options{Solver: IRLS})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := res.PredictCI([]float64{0, 0}, 0.9); err == nil {
		t.Error("PredictCI without KeepBootstrap should error")
	}
}
