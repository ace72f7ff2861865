package oracle_test

import (
	"math"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/oracle"
	"treadmill/internal/quantreg"
)

func TestQuantregRecoversAnalyticQuantileLines(t *testing.T) {
	// Location-shift design with exponential noise: y = a + b*x + e,
	// e ~ Exp(rate). The true conditional tau-quantile line has slope b
	// at EVERY tau and intercept a + Q_e(tau), with Q_e supplied by the
	// oracle (an M/M/1 with mu = 2*lambda has Exp(lambda) sojourns). A
	// quantile-regression fit must recover both within the iid quantile
	// SE — this validates the regression stage against analytic truth
	// rather than against its own bootstrap.
	const (
		a    = 10.0
		b    = 2.0
		rate = 1.0
		reps = 4000 // per factor level
	)
	noise := oracle.MM1{Lambda: rate, Mu: 2 * rate}
	rng := dist.NewRNG(408)
	exp := dist.Exponential{Rate: rate}
	x := make([][]float64, 0, 2*reps)
	y := make([]float64, 0, 2*reps)
	for _, level := range []float64{-1, 1} {
		for i := 0; i < reps; i++ {
			x = append(x, []float64{level})
			y = append(y, a+b*level+exp.Sample(rng))
		}
	}
	m, err := quantreg.FullFactorialModel([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.5, 0.9, 0.99} {
		res, err := quantreg.Fit(m, x, y, tau, quantreg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		qe, err := noise.SojournQuantile(tau)
		if err != nil {
			t.Fatal(err)
		}
		// Per-level quantile SE; intercept and slope are (q+ +- q-)/2, so
		// each inherits SE_level/sqrt(2).
		seLevel, err := oracle.QuantileSE(tau, reps, noise.SojournDensity(qe))
		if err != nil {
			t.Fatal(err)
		}
		se := seLevel / math.Sqrt2
		icept, ok := res.Coef("(Intercept)")
		if !ok {
			t.Fatal("no intercept term")
		}
		slope, ok := res.Coef("x")
		if !ok {
			t.Fatal("no x term")
		}
		iband := oracle.QuantileBand(a+qe, se, 5)
		if !iband.Contains(icept.Est) {
			t.Errorf("tau=%g intercept %.5g outside analytic band %v (truth %.5g)", tau, icept.Est, iband, a+qe)
		}
		sband := oracle.QuantileBand(b, se, 5)
		if !sband.Contains(slope.Est) {
			t.Errorf("tau=%g slope %.5g outside analytic band %v (truth %g)", tau, slope.Est, sband, b)
		}
	}
}
