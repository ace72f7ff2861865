package quantreg

import (
	"fmt"
	"math"
	"sort"

	"treadmill/internal/dist"
	"treadmill/internal/stats"
)

// Solver is the type of Options.Solver, which has one value.
type Solver int

// IRLS, the zero value of Options.Solver, is the only Solver Fit accepts.
//
// Deprecated: Fit has one method, the closed form, and this name survives
// from when it also selected iteratively reweighted least squares. Leave
// Options.Solver unset.
const IRLS Solver = 0

// Options configures a fit.
type Options struct {
	// Solver must be IRLS, its zero value; Fit rejects any other.
	Solver Solver
	// BootstrapSamples is ignored.
	//
	// Deprecated: Fit always reports each standard error as the exact
	// variance of the stratified bootstrap, its limit at infinitely many
	// resamples, so there is no count to choose.
	BootstrapSamples int
	// PerturbStdDev adds symmetric N(0, sd²) noise to each response once,
	// before fitting, as the paper does (§V-A) to keep the optimizer off the
	// degenerate vertices created by purely binary regressors. The closed
	// form has none to avoid but applies the same draws, and the standard
	// errors are those of the perturbed responses. 0 disables.
	PerturbStdDev float64
	// RNG draws the perturbation, one Normal per row in row order. Required
	// when PerturbStdDev > 0, unused otherwise.
	RNG *dist.RNG
	// StratifiedBootstrap is ignored.
	//
	// Deprecated: the exact standard errors are always those of the
	// stratified bootstrap, which resamples within each cell.
	StratifiedBootstrap bool
	// Workers is ignored.
	//
	// Deprecated: the exact standard errors take no refits to spread over
	// workers.
	Workers int
}

// Coefficient is one fitted model term, matching a row of the paper's
// Table IV.
type Coefficient struct {
	Term   string
	Est    float64
	StdErr float64
	P      float64 // two-sided p-value of Est/StdErr under the normal
}

// Result is a fitted quantile regression.
type Result struct {
	Tau      float64
	Coefs    []Coefficient
	PseudoR2 float64
	model    *Model
}

// Coef returns the estimate for the named term; ok is false if absent.
func (r *Result) Coef(name string) (Coefficient, bool) {
	for _, c := range r.Coefs {
		if c.Term == name {
			return c, true
		}
	}
	return Coefficient{}, false
}

// Estimates returns the coefficient vector in term order.
func (r *Result) Estimates() []float64 {
	out := make([]float64, len(r.Coefs))
	for i, c := range r.Coefs {
		out[i] = c.Est
	}
	return out
}

// Predict evaluates the fitted conditional quantile at a raw variable row.
func (r *Result) Predict(row []float64) (float64, error) {
	return r.model.Predict(r.Estimates(), row)
}

// PinballLoss is the quantile-regression check function ρ_τ summed over
// residuals: τ·u for u ≥ 0 and (τ−1)·u for u < 0 (paper Eq. 3–4 combine the
// same weighting).
func PinballLoss(residuals []float64, tau float64) float64 {
	sum := 0.0
	for _, u := range residuals {
		if u >= 0 {
			sum += tau * u
		} else {
			sum += (tau - 1) * u
		}
	}
	return sum
}

// Fit estimates the conditional tau-quantile of y given x under the model.
// x is raw explanatory rows (len(y) of them); the model expands
// interactions itself. Fit solves the paper's model, a saturated two-level
// design, in closed form (saturated.go): m's terms must be exactly the 2^k
// subsets of its variables, each variable must take exactly two finite
// values (any two: 0/1, ±1, ...), every combination of levels must have a
// row, and every response must be finite. Any other input is rejected with
// an error naming the cause.
//
// Each StdErr is exact: the standard deviation of the coefficient under the
// stratified bootstrap, which resamples every cell's responses with
// replacement, taken in its limit of infinitely many resamples (no Monte
// Carlo). A coefficient is a fixed linear combination of independent cell
// quantiles, so its variance combines each cell's closed-form bootstrap
// variance (cellVariance). P is the two-sided normal p-value of Est/StdErr,
// the summary R's quantreg prints beside its bootstrap standard errors; a
// coefficient with StdErr 0 gets P = 1 if its estimate is 0 and 0
// otherwise.
func Fit(m *Model, x [][]float64, y []float64, tau float64, opts Options) (*Result, error) {
	if tau <= 0 || tau >= 1 || math.IsNaN(tau) {
		return nil, fmt.Errorf("quantreg: tau %g out of (0,1)", tau)
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("quantreg: %d rows but %d responses", len(x), len(y))
	}
	if opts.Solver != IRLS {
		return nil, fmt.Errorf("quantreg: unknown solver %d", int(opts.Solver))
	}
	if opts.PerturbStdDev > 0 && opts.RNG == nil {
		return nil, fmt.Errorf("quantreg: perturbation requires an RNG")
	}
	plan, err := planSaturated(m, x, y)
	if err != nil {
		return nil, err
	}
	resp := make([]float64, len(y))
	copy(resp, y)
	if opts.PerturbStdDev > 0 {
		for i := range resp {
			resp[i] += opts.RNG.Normal() * opts.PerturbStdDev
		}
	}
	sorted := plan.sortedCells(resp)
	q := make([]float64, len(plan.termOf))
	vq := make([]float64, len(plan.termOf))
	for c := range q {
		cell := sorted[plan.start[c]:plan.start[c+1]]
		q[c], vq[c] = cellQuantile(cell, tau), cellVariance(cell, tau)
	}
	beta, variance := plan.coefs(q), plan.coefVariances(vq)
	pred := make([]float64, len(resp))
	for i, c := range plan.cell {
		pred[i] = q[c]
	}

	res := &Result{Tau: tau, model: m, PseudoR2: pseudoR2(pred, resp, tau)}
	res.Coefs = make([]Coefficient, len(m.Terms))
	for j, term := range m.Terms {
		c := Coefficient{Term: term.Name, Est: beta[j], StdErr: math.Sqrt(variance[j])}
		switch {
		case c.StdErr > 0:
			c.P = stats.TwoSidedPValueZ(c.Est / c.StdErr)
		case c.Est == 0:
			c.P = 1
		}
		res.Coefs[j] = c
	}
	return res, nil
}

// pseudoR2 implements the paper's Eq. 2: one minus the ratio of the model's
// pinball loss to the loss of the best constant model, whose value is the
// pinball minimizer of y (cellQuantile; an interpolated sample quantile
// can miss the minimum and inflate the ratio).
func pseudoR2(pred, y []float64, tau float64) float64 {
	residModel := make([]float64, len(y))
	for i := range y {
		residModel[i] = y[i] - pred[i]
	}
	sorted := append([]float64(nil), y...)
	sort.Float64s(sorted)
	q := cellQuantile(sorted, tau)
	residConst := make([]float64, len(y))
	for i := range y {
		residConst[i] = y[i] - q
	}
	denom := PinballLoss(residConst, tau)
	if denom == 0 {
		return 1 // constant response fitted exactly
	}
	r2 := 1 - PinballLoss(residModel, tau)/denom
	if r2 < 0 {
		r2 = 0
	}
	return r2
}
