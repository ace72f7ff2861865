package quantreg

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	// BootstrapSamples controls standard-error estimation; 0 disables the
	// bootstrap (StdErr and P are then NaN).
	BootstrapSamples int
	// PerturbStdDev adds symmetric N(0, sd²) noise to the response before
	// fitting, as the paper does (§V-A) to keep the optimizer off the
	// degenerate vertices created by purely binary regressors. The closed
	// form has none to avoid but applies the same draws. 0 disables.
	PerturbStdDev float64
	// RNG drives the bootstrap and perturbation. Required when either is
	// enabled.
	RNG *dist.RNG
	// StratifiedBootstrap resamples within groups of identical
	// explanatory rows (the cells) instead of across all rows. For designed
	// experiments (every factorial cell replicated) this keeps every cell
	// occupied in every resample, which a plain case bootstrap cannot
	// guarantee at small replicate counts.
	StratifiedBootstrap bool
	// KeepBootstrap retains the bootstrap coefficient replicates on the
	// Result, enabling PredictCI.
	KeepBootstrap bool
	// Workers bounds how many bootstrap refits run concurrently. Every
	// resample draws from its own RNG stream derived from the caller's RNG
	// (one splitmix-spaced seed per replicate), so StdErr, P, and PredictCI
	// are bit-identical at any parallelism. 0 means GOMAXPROCS; 1 runs the
	// refits on the calling goroutine.
	Workers int
}

// Coefficient is one fitted model term, matching a row of the paper's
// Table IV.
type Coefficient struct {
	Term   string
	Est    float64
	StdErr float64 // NaN when the bootstrap is disabled
	P      float64 // two-sided p-value; NaN when the bootstrap is disabled
}

// Result is a fitted quantile regression.
type Result struct {
	Tau      float64
	Coefs    []Coefficient
	PseudoR2 float64
	model    *Model
	// bootEsts holds bootstrap coefficient replicates when
	// Options.KeepBootstrap was set.
	bootEsts [][]float64
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

// PredictCI returns the point prediction plus a percentile-bootstrap
// confidence interval at the given coverage. It requires the fit to have
// been run with Options.KeepBootstrap and a bootstrap sample count.
func (r *Result) PredictCI(row []float64, confidence float64) (est, lo, hi float64, err error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, 0, fmt.Errorf("quantreg: confidence %g out of (0,1)", confidence)
	}
	if len(r.bootEsts) == 0 {
		return 0, 0, 0, fmt.Errorf("quantreg: PredictCI needs a fit with KeepBootstrap")
	}
	est, err = r.Predict(row)
	if err != nil {
		return 0, 0, 0, err
	}
	preds := make([]float64, len(r.bootEsts))
	for i, beta := range r.bootEsts {
		preds[i], err = r.model.Predict(beta, row)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	alpha := (1 - confidence) / 2
	lo, err = stats.Quantile(preds, alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	hi, err = stats.Quantile(preds, 1-alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	return est, lo, hi, nil
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
// design, in closed form (saturated.go), for the estimate and for every
// bootstrap refit: m's terms must be exactly the 2^k subsets of its
// variables, each variable must take exactly two finite values (any two: 0/1,
// ±1, ...), every combination of levels must have a row, and every response
// must be finite. Any other input is rejected with an error naming the cause.
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
	if (opts.PerturbStdDev > 0 || opts.BootstrapSamples > 0) && opts.RNG == nil {
		return nil, fmt.Errorf("quantreg: perturbation/bootstrap requires an RNG")
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
	scratch := plan.newScratch()
	beta, err := plan.fit(nil, resp, tau, scratch)
	if err != nil {
		return nil, err
	}
	pred := make([]float64, len(resp))
	for i, c := range plan.cell {
		pred[i] = scratch.q[c]
	}

	res := &Result{Tau: tau, model: m}
	res.Coefs = make([]Coefficient, len(m.Terms))
	for j, term := range m.Terms {
		res.Coefs[j] = Coefficient{Term: term.Name, Est: beta[j], StdErr: math.NaN(), P: math.NaN()}
	}
	res.PseudoR2 = pseudoR2(pred, resp, tau)

	if opts.BootstrapSamples > 0 {
		if err := bootstrapInference(res, plan, y, tau, opts); err != nil {
			return nil, err
		}
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

// bootstrapWorkers resolves the configured refit parallelism.
func bootstrapWorkers(opts Options, b int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > b {
		w = b
	}
	return w
}

// repSeed derives the RNG seed for bootstrap replicate rep from the stream
// base. Golden-ratio spacing keeps nearby replicate indices on unrelated
// streams (dist.NewRNG splitmixes the seed again).
func repSeed(base uint64, rep int) uint64 {
	return base ^ (uint64(rep)+1)*0x9e3779b97f4a7c15
}

// bootstrapInference fills in StdErr and P by resampling rows with
// replacement (the xy-pair bootstrap, standard for quantile regression) and
// refitting in closed form. P-values use the normal approximation z =
// est/se, the same summary R's quantreg reports with "boot" standard errors.
// A plain resample that leaves a cell empty counts as a failed refit.
//
// Refits fan out over a bounded worker pool (Options.Workers). Each
// replicate draws from an independent RNG stream seeded from a single draw
// of the caller's RNG, so the inference is deterministic for any worker
// count — the resample a replicate sees depends only on its index, never on
// scheduling. The draws, per replicate from dist.NewRNG(repSeed(base, rep)):
// per group, per member one Intn, then one Normal when perturbing. A plain
// resample is one group of all rows; a stratified one has a group per cell,
// in the order the cells first appear in x.
func bootstrapInference(res *Result, plan *saturatedPlan, y []float64, tau float64, opts Options) error {
	b := opts.BootstrapSamples
	if b < 20 {
		return fmt.Errorf("quantreg: need >= 20 bootstrap samples, got %d", b)
	}
	n := len(y)
	// For the stratified bootstrap, group row indices by cell once up front
	// (read-only across workers).
	var groups [][]int
	if opts.StratifiedBootstrap {
		groupOf := make([]int, len(plan.termOf)) // 1 + index into groups; 0 before the cell's first row
		for i, c := range plan.cell {
			if groupOf[c] == 0 {
				groups = append(groups, nil)
				groupOf[c] = len(groups)
			}
			groups[groupOf[c]-1] = append(groups[groupOf[c]-1], i)
		}
	}

	// One draw from the caller's RNG seeds all replicate streams.
	streamBase := opts.RNG.Uint64()
	byRep := make([][]float64, b) // successful refits, indexed by replicate
	repErrs := make([]error, b)   // the failure per replicate, for reporting
	var nextRep int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < bootstrapWorkers(opts, b); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := make([]int, n) // the resample, as row indices
			by := make([]float64, n)
			scratch := plan.newScratch()
			for {
				rep := int(atomic.AddInt64(&nextRep, 1))
				if rep >= b {
					return
				}
				rng := dist.NewRNG(repSeed(streamBase, rep))
				if opts.StratifiedBootstrap {
					pos := 0
					for _, g := range groups {
						for range g {
							rows[pos] = g[rng.Intn(len(g))]
							by[pos] = y[rows[pos]]
							if opts.PerturbStdDev > 0 {
								by[pos] += rng.Normal() * opts.PerturbStdDev
							}
							pos++
						}
					}
				} else {
					for i := 0; i < n; i++ {
						rows[i] = rng.Intn(n)
						by[i] = y[rows[i]]
						if opts.PerturbStdDev > 0 {
							by[i] += rng.Normal() * opts.PerturbStdDev
						}
					}
				}
				byRep[rep], repErrs[rep] = plan.fit(rows, by, tau, scratch)
			}
		}()
	}
	wg.Wait()

	ests := make([][]float64, 0, b)
	failures := 0
	var lastErr error
	for rep := 0; rep < b; rep++ {
		if byRep[rep] != nil {
			ests = append(ests, byRep[rep])
			continue
		}
		failures++
		lastErr = repErrs[rep]
	}
	if failures > b/4 {
		return fmt.Errorf("quantreg: %d/%d bootstrap refits failed, last: %w", failures, b, lastErr)
	}
	if len(ests) < 20 {
		return fmt.Errorf("quantreg: only %d successful bootstrap refits", len(ests))
	}
	if opts.KeepBootstrap {
		res.bootEsts = ests
	}
	for j := range res.Coefs {
		col := make([]float64, len(ests))
		for r, e := range ests {
			col[r] = e[j]
		}
		se := stats.StdDev(col)
		res.Coefs[j].StdErr = se
		if se == 0 {
			if res.Coefs[j].Est == 0 {
				res.Coefs[j].P = 1
			} else {
				res.Coefs[j].P = 0
			}
			continue
		}
		res.Coefs[j].P = stats.TwoSidedPValueZ(res.Coefs[j].Est / se)
	}
	return nil
}
