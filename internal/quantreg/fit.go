package quantreg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"treadmill/internal/dist"
	"treadmill/internal/linalg"
	"treadmill/internal/stats"
)

// Solver selects the pinball-loss minimizer.
type Solver int

const (
	// IRLS, the zero value, is the default path and picks its method from
	// the input. A saturated two-level design (the terms are exactly the 2^k
	// variable subsets, every row is exactly 0/1, every cell has a row, every
	// response is finite: the paper's full factorial) is solved exactly, as
	// each cell's τ-quantile followed by a Möbius transform (saturated.go).
	// Anything else is solved by iteratively reweighted least squares on an
	// epsilon-smoothed pinball loss, accurate to ~1e-6 of the exact optimum.
	IRLS Solver = iota
	// Simplex solves the exact linear-programming formulation with Bland's
	// rule. Exact but O(n) pivots of O(n·p) work each; used as the
	// correctness oracle, so it runs the LP whatever the input.
	Simplex
)

// String returns the solver name.
func (s Solver) String() string {
	switch s {
	case IRLS:
		return "irls"
	case Simplex:
		return "simplex"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Options configures a fit.
type Options struct {
	// Solver picks the optimizer. Default IRLS.
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
	// explanatory rows instead of across all rows. For designed
	// experiments (every factorial cell replicated) this keeps each
	// resample full rank, which a plain case bootstrap cannot guarantee
	// at small replicate counts.
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
	// MaxIterations bounds IRLS iterations (default 200). IRLS only.
	MaxIterations int
	// Tolerance is the IRLS convergence threshold on the max coefficient
	// change (default 1e-10, in response units). IRLS only.
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-10
	}
	return o
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
	// Iterations reports solver work: IRLS iterations or simplex pivots, and
	// 0 exactly when the closed form produced the estimate.
	Iterations int
	model      *Model
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
// interactions itself. Options.Solver and the input decide how the estimate
// and every bootstrap refit are computed; see IRLS.
func Fit(m *Model, x [][]float64, y []float64, tau float64, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if tau <= 0 || tau >= 1 || math.IsNaN(tau) {
		return nil, fmt.Errorf("quantreg: tau %g out of (0,1)", tau)
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("quantreg: %d rows but %d responses", len(x), len(y))
	}
	if len(y) < m.NumTerms() {
		return nil, fmt.Errorf("quantreg: %d samples cannot identify %d terms", len(y), m.NumTerms())
	}
	if (opts.PerturbStdDev > 0 || opts.BootstrapSamples > 0) && opts.RNG == nil {
		return nil, fmt.Errorf("quantreg: perturbation/bootstrap requires an RNG")
	}
	resp := make([]float64, len(y))
	copy(resp, y)
	if opts.PerturbStdDev > 0 {
		for i := range resp {
			resp[i] += opts.RNG.Normal() * opts.PerturbStdDev
		}
	}

	// The default path solves a saturated two-level design in closed form;
	// everything else, and an explicit Simplex, goes through a design matrix.
	var plan *saturatedPlan
	var beta, pred []float64
	iters := 0
	if opts.Solver == IRLS {
		plan = planSaturated(m, x, y)
	}
	if plan != nil {
		scratch := plan.newScratch()
		if beta = plan.fit(nil, resp, tau, scratch); beta == nil {
			plan = nil // an empty cell: not a complete design
		} else {
			for _, c := range plan.cell {
				pred = append(pred, scratch.q[c])
			}
		}
	}
	if plan == nil {
		design, err := m.Design(x)
		if err != nil {
			return nil, err
		}
		if beta, iters, err = solve(design, resp, tau, opts); err != nil {
			return nil, err
		}
		pred = design.MulVec(beta)
	}

	res := &Result{Tau: tau, Iterations: iters, model: m}
	res.Coefs = make([]Coefficient, len(m.Terms))
	for j, term := range m.Terms {
		res.Coefs[j] = Coefficient{Term: term.Name, Est: beta[j], StdErr: math.NaN(), P: math.NaN()}
	}
	res.PseudoR2 = pseudoR2(pred, resp, tau)

	if opts.BootstrapSamples > 0 {
		if err := bootstrapInference(res, m, plan, x, y, tau, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func solve(design *linalg.Matrix, y []float64, tau float64, opts Options) ([]float64, int, error) {
	switch opts.Solver {
	case IRLS:
		return fitIRLS(design, y, tau, opts.MaxIterations, opts.Tolerance)
	case Simplex:
		return fitSimplex(design, y, tau)
	default:
		return nil, 0, fmt.Errorf("quantreg: unknown solver %v", opts.Solver)
	}
}

// fitIRLS minimizes the smoothed pinball loss by iteratively reweighted
// least squares. Each iteration solves a weighted LS problem with weights
// w_i = |τ − 1{r_i<0}| / max(|r_i|, ε); as residuals stabilize the solution
// approaches the exact quantile-regression estimate. ε is annealed from a
// large value down to 1e-9 of the response scale for numerical stability.
func fitIRLS(design *linalg.Matrix, y []float64, tau float64, maxIter int, tol float64) ([]float64, int, error) {
	n := design.Rows
	// Start from the ordinary LS fit.
	beta, err := linalg.SolveLeastSquares(design, y)
	if err != nil {
		return nil, 0, fmt.Errorf("quantreg: initial LS fit: %w", err)
	}
	scale := 0.0
	for _, v := range y {
		scale += math.Abs(v)
	}
	scale = math.Max(scale/float64(n), 1e-300)
	eps := scale * 1e-2

	w := make([]float64, n)
	iters := 0
	for it := 0; it < maxIter; it++ {
		iters++
		pred := design.MulVec(beta)
		for i := 0; i < n; i++ {
			r := y[i] - pred[i]
			grad := tau
			if r < 0 {
				grad = 1 - tau
			}
			w[i] = grad / math.Max(math.Abs(r), eps)
		}
		next, err := linalg.SolveWeightedLeastSquares(design, y, w)
		if err != nil {
			return nil, iters, fmt.Errorf("quantreg: IRLS iteration %d: %w", it, err)
		}
		delta := 0.0
		for j := range beta {
			delta = math.Max(delta, math.Abs(next[j]-beta[j]))
		}
		beta = next
		if delta < tol*math.Max(scale, 1) {
			if eps <= scale*1e-9 {
				break
			}
			eps /= 10 // anneal and keep refining
		}
	}
	return beta, iters, nil
}

// pseudoR2 implements the paper's Eq. 2: one minus the ratio of the model's
// pinball loss to the loss of the best constant model (the empirical
// tau-quantile of y).
func pseudoR2(pred, y []float64, tau float64) float64 {
	residModel := make([]float64, len(y))
	for i := range y {
		residModel[i] = y[i] - pred[i]
	}
	q, err := stats.Quantile(y, tau)
	if err != nil {
		return math.NaN()
	}
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
// refitting. P-values use the normal approximation z = est/se, the same
// summary R's quantreg reports with "boot" standard errors.
//
// Refits fan out over a bounded worker pool (Options.Workers). Each
// replicate draws from an independent RNG stream seeded from a single draw
// of the caller's RNG, so the inference is deterministic for any worker
// count — the resample a replicate sees depends only on its index, never on
// scheduling.
//
// With a plan (Fit solved the point estimate in closed form) every refit is
// solved the same way, except a plain resample that emptied a cell, which
// takes the design-matrix path. The draws do not depend on the plan: per
// replicate, per group, per member one Intn, then one Normal when perturbing.
func bootstrapInference(res *Result, m *Model, plan *saturatedPlan, x [][]float64, y []float64, tau float64, opts Options) error {
	b := opts.BootstrapSamples
	if b < 20 {
		return fmt.Errorf("quantreg: need >= 20 bootstrap samples, got %d", b)
	}
	n := len(y)
	// For the stratified bootstrap, group row indices by identical
	// explanatory rows once up front (read-only across workers): by cell
	// with a plan, by the row's printed form without one — the same groups.
	var groups [][]int
	if opts.StratifiedBootstrap {
		byKey := make(map[any][]int)
		var order []any
		for i, row := range x {
			var key any
			if plan != nil {
				key = plan.cell[i]
			} else {
				key = fmt.Sprintf("%v", row)
			}
			if _, ok := byKey[key]; !ok {
				order = append(order, key)
			}
			byKey[key] = append(byKey[key], i)
		}
		for _, key := range order {
			groups = append(groups, byKey[key])
		}
	}

	// One draw from the caller's RNG seeds all replicate streams.
	streamBase := opts.RNG.Uint64()
	byRep := make([][]float64, b) // successful refits, indexed by replicate
	repErrs := make([]error, b)   // first failure per replicate, for reporting
	var nextRep int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < bootstrapWorkers(opts, b); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := make([]int, n) // the resample, as indices into x and y
			bx := make([][]float64, n)
			by := make([]float64, n)
			var scratch *saturatedScratch
			if plan != nil {
				scratch = plan.newScratch()
			}
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
				if plan != nil {
					if byRep[rep] = plan.fit(rows, by, tau, scratch); byRep[rep] != nil {
						continue
					}
					// A cell came up empty; the general path decides.
				}
				for i, j := range rows {
					bx[i] = x[j]
				}
				design, err := m.Design(bx)
				if err != nil {
					repErrs[rep] = err
					continue
				}
				beta, _, err := solve(design, by, tau, opts)
				if err != nil {
					// A resample can be rank-deficient (e.g. a factor level
					// absent); skip it but fail if that happens too often.
					repErrs[rep] = err
					continue
				}
				byRep[rep] = beta
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
