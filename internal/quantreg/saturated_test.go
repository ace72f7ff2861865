package quantreg

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"treadmill/internal/dist"
)

// A saturated 2^k model has one free parameter per cell, so the pinball loss
// separates by cell: the τ-regression optimum is the set of τ-quantiles of
// each cell's replicates, and the 0/1-coded coefficients are the Möbius
// transform of those cell values over the factor lattice,
// β_S = Σ_{T⊆S} (−1)^{|S|−|T|} q_T. The tests in this file hold every solver
// to that, with an oracle that shares no code with any of them.

// ratio is a quantile level kept as a fraction so a test can tell in integer
// arithmetic whether n·τ is whole.
type ratio struct{ num, den int }

func (r ratio) tau() float64      { return float64(r.num) / float64(r.den) }
func (r ratio) tiedAt(n int) bool { return n*r.num%r.den == 0 }

var oracleTaus = []ratio{{1, 4}, {1, 2}, {9, 10}, {99, 100}}

// saturatedProblem is a seeded replicated 2^k design: counts[c] rows in cell
// c (bit v of c is variable v's level), rows shuffled so that cells appear
// in no particular order, responses near 100 with continuous noise so no two
// are equal.
type saturatedProblem struct {
	k     int
	model *Model
	x     [][]float64
	y     []float64
	cells [][]float64 // cells[c]: cell c's responses, ascending
	scale float64     // mean |y|, the response scale fitIRLS uses
}

func cellRow(k, c int) []float64 {
	row := make([]float64, k)
	for v := range row {
		row[v] = float64(c >> v & 1)
	}
	return row
}

func newSaturatedProblem(t testing.TB, k int, counts []int, seed uint64) *saturatedProblem {
	t.Helper()
	names := make([]string, k)
	for v := range names {
		names[v] = string(rune('a' + v))
	}
	m, err := FullFactorialModel(names)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(seed)
	p := &saturatedProblem{k: k, model: m, cells: make([][]float64, 1<<k)}
	for c, n := range counts {
		row := cellRow(k, c)
		level := 100 + 7*float64(c%5) - 3*float64(c%3)
		for r := 0; r < n; r++ {
			v := level + 4*rng.Normal()
			p.x = append(p.x, row)
			p.y = append(p.y, v)
			p.cells[c] = append(p.cells[c], v)
		}
		sort.Float64s(p.cells[c])
	}
	rng.Shuffle(len(p.y), func(i, j int) {
		p.x[i], p.x[j] = p.x[j], p.x[i]
		p.y[i], p.y[j] = p.y[j], p.y[i]
	})
	for _, v := range p.y {
		p.scale += math.Abs(v) / float64(len(p.y))
	}
	return p
}

func equalCounts(k, n int) []int {
	counts := make([]int, 1<<k)
	for c := range counts {
		counts[c] = n
	}
	return counts
}

// optimalBracket returns the set of pinball-loss minimizers of one cell by
// brute force: the loss is convex and piecewise linear with kinks at the
// data, so the minimizers are the data points of least loss and everything
// between them.
func optimalBracket(sorted []float64, tau float64) (lo, hi float64) {
	lossAt := func(q float64) float64 {
		resid := make([]float64, len(sorted))
		for i, v := range sorted {
			resid[i] = v - q
		}
		return PinballLoss(resid, tau)
	}
	best := math.Inf(1)
	for _, q := range sorted {
		best = math.Min(best, lossAt(q))
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, q := range sorted {
		if lossAt(q) <= best*(1+1e-12)+1e-300 {
			lo, hi = math.Min(lo, q), math.Max(hi, q)
		}
	}
	return lo, hi
}

// fittedCells evaluates a coefficient vector at every cell.
func (p *saturatedProblem) fittedCells(t testing.TB, beta []float64) []float64 {
	t.Helper()
	out := make([]float64, 1<<p.k)
	for c := range out {
		v, err := p.model.Predict(beta, cellRow(p.k, c))
		if err != nil {
			t.Fatal(err)
		}
		out[c] = v
	}
	return out
}

// moebius returns the 0/1-coded coefficients of the cell values q in the
// model's term order, by the subset sum itself rather than a butterfly.
func (p *saturatedProblem) moebius(q []float64) []float64 {
	beta := make([]float64, len(p.model.Terms))
	for j, term := range p.model.Terms {
		s := 0
		for _, v := range term.Vars {
			s |= 1 << v
		}
		for sub := s; ; sub = (sub - 1) & s {
			sign := 1.0
			for d := s &^ sub; d != 0; d &= d - 1 {
				sign = -sign
			}
			beta[j] += sign * q[sub]
			if sub == 0 {
				break
			}
		}
	}
	return beta
}

// loss is the pinball loss of per-cell fitted values on the problem's data.
func (p *saturatedProblem) loss(fitted []float64, tau float64) float64 {
	var resid []float64
	for c, vals := range p.cells {
		for _, v := range vals {
			resid = append(resid, v-fitted[c])
		}
	}
	return PinballLoss(resid, tau)
}

// outsideBracket is how far v lies outside [lo, hi]; 0 inside.
func outsideBracket(v, lo, hi float64) float64 {
	return math.Max(0, math.Max(lo-v, v-hi))
}

// TestSaturatedFitEqualsCellQuantiles is the oracle for the saturated fit.
// For every solver the fitted value of each cell must lie in that cell's
// optimal bracket — a single order statistic unless n·τ is whole, when it is
// the gap between two — and the coefficients must be the Möbius transform of
// the fitted cell values. Simplex is held to it exactly; fitIRLS's distance
// from the cell optimum (the order statistic, or the bracket's midpoint) is
// logged per (replicates, τ) and bounded by the bracket. The closed form,
// which Fit's default path takes on every one of these inputs, must return
// the cell optimum itself, lose nothing to Simplex and explain as much as
// IRLS.
func TestSaturatedFitEqualsCellQuantiles(t *testing.T) {
	type shape struct {
		name   string
		k      int
		reps   int // replicates per cell; 0 when the cells hold unequal counts
		counts []int
	}
	var shapes []shape
	for k := 1; k <= 5; k++ {
		for n := 1; n <= 8; n++ {
			shapes = append(shapes, shape{fmt.Sprintf("k=%d/n=%d", k, n), k, n, equalCounts(k, n)})
		}
	}
	shapes = append(shapes, shape{"k=3/unequal", 3, 0, []int{1, 4, 2, 7, 3, 10, 5, 20}})

	type devKey struct {
		reps int
		tau  float64
	}
	irlsDev := map[devKey]float64{} // largest |IRLS − cell optimum| / scale
	for si, sh := range shapes {
		p := newSaturatedProblem(t, sh.k, sh.counts, uint64(1000+si))
		for _, r := range oracleTaus {
			tau := r.tau()
			name := fmt.Sprintf("%s/tau=%g", sh.name, tau)
			lo := make([]float64, len(p.cells))
			hi := make([]float64, len(p.cells))
			for c, vals := range p.cells {
				lo[c], hi[c] = optimalBracket(vals, tau)
				if tied := hi[c] > lo[c]; tied != r.tiedAt(len(vals)) {
					t.Fatalf("%s cell %d: bracket [%g, %g] but n·τ = %d·%d/%d", name, c, lo[c], hi[c], len(vals), r.num, r.den)
				}
			}
			tol := 1e-9 * p.scale

			sx, err := Fit(p.model, p.x, p.y, tau, Options{Solver: Simplex})
			if err != nil {
				t.Fatalf("%s: simplex: %v", name, err)
			}
			if sx.Iterations == 0 {
				t.Errorf("%s: Simplex reports no pivots; it must always run the LP", name)
			}
			sxCells := p.fittedCells(t, sx.Estimates())
			for c, v := range sxCells {
				if d := outsideBracket(v, lo[c], hi[c]); d > tol {
					t.Errorf("%s: simplex cell %d = %.12g, %g outside [%.12g, %.12g]", name, c, v, d, lo[c], hi[c])
				}
			}
			for j, want := range p.moebius(sxCells) {
				if got := sx.Coefs[j].Est; math.Abs(got-want) > tol {
					t.Errorf("%s: simplex %s = %.12g, Möbius transform of its cells gives %.12g", name, sx.Coefs[j].Term, got, want)
				}
			}

			ir, err := irlsResult(p.model, p.x, p.y, tau)
			if err != nil {
				t.Fatalf("%s: fitIRLS: %v", name, err)
			}
			if ir.Iterations == 0 {
				t.Errorf("%s: fitIRLS reports no iterations", name)
			}
			key := devKey{sh.reps, tau}
			for c, v := range p.fittedCells(t, ir.Estimates()) {
				mid := (lo[c] + hi[c]) / 2
				dev := math.Abs(v - mid)
				irlsDev[key] = math.Max(irlsDev[key], dev/p.scale)
				if bound := (hi[c]-lo[c])/2 + 1e-6*p.scale; dev > bound {
					t.Errorf("%s: fitIRLS cell %d = %.12g is %g from the cell optimum %.12g, bound %g", name, c, v, dev, mid, bound)
				}
			}

			cf, err := Fit(p.model, p.x, p.y, tau, Options{})
			if err != nil {
				t.Fatalf("%s: closed form: %v", name, err)
			}
			if cf.Iterations != 0 {
				t.Errorf("%s: default path took %d iterations on a saturated design, want the closed form", name, cf.Iterations)
			}
			cfCells := p.fittedCells(t, cf.Estimates())
			for c, v := range cfCells {
				if mid := (lo[c] + hi[c]) / 2; math.Abs(v-mid) > 1e-12*p.scale {
					t.Errorf("%s: closed-form cell %d = %.15g, want %.15g (bracket [%.15g, %.15g])", name, c, v, mid, lo[c], hi[c])
				}
			}
			if lc, ls := p.loss(cfCells, tau), p.loss(sxCells, tau); lc > ls*(1+1e-12) {
				t.Errorf("%s: closed-form loss %.15g exceeds simplex optimum %.15g", name, lc, ls)
			}
			// IRLS stops a hair short of the optimum, so it can only explain
			// less, and only by what that hair costs.
			if d := cf.PseudoR2 - ir.PseudoR2; d < -1e-12 || d > 1e-7 {
				t.Errorf("%s: pseudo-R2 %.12g (closed form) vs %.12g (IRLS)", name, cf.PseudoR2, ir.PseudoR2)
			}
		}
	}
	for n := 0; n <= 8; n++ {
		line := fmt.Sprintf("replicates=%d", n)
		if n == 0 {
			line = "replicates=unequal"
		}
		for _, r := range oracleTaus {
			mark := ""
			if n > 0 && r.tiedAt(n) {
				mark = " (tie)"
			}
			line += fmt.Sprintf("  tau=%g: %.1e%s", r.tau(), irlsDev[devKey{n, r.tau()}], mark)
		}
		t.Logf("largest |fitIRLS − cell optimum| / response scale: %s", line)
	}
}

// TestCellQuantileRule pins the closed form's tie rule: the ⌈n·τ⌉-th order
// statistic, or the midpoint of the h-th and (h+1)-th when n·τ is the whole
// number h — including products that are whole on paper and not in floating
// point (0.29·100 = 28.999…96, 0.57·100 = 56.999…99, 0.07·100 = 7.000…01).
func TestCellQuantileRule(t *testing.T) {
	// With sorted[i] = i+1 the answer reads as a 1-based rank; x.5 is the
	// midpoint of ranks x and x+1.
	cases := []struct {
		n    int
		tau  float64
		want float64
	}{
		{100, 0.29, 29.5},
		{100, 0.57, 57.5},
		{100, 0.07, 7.5},
		{20, 0.95, 19.5},
		{30, 0.5, 15.5},
		{2, 0.5, 1.5},
		{3, 0.5, 2},
		{2, 0.95, 2},
		{2, 0.99, 2},
		{8, 0.99, 8},
		{30, 0.95, 29},
		{30, 0.99, 30},
		{100, 0.291, 30},
		{100, 0.289, 29},
		{7, 0.25, 2},
		{1, 0.01, 1},
		{1, 0.5, 1},
		{1, 0.99, 1},
		{5, 1e-12, 1},
		{5, 1 - 1e-12, 5},
	}
	for _, tc := range cases {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := cellQuantile(sorted, tc.tau); got != tc.want {
			t.Errorf("cellQuantile(1..%d, %g) = %g, want %g", tc.n, tc.tau, got, tc.want)
		}
	}
}

// bootstrapBothWays runs bootstrapInference on a saturated problem twice
// from the same RNG state — once with the plan (closed-form refits, rows
// grouped by cell) and once without (IRLS refits, rows grouped by their
// printed form) — and returns the retained replicates.
func bootstrapBothWays(t *testing.T, p *saturatedProblem, tau float64, opts Options) (closed, irls [][]float64) {
	t.Helper()
	opts = opts.withDefaults()
	opts.KeepBootstrap = true
	plan := planSaturated(p.model, p.x, p.y)
	if plan == nil {
		t.Fatal("no plan for a saturated problem")
	}
	run := func(plan *saturatedPlan) [][]float64 {
		res, err := irlsResult(p.model, p.x, p.y, tau)
		if err != nil {
			t.Fatal(err)
		}
		opts.RNG = dist.NewRNG(77)
		if err := bootstrapInference(res, p.model, plan, p.x, p.y, tau, opts); err != nil {
			t.Fatal(err)
		}
		return res.bootEsts
	}
	return run(plan), run(nil)
}

// TestSaturatedBootstrapMatchesIRLSResamples proves the closed-form
// bootstrap consumes its RNG exactly as the IRLS one does: replicate by
// replicate, for any worker count, the closed-form refit equals fitIRLS run
// on what must therefore be the same resample and the same perturbation
// draws. τ = 0.87 keeps n·τ fractional for every cell count a plain resample
// can produce here, so both solvers have a unique optimum to agree on, and
// IRLS gets 2,000 iterations to reach it: at the default 200 a refit whose
// n·τ is merely close to whole (8 · 0.87 = 6.96) stops up to 4e-4 of the
// response scale short.
func TestSaturatedBootstrapMatchesIRLSResamples(t *testing.T) {
	roomy := newSaturatedProblem(t, 3, []int{6, 9, 6, 7, 12, 6, 8, 6}, 42)
	// Three rows per cell: about one plain resample in eight leaves a cell
	// empty, falls through to the design-matrix path and fails there as
	// rank-deficient, exactly as it did before the closed form.
	tight := newSaturatedProblem(t, 2, equalCounts(2, 3), 43)
	const tau, resamples = 0.87, 40
	cases := []struct {
		name       string
		p          *saturatedProblem
		stratified bool
	}{
		{"stratified", roomy, true},
		{"plain", roomy, false},
		{"plain, cells emptied", tight, false},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s workers=%d", tc.name, workers)
			closed, irls := bootstrapBothWays(t, tc.p, tau, Options{
				BootstrapSamples:    resamples,
				PerturbStdDev:       0.04,
				StratifiedBootstrap: tc.stratified,
				Workers:             workers,
				MaxIterations:       2000,
			})
			dropped := resamples - len(closed)
			if len(closed) != len(irls) || (tc.stratified && dropped > 0) || (tc.p == tight && dropped == 0) {
				t.Fatalf("%s: %d closed-form and %d IRLS replicates of %d", name, len(closed), len(irls), resamples)
			}
			worst := 0.0
			for rep := range closed {
				for j := range closed[rep] {
					worst = math.Max(worst, math.Abs(closed[rep][j]-irls[rep][j]))
				}
			}
			if worst > 1e-6*tc.p.scale {
				t.Errorf("%s: replicates differ by up to %g (%.1e of the response scale); the resamples moved", name, worst, worst/tc.p.scale)
			}
		}
	}
}

// TestSaturatedBootstrapAllocs pins what a closed-form refit costs the
// collector: its RNG stream and its coefficient vector. Grouping by cell
// index instead of by printed row is part of the budget — the fixed cost of
// the fit is counted in.
func TestSaturatedBootstrapAllocs(t *testing.T) {
	p := newSaturatedProblem(t, 4, equalCounts(4, 2), 9)
	const resamples = 400
	perFit := testing.AllocsPerRun(5, func() {
		_, err := Fit(p.model, p.x, p.y, 0.5, Options{
			BootstrapSamples:    resamples,
			PerturbStdDev:       0.04,
			RNG:                 dist.NewRNG(1),
			StratifiedBootstrap: true,
			Workers:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if perResample := perFit / resamples; perResample > 3 {
		t.Errorf("%.2f allocations per closed-form resample (%.0f per fit), want <= 3", perResample, perFit)
	}
}

// TestDisabledFactorCoefficientsExactlyZero is the metamorphic check the
// closed form makes exact: if a factor's two levels carry identical
// responses, every cell quantile equals its neighbour across that factor
// bit for bit, so every coefficient whose term contains the factor is a
// difference of equal numbers — 0.0, whichever pass of the butterfly the
// factor falls in — and every other coefficient is what the same data gives
// with the factor's column removed.
func TestDisabledFactorCoefficientsExactlyZero(t *testing.T) {
	for k := 2; k <= 4; k++ {
		for dead := 0; dead < k; dead++ {
			for _, tau := range []float64{0.5, 0.9} {
				name := fmt.Sprintf("k=%d dead=%d tau=%g", k, dead, tau)
				p := newSaturatedProblem(t, k, equalCounts(k, 5), uint64(10*k+dead))
				// Overwrite the dead factor's level-1 cells with their
				// level-0 neighbours' responses.
				next := make([]int, 1<<k)
				for i, row := range p.x {
					c := 0
					for v, level := range row {
						c |= int(level) << v
					}
					p.y[i] = p.cells[c&^(1<<dead)][next[c]]
					next[c]++
				}
				full, err := Fit(p.model, p.x, p.y, tau, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				var names []string
				for v, n := range p.model.VarNames {
					if v != dead {
						names = append(names, n)
					}
				}
				reduced, err := FullFactorialModel(names)
				if err != nil {
					t.Fatal(err)
				}
				xr := make([][]float64, len(p.x))
				for i, row := range p.x {
					xr[i] = append(append([]float64(nil), row[:dead]...), row[dead+1:]...)
				}
				without, err := Fit(reduced, xr, p.y, tau, Options{})
				if err != nil {
					t.Fatalf("%s: reduced fit: %v", name, err)
				}
				if full.Iterations != 0 || without.Iterations != 0 {
					t.Fatalf("%s: not the closed form (%d, %d iterations)", name, full.Iterations, without.Iterations)
				}

				for j, term := range p.model.Terms {
					containsDead := false
					for _, v := range term.Vars {
						containsDead = containsDead || v == dead
					}
					got := full.Coefs[j].Est
					if containsDead {
						if got != 0 {
							t.Errorf("%s: %s = %g, want exactly 0", name, term.Name, got)
						}
						continue
					}
					want, ok := without.Coef(term.Name)
					if !ok {
						t.Fatalf("%s: reduced model has no term %s", name, term.Name)
					}
					if got != want.Est {
						t.Errorf("%s: %s = %.17g, without the factor %.17g", name, term.Name, got, want.Est)
					}
				}
			}
		}
	}
}

// TestSaturatedFallThrough: inputs one step outside the closed form's
// contract take the design-matrix path and return exactly what it returns —
// estimates, iteration count or error.
func TestSaturatedFallThrough(t *testing.T) {
	base := newSaturatedProblem(t, 2, equalCounts(2, 6), 5)
	full := base.model
	mains, _ := FactorialModel(full.VarNames, 1)
	dupSubset := &Model{VarNames: full.VarNames, Terms: []Term{
		{Name: "(Intercept)"}, {Vars: []int{0}, Name: "a"}, {Vars: []int{1}, Name: "b"}, {Vars: []int{1}, Name: "b again"},
	}}
	recoded := func(f func(row []float64, i int) []float64) [][]float64 {
		out := make([][]float64, len(base.x))
		for i, row := range base.x {
			out[i] = f(append([]float64(nil), row...), i)
		}
		return out
	}
	nanY := append([]float64(nil), base.y...)
	nanY[3] = math.NaN()
	var xMissing [][]float64
	var yMissing []float64
	for i, row := range base.x {
		if row[0] == 1 && row[1] == 1 {
			continue
		}
		xMissing = append(xMissing, row)
		yMissing = append(yMissing, base.y[i])
	}
	cases := []struct {
		name string
		m    *Model
		x    [][]float64
		y    []float64
	}{
		{"levels coded 0/2", full, recoded(func(row []float64, _ int) []float64 { row[0] *= 2; return row }), base.y},
		{"one level at 0.5", full, recoded(func(row []float64, i int) []float64 {
			if i == 0 {
				row[1] = 0.5
			}
			return row
		}), base.y},
		{"missing cell", full, xMissing, yMissing},
		{"NaN response", full, base.x, nanY},
		{"subset twice, another missing", dupSubset, base.x, base.y},
		{"main effects only", mains, base.x, base.y},
	}
	for _, tc := range cases {
		got, gotErr := Fit(tc.m, tc.x, tc.y, 0.9, Options{})
		want, wantErr := irlsResult(tc.m, tc.x, tc.y, 0.9)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: Fit error %v, design-matrix path %v", tc.name, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			t.Logf("%s: both fail: %v", tc.name, gotErr)
			continue
		}
		if got.Iterations == 0 || got.Iterations != want.Iterations {
			t.Errorf("%s: %d iterations, design-matrix path %d", tc.name, got.Iterations, want.Iterations)
		}
		for j := range want.Coefs {
			if g, w := got.Coefs[j].Est, want.Coefs[j].Est; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: %s = %v, design-matrix path %v", tc.name, want.Coefs[j].Term, g, w)
			}
		}
	}
}
