package quantreg

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/stats"
)

// A saturated 2^k model has one free parameter per cell, so the pinball loss
// separates by cell: the τ-regression optimum is the set of τ-quantiles of
// each cell's replicates, and the 0/1-coded coefficients are the Möbius
// transform of those cell values over the factor lattice,
// β_S = Σ_{T⊆S} (−1)^{|S|−|T|} q_T. The tests in this file hold Fit's closed
// form and the reference LP (simplex_test.go) to that, with an oracle that
// shares no code with either.

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
	scale float64     // mean |y|, the response scale
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
// The fitted value of each cell must lie in that cell's optimal bracket — a
// single order statistic unless n·τ is whole, when it is the gap between two
// — and the coefficients must be the Möbius transform of the fitted cell
// values. The reference LP is held to that exactly. Fit's closed form must
// return the cell optimum itself (the order statistic, or the bracket's
// midpoint), lose nothing to the LP and explain as much.
func TestSaturatedFitEqualsCellQuantiles(t *testing.T) {
	type shape struct {
		name   string
		k      int
		counts []int
	}
	var shapes []shape
	for k := 1; k <= 5; k++ {
		for n := 1; n <= 8; n++ {
			shapes = append(shapes, shape{fmt.Sprintf("k=%d/n=%d", k, n), k, equalCounts(k, n)})
		}
	}
	shapes = append(shapes, shape{"k=3/unequal", 3, []int{1, 4, 2, 7, 3, 10, 5, 20}})

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

			sx, pivots, err := simplexResult(p.model, p.x, p.y, tau)
			if err != nil {
				t.Fatalf("%s: simplex: %v", name, err)
			}
			if pivots == 0 {
				t.Errorf("%s: the simplex reports no pivots; it must always run the LP", name)
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

			cf, err := Fit(p.model, p.x, p.y, tau, Options{})
			if err != nil {
				t.Fatalf("%s: closed form: %v", name, err)
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
			if d := cf.PseudoR2 - sx.PseudoR2; math.Abs(d) > 1e-9 {
				t.Errorf("%s: pseudo-R2 %.12g (closed form) vs %.12g (simplex)", name, cf.PseudoR2, sx.PseudoR2)
			}
		}
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

// bootstrapMoments resamples one cell, sorted ascending, b times with
// replacement, takes cellQuantile of each resample, and returns the Monte
// Carlo variance of those quantiles and the standard error of that variance,
// √((m₄ − s⁴)/b).
func bootstrapMoments(sorted []float64, tau float64, b int, rng *dist.RNG) (variance, se float64) {
	n := len(sorted)
	counts := make([]int, n)
	resample := make([]float64, n)
	qs := make([]float64, b)
	mean := 0.0
	for r := range qs {
		clear(counts)
		for range n {
			counts[rng.Intn(n)]++
		}
		// Expanding the counts in index order leaves the resample sorted.
		pos := 0
		for j, c := range counts {
			for range c {
				resample[pos] = sorted[j]
				pos++
			}
		}
		qs[r] = cellQuantile(resample, tau)
		mean += qs[r] / float64(b)
	}
	var m2, m4 float64
	for _, q := range qs {
		d := (q - mean) * (q - mean)
		m2 += d / float64(b)
		m4 += d * d / float64(b)
	}
	return m2, math.Sqrt(math.Max(0, m4-m2*m2) / float64(b))
}

// tiedCell returns n ascending responses drawn from six values, so most of
// them are tied.
func tiedCell(n int, seed uint64) []float64 {
	rng := dist.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 100 + 3*float64(rng.Intn(6))
	}
	sort.Float64s(out)
	return out
}

// TestExactBootstrapMatchesMonteCarlo holds cellVariance, the closed-form
// bootstrap variance of a cell's quantile, to 100 000 resamples through
// cellQuantile itself, within four standard errors of the Monte Carlo, on
// tied cells at both the order-statistic and the midpoint rule: n·τ = 1 and
// 15 are whole, 1.98 and 29.7 are not.
func TestExactBootstrapMatchesMonteCarlo(t *testing.T) {
	const resamples = 100_000
	for _, n := range []int{2, 30} {
		sorted := tiedCell(n, uint64(n))
		if sorted[0] == sorted[n-1] {
			t.Fatalf("n=%d: the cell is constant; its variance is trivially 0", n)
		}
		for _, tau := range []float64{0.5, 0.99} {
			exact := cellVariance(sorted, tau)
			mc, se := bootstrapMoments(sorted, tau, resamples, dist.NewRNG(uint64(1000*tau)+uint64(n)))
			t.Logf("n=%d tau=%g: exact SD %.5f, Monte Carlo %.5f (variance %.5g ± %.2g)", n, tau, math.Sqrt(exact), math.Sqrt(mc), mc, se)
			if math.Abs(exact-mc) > 4*se {
				t.Errorf("n=%d tau=%g: exact variance %.6g, Monte Carlo %.6g ± %.2g", n, tau, exact, mc, se)
			}
		}
	}
}

// enumeratedVariance returns the bootstrap variance of cellQuantile over
// one small cell, sorted ascending, by summing over every distinct resample:
// each way of drawing counts c₁…cₙ (Σc = n) of the rows, with probability
// n!/(c₁!⋯cₙ!)·n⁻ⁿ.
func enumeratedVariance(sorted []float64, tau float64) float64 {
	n := len(sorted)
	counts := make([]int, n)
	resample := make([]float64, 0, n)
	var m1, m2 float64
	centre := cellQuantile(sorted, tau)
	var walk func(i, left int, logP float64)
	walk = func(i, left int, logP float64) {
		if i == n-1 {
			counts[i] = left
			lf, _ := math.Lgamma(float64(left + 1))
			pr := math.Exp(logP - lf)
			resample = resample[:0]
			for j, c := range counts {
				for range c {
					resample = append(resample, sorted[j])
				}
			}
			z := cellQuantile(resample, tau) - centre
			m1 += pr * z
			m2 += pr * z * z
			return
		}
		for c := 0; c <= left; c++ {
			counts[i] = c
			lf, _ := math.Lgamma(float64(c + 1))
			walk(i+1, left-c, logP-lf)
		}
	}
	ln, _ := math.Lgamma(float64(n + 1))
	walk(0, n, ln-float64(n)*math.Log(float64(n)))
	return m2 - m1*m1
}

// TestExactBootstrapMatchesEnumeration holds cellVariance to the bootstrap
// distribution itself, enumerated resample by resample, on every cell size
// up to 8 and at every oracle τ, so both rules (n·τ whole or not) are
// checked at several ranks, on distinct and on tied responses.
func TestExactBootstrapMatchesEnumeration(t *testing.T) {
	rng := dist.NewRNG(23)
	for n := 1; n <= 8; n++ {
		distinct := make([]float64, n)
		for i := range distinct {
			distinct[i] = 50 + 10*rng.Normal()
		}
		sort.Float64s(distinct)
		for _, cell := range []struct {
			name   string
			sorted []float64
		}{{"distinct", distinct}, {"tied", tiedCell(n, uint64(100+n))}} {
			for _, r := range oracleTaus {
				tau := r.tau()
				exact, want := cellVariance(cell.sorted, tau), enumeratedVariance(cell.sorted, tau)
				if math.Abs(exact-want) > 1e-9*(1+want) {
					t.Errorf("n=%d %s tau=%g (whole n·τ: %v): variance %.12g, enumerated %.12g", n, cell.name, tau, r.tiedAt(n), exact, want)
				}
			}
		}
	}
}

// TestExactBootstrapHandCases pins the values that can be worked out by
// hand. A resample of one row, or of identical rows, is the cell itself, so
// its quantile has no variance. Two rows at τ = 0.5 take the midpoint: the
// resamples {y₁,y₁}, {y₂,y₂} (¼ each) and mixed (½) give y₁, y₂ and their
// mean, so the SD is |y₂ − y₁|/√8. Through Fit, a 0/1 intercept carries the
// low cell's SD and the slope both cells', and a coefficient with SE 0 gets
// p = 1 only when it is itself 0.
func TestExactBootstrapHandCases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []float64
		tau    float64
		want   float64
	}{
		{"one row", []float64{7}, 0.99, 0},
		{"identical rows", []float64{4, 4, 4, 4, 4}, 0.5, 0},
		{"identical rows, midpoint", []float64{4, 4, 4, 4}, 0.5, 0},
		{"two rows", []float64{3, 11}, 0.5, 8 / math.Sqrt(8)},
		{"two rows, the larger", []float64{3, 11}, 0.99, 8 * math.Sqrt(3) / 4},
	} {
		if got := math.Sqrt(cellVariance(tc.sorted, tc.tau)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: SD %.15g, want %.15g", tc.name, got, tc.want)
		}
	}

	m, _ := FullFactorialModel([]string{"a"})
	res, err := Fit(m, [][]float64{{0}, {0}, {1}, {1}, {1}}, []float64{11, 3, 5, 5, 5}, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Coefficient{
		{Term: "(Intercept)", Est: 7, StdErr: 8 / math.Sqrt(8), P: stats.TwoSidedPValueZ(7 / math.Sqrt(8))},
		{Term: "a", Est: -2, StdErr: 8 / math.Sqrt(8), P: stats.TwoSidedPValueZ(-2 / math.Sqrt(8))},
	}
	for j, w := range want {
		if g := res.Coefs[j]; g.Term != w.Term || g.Est != w.Est || math.Abs(g.StdErr-w.StdErr) > 1e-12 || math.Abs(g.P-w.P) > 1e-12 {
			t.Errorf("coefficient %d = %+v, want %+v", j, g, w)
		}
	}

	res, err = Fit(m, [][]float64{{0}, {1}}, []float64{5, 5}, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range []Coefficient{{Term: "(Intercept)", Est: 5, P: 0}, {Term: "a", Est: 0, P: 1}} {
		if g := res.Coefs[j]; g != w {
			t.Errorf("one row per cell: coefficient %d = %+v, want %+v", j, g, w)
		}
	}
}

// TestExactBootstrapLargeCell: the largest cells a caller sends have
// thousands of rows, where C(2000, 1000) overflows a float64. The variance
// must stay finite and match a 2 000-resample Monte Carlo at the midpoint
// rule (2000·0.5 and 2000·0.99 are whole) and off it.
func TestExactBootstrapLargeCell(t *testing.T) {
	rng := dist.NewRNG(31)
	sorted := make([]float64, 2000)
	for i := range sorted {
		sorted[i] = 100 * math.Exp(0.3*rng.Normal())
	}
	sort.Float64s(sorted)
	for _, tau := range []float64{0.5, 0.99, 0.9991} {
		exact := cellVariance(sorted, tau)
		if math.IsNaN(exact) || math.IsInf(exact, 0) || exact <= 0 {
			t.Fatalf("tau=%g: variance %g, want finite and positive", tau, exact)
		}
		mc, se := bootstrapMoments(sorted, tau, 2000, dist.NewRNG(uint64(tau*1e4)))
		t.Logf("tau=%g: exact SD %.5f, Monte Carlo %.5f", tau, math.Sqrt(exact), math.Sqrt(mc))
		if math.Abs(exact-mc) > 4*se {
			t.Errorf("tau=%g: exact variance %.6g, Monte Carlo %.6g ± %.2g", tau, exact, mc, se)
		}
	}
}

// invert returns the inverse of a small square matrix by Gauss–Jordan
// elimination with partial pivoting.
func invert(t *testing.T, a [][]float64) [][]float64 {
	t.Helper()
	n := len(a)
	aug := make([][]float64, n)
	for i, row := range a {
		aug[i] = make([]float64, 2*n)
		copy(aug[i], row)
		aug[i][n+i] = 1
	}
	for col := range n {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[piv][col]) {
				piv = r
			}
		}
		if aug[piv][col] == 0 {
			t.Fatal("singular design")
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		for r := range n {
			if r == col {
				continue
			}
			f := aug[r][col] / aug[col][col]
			for c := range aug[r] {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = make([]float64, n)
		for j := range inv[i] {
			inv[i][j] = aug[i][n+j] / aug[i][i]
		}
	}
	return inv
}

// TestExactBootstrapCodings: each coefficient is β = X⁻¹q for the cells'
// design rows X and quantiles q, and the cells resample independently, so
// Var(β_j) = Σ_c (X⁻¹)²_jc · Var(q_c). Fit's butterfly over the squared
// coding must give that, checked with X inverted by elimination, at the 0/1,
// 0/2, ±1 and 3/7 codings, on unequal cells at the midpoint rule and off it.
func TestExactBootstrapCodings(t *testing.T) {
	p := newSaturatedProblem(t, 3, []int{2, 5, 3, 8, 4, 6, 10, 7}, 19)
	codings := []struct {
		name   string
		lo, hi float64
	}{{"0/1", 0, 1}, {"0/2", 0, 2}, {"±1", -1, 1}, {"3/7", 3, 7}}
	for _, coding := range codings {
		code := func(row []float64) []float64 {
			out := make([]float64, len(row))
			for v, level := range row {
				out[v] = coding.lo + (coding.hi-coding.lo)*level
			}
			return out
		}
		x := make([][]float64, len(p.x))
		for i, row := range p.x {
			x[i] = code(row)
		}
		cellRows := make([][]float64, len(p.cells))
		for c := range cellRows {
			cellRows[c] = code(cellRow(p.k, c))
		}
		design, err := p.model.Design(cellRows)
		if err != nil {
			t.Fatal(err)
		}
		inv := invert(t, design)
		for _, tau := range []float64{0.5, 0.9} {
			res, err := Fit(p.model, x, p.y, tau, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for j, coef := range res.Coefs {
				want := 0.0
				for c, vals := range p.cells {
					want += inv[j][c] * inv[j][c] * cellVariance(vals, tau)
				}
				if got := coef.StdErr * coef.StdErr; math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s tau=%g: Var(%s) = %.12g, by elimination %.12g", coding.name, tau, coef.Term, got, want)
				}
				if z := coef.Est / coef.StdErr; math.Abs(coef.P-stats.TwoSidedPValueZ(z)) > 1e-15 {
					t.Errorf("%s tau=%g: %s has p = %g at z = %g", coding.name, tau, coef.Term, coef.P, z)
				}
			}
		}
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

// TestSaturatedFallThrough: inputs one step outside the 0/1 full factorial
// used to fall through to another solver. Now a two-level coding other than
// 0/1 takes the closed form and matches the reference LP, and every other
// input is an error naming its cause, never an estimate.
func TestSaturatedFallThrough(t *testing.T) {
	base := newSaturatedProblem(t, 2, equalCounts(2, 6), 5)
	full := base.model
	recoded := func(f func(row []float64, i int) []float64) [][]float64 {
		out := make([][]float64, len(base.x))
		for i, row := range base.x {
			out[i] = f(append([]float64(nil), row...), i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		x    [][]float64
	}{
		{"levels coded 0/2", recoded(func(row []float64, _ int) []float64 { row[0] *= 2; return row })},
		{"levels coded ±1", recoded(func(row []float64, _ int) []float64 { row[0], row[1] = 2*row[0]-1, 2*row[1]-1; return row })},
		{"levels coded 3/7", recoded(func(row []float64, _ int) []float64 { row[1] = 3 + 4*row[1]; return row })},
	} {
		got, err := Fit(full, tc.x, base.y, 0.9, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _, err := simplexResult(full, tc.x, base.y, 0.9)
		if err != nil {
			t.Fatalf("%s: simplex: %v", tc.name, err)
		}
		for j := range want.Coefs {
			if g, w := got.Coefs[j].Est, want.Coefs[j].Est; math.Abs(g-w) > 1e-9*base.scale {
				t.Errorf("%s: %s = %.12g, simplex %.12g", tc.name, want.Coefs[j].Term, g, w)
			}
		}
		if d := got.PseudoR2 - want.PseudoR2; math.Abs(d) > 1e-9 {
			t.Errorf("%s: pseudo-R2 %.12g, simplex %.12g", tc.name, got.PseudoR2, want.PseudoR2)
		}
	}

	mains := &Model{VarNames: full.VarNames, Terms: full.Terms[:3]}
	dupSubset := &Model{VarNames: full.VarNames, Terms: []Term{
		{Name: "(Intercept)"}, {Vars: []int{0}, Name: "a"}, {Vars: []int{1}, Name: "b"}, {Vars: []int{1}, Name: "b again"},
	}}
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
		opts Options
		want string
	}{
		{"main effects only", mains, base.x, base.y, Options{}, "3 terms over 2 variables"},
		{"subset twice, another missing", dupSubset, base.x, base.y, Options{}, `terms "b" and "b again" are the same variable subset`},
		{"one value", full, recoded(func(row []float64, _ int) []float64 { row[1] = 1; return row }), base.y, Options{}, "b takes one value"},
		{"one level at 0.5", full, recoded(func(row []float64, i int) []float64 {
			if i == 7 {
				row[1] = 0.5
			}
			return row
		}), base.y, Options{}, "row 7: b takes a third value, 0.5,"},
		{"continuous covariate", full, recoded(func(row []float64, i int) []float64 { row[0] = float64(i); return row }), base.y, Options{}, "row 2: a takes a third value, 2,"},
		{"missing cell", full, xMissing, yMissing, Options{}, "cell a=1 b=1 has no rows"},
		{"no rows", full, nil, nil, Options{}, "no rows"},
		{"solver other than the default", full, base.x, base.y, Options{Solver: IRLS + 1}, "unknown solver 1"},
	}
	for _, tc := range cases {
		res, err := Fit(tc.m, tc.x, tc.y, 0.9, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fit returned %v, error %v; want an error naming %q", tc.name, res, err, tc.want)
		}
	}
}

// TestFitRejectsNonFinite: a NaN or infinite response or level is refused
// up front, naming its row, before any solver could turn it into a
// misleading error or a number.
func TestFitRejectsNonFinite(t *testing.T) {
	p := newSaturatedProblem(t, 2, equalCounts(2, 4), 6)
	cases := []struct {
		name  string
		level float64 // written into row 2, variable b, when not 0
		resp  float64 // written into row 3's response, when not 0
		want  string
	}{
		{"NaN response", 0, math.NaN(), "row 3: response NaN is not finite"},
		{"+Inf response", 0, math.Inf(1), "row 3: response +Inf is not finite"},
		{"-Inf response", 0, math.Inf(-1), "row 3: response -Inf is not finite"},
		{"NaN level", math.NaN(), 0, "row 2: b level NaN is not finite"},
		{"+Inf level", math.Inf(1), 0, "row 2: b level +Inf is not finite"},
	}
	for _, tc := range cases {
		x := make([][]float64, len(p.x))
		for i, row := range p.x {
			x[i] = append([]float64(nil), row...)
		}
		y := append([]float64(nil), p.y...)
		if tc.level != 0 {
			x[2][1] = tc.level
		}
		if tc.resp != 0 {
			y[3] = tc.resp
		}
		for _, opts := range []Options{{}, {BootstrapSamples: 20, PerturbStdDev: 0.1, RNG: dist.NewRNG(1)}} {
			_, err := Fit(p.model, x, y, 0.5, opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		}
	}
}
