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
// logged per (replicates, τ) and bounded by the bracket.
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
		design, err := p.model.Design(p.x)
		if err != nil {
			t.Fatal(err)
		}
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

			irBeta, irIters, err := fitIRLS(design, p.y, tau, 200, 1e-10)
			if err != nil {
				t.Fatalf("%s: fitIRLS: %v", name, err)
			}
			if irIters == 0 {
				t.Errorf("%s: fitIRLS reports no iterations", name)
			}
			key := devKey{sh.reps, tau}
			for c, v := range p.fittedCells(t, irBeta) {
				mid := (lo[c] + hi[c]) / 2
				dev := math.Abs(v - mid)
				irlsDev[key] = math.Max(irlsDev[key], dev/p.scale)
				if bound := (hi[c]-lo[c])/2 + 1e-6*p.scale; dev > bound {
					t.Errorf("%s: fitIRLS cell %d = %.12g is %g from the cell optimum %.12g, bound %g", name, c, v, dev, mid, bound)
				}
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
