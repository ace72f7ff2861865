package quantreg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// saturatedPlan is what the closed form knows about a saturated two-level
// problem before it sees a response. Cells and variable subsets share one
// numbering, a bitmask with bit v standing for variable v.
type saturatedPlan struct {
	names  []string  // the model's variable names, for errors
	lo, hi []float64 // lo[v] < hi[v]: variable v's two levels
	cell   []int     // cell[i]: row i's cell, bit v set when x[i][v] == hi[v]
	termOf []int     // termOf[s]: index in Model.Terms of the term whose Vars are s
	start  []int     // cell c's responses, bucketed, are [start[c], start[c+1])
}

// planSaturated returns the plan for (m, x, y), or an error naming why the
// closed form cannot solve it: the terms' variable sets must be exactly the
// 2^k subsets (in any order: FullFactorialModel sorts them by interaction
// order), every variable must take exactly two values, and every level and
// response must be finite, and every cell must have a row.
func planSaturated(m *Model, x [][]float64, y []float64) (*saturatedPlan, error) {
	k := len(m.VarNames)
	if k == 0 || k > 16 {
		return nil, fmt.Errorf("quantreg: %d variables, want 1 to 16", k)
	}
	if len(m.Terms) != 1<<k {
		return nil, fmt.Errorf("quantreg: %d terms over %d variables; a saturated model has one per variable subset, %d", len(m.Terms), k, 1<<k)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("quantreg: no rows")
	}
	p := &saturatedPlan{names: m.VarNames, lo: make([]float64, k), hi: make([]float64, k), cell: make([]int, len(x)), termOf: make([]int, 1<<k)}
	for s := range p.termOf {
		p.termOf[s] = -1
	}
	for j, term := range m.Terms {
		s := 0
		for _, v := range term.Vars {
			if v < 0 || v >= k || s&(1<<v) != 0 {
				return nil, fmt.Errorf("quantreg: term %q has variables %v, want distinct indices in [0,%d)", term.Name, term.Vars, k)
			}
			s |= 1 << v
		}
		if prev := p.termOf[s]; prev >= 0 {
			return nil, fmt.Errorf("quantreg: terms %q and %q are the same variable subset", m.Terms[prev].Name, term.Name)
		}
		p.termOf[s] = j
	}
	lo, hi := p.lo, p.hi
	for v := range lo {
		lo[v], hi[v] = math.NaN(), math.NaN() // no level seen yet
	}
	for i, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("quantreg: row %d has %d variables, want %d", i, len(row), k)
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("quantreg: row %d: response %g is not finite", i, y[i])
		}
		for v, level := range row {
			if level == lo[v] || level == hi[v] {
				continue
			}
			switch {
			case math.IsNaN(level) || math.IsInf(level, 0):
				return nil, fmt.Errorf("quantreg: row %d: %s level %g is not finite", i, m.VarNames[v], level)
			case math.IsNaN(lo[v]):
				lo[v], hi[v] = level, level
			case lo[v] != hi[v]:
				return nil, fmt.Errorf("quantreg: row %d: %s takes a third value, %g, besides %g and %g", i, m.VarNames[v], level, lo[v], hi[v])
			case level < lo[v]:
				lo[v] = level
			default:
				hi[v] = level
			}
		}
	}
	for v, name := range m.VarNames {
		if lo[v] == hi[v] {
			return nil, fmt.Errorf("quantreg: %s takes one value, want two levels", name)
		}
	}
	p.start = make([]int, 1<<k+1)
	for i, row := range x {
		c := 0
		for v, level := range row {
			if level == hi[v] {
				c |= 1 << v
			}
		}
		p.cell[i] = c
		p.start[c+1]++
	}
	for c := range p.termOf {
		if p.start[c+1] == 0 {
			return nil, fmt.Errorf("quantreg: cell %s has no rows", p.cellName(c))
		}
		p.start[c+1] += p.start[c]
	}
	return p, nil
}

// cellName renders cell c as its variables' levels, e.g. "a=0 b=1".
func (p *saturatedPlan) cellName(c int) string {
	parts := make([]string, len(p.names))
	for v, name := range p.names {
		level := p.lo[v]
		if c&(1<<v) != 0 {
			level = p.hi[v]
		}
		parts[v] = fmt.Sprintf("%s=%g", name, level)
	}
	return strings.Join(parts, " ")
}

// sortedCells returns resp (one response per planned row) bucketed by cell,
// each bucket ascending: cell c's responses are out[p.start[c]:p.start[c+1]].
func (p *saturatedPlan) sortedCells(resp []float64) []float64 {
	out := make([]float64, len(resp))
	next := append([]int(nil), p.start[:len(p.start)-1]...)
	for i, v := range resp {
		c := p.cell[i]
		out[next[c]] = v
		next[c]++
	}
	for c := range p.termOf {
		sort.Float64s(out[p.start[c]:p.start[c+1]])
	}
	return out
}

// transform maps one value per cell to one per term, in term order, by one
// butterfly pass per variable: step(v, &x0, &x1) rewrites each pair of terms
// whose variable sets differ in v alone, x0 the one without v.
func (p *saturatedPlan) transform(cells []float64, step func(v int, x0, x1 *float64)) []float64 {
	x := make([]float64, len(cells))
	for c, j := range p.termOf {
		x[j] = cells[c]
	}
	for v, bit := 0, 1; bit < len(x); v, bit = v+1, bit<<1 {
		for c, j := range p.termOf {
			if c&bit != 0 {
				step(v, &x[p.termOf[c^bit]], &x[j])
			}
		}
	}
	return x
}

// coefs returns the coefficients, in term order, whose fitted cell values
// are q. They solve the tensor product of each variable's 2×2 coding,
// [1 lo; 1 hi]·(β₀, β₁) = (q_lo, q_hi): each pass sets β₁ = (q_hi − q_lo)/(hi
// − lo), then β₀ = q_lo − β₁·lo. On 0/1 levels that is the Möbius transform
// over the subset lattice, β_S = Σ_{T⊆S} (−1)^{|S|−|T|} q_T.
func (p *saturatedPlan) coefs(q []float64) []float64 {
	return p.transform(q, func(v int, b0, b1 *float64) {
		lo := p.lo[v]
		*b1 = (*b1 - *b0) / (p.hi[v] - lo)
		if lo != 0 {
			*b0 -= *b1 * lo
		}
	})
}

// coefVariances returns the variance of each coefficient, in term order,
// when the cell values are independent with variances vq. The coefficients
// are linear in the cell values through the inverse coding
// (hi − lo)⁻¹·[hi −lo; −1 1] per variable, so their variances come through
// the same butterfly with that matrix squared elementwise. On 0/1 levels
// Var(β_S) = Σ_{T⊆S} Var(q_T).
func (p *saturatedPlan) coefVariances(vq []float64) []float64 {
	return p.transform(vq, func(v int, v0, v1 *float64) {
		lo, hi := p.lo[v], p.hi[v]
		w2 := (hi - lo) * (hi - lo)
		a, b := *v0, *v1
		*v0, *v1 = (hi*hi*a+lo*lo*b)/w2, (a+b)/w2
	})
}

// quantileRank is the rank cellQuantile takes among n ascending values at a
// τ inside (0, 1): the k-th order statistic, or the midpoint of the k-th and
// (k+1)-th when mid. n·τ is whole (mid) by a relative test: 0.29·100 is not
// 29 in floating point.
func quantileRank(n int, tau float64) (k int, mid bool) {
	nt := float64(n) * tau
	if h := math.Round(nt); h >= 1 && int(h) < n && math.Abs(nt-h) <= 1e-9*h {
		return int(h), true
	}
	return int(math.Ceil(nt)), false
}

// cellQuantile returns the pinball-loss minimizer of one cell's responses
// (ascending, not empty) at a τ inside (0, 1): the ⌈n·τ⌉-th order statistic,
// unless n·τ is a whole number h, when every point of [y₍ₕ₎, y₍ₕ₊₁₎] is
// optimal and the midpoint is returned — Hyndman and Fan's type 2.
func cellQuantile(sorted []float64, tau float64) float64 {
	k, mid := quantileRank(len(sorted), tau)
	if mid {
		return (sorted[k-1] + sorted[k]) / 2
	}
	return sorted[k-1]
}

// cellVariance returns the variance of cellQuantile over the bootstrap
// distribution of one cell, sorted ascending: n draws with replacement, the
// limit of infinitely many resamples (Hutson and Ernst, JRSS-B 2000). A
// resample's quantile is y₍I₎ at a rank I of the drawn row indices, so tied
// responses need no special case. Iₖ, the k-th smallest of n indices drawn
// from 1…n, has P(Iₖ ≤ a) = P(Binom(n, a/n) ≥ k). In the midpoint case the
// quantile is (y₍I_h₎ + y₍I_{h+1}₎)/2, and their cross moment comes from
// midpointCross.
func cellVariance(sorted []float64, tau float64) float64 {
	n := len(sorted)
	if sorted[0] == sorted[n-1] {
		return 0
	}
	// Moments are taken about the estimate, which keeps E[z²] − E[z]² from
	// cancelling.
	centre := cellQuantile(sorted, tau)
	logFrac := make([]float64, n+1) // logFrac[a] = log(a/n)
	for a := range logFrac {
		logFrac[a] = math.Log(float64(a) / float64(n))
	}
	moments := func(pmf []float64) (m1, m2 float64) {
		for j, pr := range pmf {
			z := sorted[j] - centre
			m1 += pr * z
			m2 += pr * z * z
		}
		return m1, m2
	}
	k, mid := quantileRank(n, tau)
	pa := rankPMF(n, k, logFrac)
	a1, a2 := moments(pa)
	if !mid {
		return math.Max(0, a2-a1*a1)
	}
	b1, b2 := moments(rankPMF(n, k+1, logFrac))
	ab := midpointCross(sorted, centre, k, pa, logFrac)
	m1 := (a1 + b1) / 2
	return math.Max(0, (a2+b2+2*ab)/4-m1*m1)
}

// rankPMF returns P(Iₖ = j) at index j−1, for j = 1…n.
func rankPMF(n, k int, logFrac []float64) []float64 {
	pmf := make([]float64, n)
	logUp, logDown := logChoose(n, k), logChoose(n, k-1)
	prev := 0.0 // P(Iₖ ≤ a−1)
	for a := 1; a <= n; a++ {
		cdf := 1.0
		if a < n {
			cdf = binomialTail(n, k, a, logUp, logDown, logFrac)
		}
		pmf[a-1] = cdf - prev
		prev = cdf
	}
	return pmf
}

// binomialTail returns P(X ≥ k) for X ~ Binom(n, a/n), 0 < a < n, given
// logUp = log C(n, k) and logDown = log C(n, k−1). It sums the pmf by its
// ratio recurrence from whichever of k and k−1 lies beyond the mode, away
// from it, so the terms only fall and the sum stops once they no longer
// count: no term underflows while a later one matters.
func binomialTail(n, k, a int, logUp, logDown float64, logFrac []float64) float64 {
	odds := float64(a) / float64(n-a)
	if mode := (n + 1) * a / n; k > mode {
		t := math.Exp(logUp + float64(k)*logFrac[a] + float64(n-k)*logFrac[n-a])
		sum := 0.0
		for j := k; ; j++ {
			sum += t
			if j == n || t <= sum*0x1p-60 {
				return sum
			}
			t *= float64(n-j) / float64(j+1) * odds
		}
	}
	t := math.Exp(logDown + float64(k-1)*logFrac[a] + float64(n-k+1)*logFrac[n-a])
	sum := 0.0
	for j := k - 1; ; j-- {
		sum += t
		if j == 0 || t <= sum*0x1p-60 {
			return 1 - sum
		}
		t *= float64(j) / float64(n-j+1) / odds
	}
}

// midpointCross returns E[(y₍I_h₎ − c)(y₍I_{h+1}₎ − c)], given pa, I_h's pmf
// from rankPMF. For a ≤ b, P(I_h ≤ a, I_{h+1} > b) = H(a, b) =
// C(n,h)(a/n)^h((n−b)/n)^{n−h}: exactly h draws land at or below a and none
// in (a, b]. H factorizes as f(a)·g(b), so P(I_h = i, I_{h+1} = j) =
// Δf(i)·Δg(j) for i < j, and the off-diagonal sum is one pass carrying
// r = Σ_{i<j} z_i·Δf(i) / f(j−1). H itself is at most 1, where f and g
// alone overflow at C(2000, 1000), so every factor is taken as a ratio.
func midpointCross(sorted []float64, c float64, h int, pa, logFrac []float64) float64 {
	n := len(sorted)
	logC := logChoose(n, h)
	hh := func(a, b int) float64 {
		return math.Exp(logC + float64(h)*logFrac[a] + float64(n-h)*logFrac[n-b])
	}
	sum, r := 0.0, 0.0
	diag := 0.0 // H(j−1, j−1)
	for j := 1; j <= n; j++ {
		z := sorted[j-1] - c
		below := hh(j-1, j) // P(I_h ≤ j−1, I_{h+1} > j)
		if j > 1 {
			sum += z * (diag - below) * r // Δg(j)·f(j−1) = H(j−1, j−1) − H(j−1, j)
		}
		diag = hh(j, j)
		sum += z * z * (pa[j-1] - (diag - below))               // P(I_h = I_{h+1} = j)
		rho := math.Exp(float64(h) * math.Log1p(-1/float64(j))) // f(j−1)/f(j)
		r = r*rho + z*(1-rho)
	}
	return sum
}

// logChoose returns log C(n, k).
func logChoose(n, k int) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}
