package quantreg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// saturatedPlan is what the closed form knows about a saturated two-level
// problem before it sees a response. Cells and variable subsets share one
// numbering, a bitmask with bit v standing for variable v. A plan is
// read-only once built, so bootstrap workers share it.
type saturatedPlan struct {
	names  []string  // the model's variable names, for errors
	lo, hi []float64 // lo[v] < hi[v]: variable v's two levels
	cell   []int     // cell[i]: row i's cell, bit v set when x[i][v] == hi[v]
	termOf []int     // termOf[s]: index in Model.Terms of the term whose Vars are s
}

// planSaturated returns the plan for (m, x, y), or an error naming why the
// closed form cannot solve it: the terms' variable sets must be exactly the
// 2^k subsets (in any order: FullFactorialModel sorts them by interaction
// order), every variable must take exactly two values, and every level and
// response must be finite. Whether every cell is occupied is left to fit,
// which has to check it per resample anyway.
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
	for i, row := range x {
		c := 0
		for v, level := range row {
			if level == hi[v] {
				c |= 1 << v
			}
		}
		p.cell[i] = c
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

// saturatedScratch is one goroutine's workspace, reused across refits.
type saturatedScratch struct {
	end  []int     // counting-sort cursors; after bucketing, one past each cell's last value
	vals []float64 // the responses, bucketed by cell
	q    []float64 // each cell's fitted value, the τ-quantile of its responses
}

func (p *saturatedPlan) newScratch() *saturatedScratch {
	return &saturatedScratch{end: make([]int, len(p.termOf)), vals: make([]float64, len(p.cell)), q: make([]float64, len(p.termOf))}
}

// fit solves the saturated τ-regression exactly. resp[i] is a response of
// planned row rows[i], or of row i when rows is nil. With one free parameter
// per cell the pinball loss separates by cell, so the fitted cell values
// (left in s.q) are the cells' own τ-quantiles, and the coefficients solve
// the tensor product of each variable's 2×2 coding, [1 lo; 1 hi]·(β₀, β₁) =
// (q_lo, q_hi): one butterfly pass per variable sets β₁ = (q_hi − q_lo)/(hi −
// lo), then β₀ = q_lo − β₁·lo. On 0/1 levels that is the Möbius transform over
// the subset lattice, β_S = Σ_{T⊆S} (−1)^{|S|−|T|} q_T. The new slice returned
// is in term order; the error names a cell that received no response (a plain
// bootstrap resample can empty one).
func (p *saturatedPlan) fit(rows []int, resp []float64, tau float64, s *saturatedScratch) ([]float64, error) {
	cellOf := func(i int) int {
		if rows != nil {
			i = rows[i]
		}
		return p.cell[i]
	}
	clear(s.end)
	for i := range resp {
		s.end[cellOf(i)]++
	}
	start := 0
	for c, n := range s.end {
		if n == 0 {
			return nil, fmt.Errorf("quantreg: cell %s has no rows", p.cellName(c))
		}
		s.end[c] = start
		start += n
	}
	for i, v := range resp {
		c := cellOf(i)
		s.vals[s.end[c]] = v
		s.end[c]++
	}
	beta := make([]float64, len(s.q))
	start = 0
	for c, end := range s.end {
		sort.Float64s(s.vals[start:end])
		s.q[c] = cellQuantile(s.vals[start:end], tau)
		beta[p.termOf[c]] = s.q[c]
		start = end
	}
	for v, bit := 0, 1; bit < len(beta); v, bit = v+1, bit<<1 {
		lo, width := p.lo[v], p.hi[v]-p.lo[v]
		for c, j := range p.termOf {
			if c&bit != 0 {
				j0 := p.termOf[c^bit]
				beta[j] = (beta[j] - beta[j0]) / width
				if lo != 0 {
					beta[j0] -= beta[j] * lo
				}
			}
		}
	}
	return beta, nil
}

// cellQuantile returns the pinball-loss minimizer of one cell's responses
// (ascending, not empty) at a τ inside (0, 1): the ⌈n·τ⌉-th order statistic,
// unless n·τ is a whole number h, when every point of [y₍ₕ₎, y₍ₕ₊₁₎] is
// optimal and the midpoint is returned — Hyndman and Fan's type 2. The test
// for whole is relative: 0.29·100 is not 29 in floating point.
func cellQuantile(sorted []float64, tau float64) float64 {
	n := len(sorted)
	nt := float64(n) * tau
	if h := math.Round(nt); h >= 1 && int(h) < n && math.Abs(nt-h) <= 1e-9*h {
		return (sorted[int(h)-1] + sorted[int(h)]) / 2
	}
	return sorted[int(math.Ceil(nt))-1]
}
