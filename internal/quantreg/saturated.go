package quantreg

import (
	"math"
	"sort"
)

// saturatedPlan is what the closed form knows about a saturated two-level
// problem before it sees a response. Cells and variable subsets share one
// numbering, a bitmask with bit v standing for variable v. A plan is
// read-only once built, so bootstrap workers share it.
type saturatedPlan struct {
	cell   []int // cell[i]: row i's cell, bit v set when x[i][v] == 1
	termOf []int // termOf[s]: index in Model.Terms of the term whose Vars are s
}

// planSaturated returns the plan for (m, x, y), or nil when the closed form
// does not apply: the terms' variable sets must be exactly the 2^k subsets
// (in any order: FactorialModel sorts them by interaction order), every row
// exactly 0/1 and every response finite. Whether every cell is occupied is
// left to fit, which has to check it per resample anyway.
func planSaturated(m *Model, x [][]float64, y []float64) *saturatedPlan {
	k := len(m.VarNames)
	if k > 16 || len(m.Terms) != 1<<k {
		return nil
	}
	p := &saturatedPlan{cell: make([]int, len(x)), termOf: make([]int, 1<<k)}
	for s := range p.termOf {
		p.termOf[s] = -1
	}
	for j, term := range m.Terms {
		s := 0
		for _, v := range term.Vars {
			if v < 0 || v >= k || s&(1<<v) != 0 {
				return nil
			}
			s |= 1 << v
		}
		if p.termOf[s] >= 0 {
			return nil // a subset twice, so another is missing
		}
		p.termOf[s] = j
	}
	for i, row := range x {
		if len(row) != k || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil
		}
		for v, level := range row {
			if level == 1 {
				p.cell[i] |= 1 << v
			} else if level != 0 {
				return nil
			}
		}
	}
	return p
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
// (left in s.q) are the cells' own τ-quantiles, and the 0/1-coded
// coefficients are their Möbius transform over the subset lattice,
// β_S = Σ_{T⊆S} (−1)^{|S|−|T|} q_T, which k butterfly passes compute. The new
// slice returned is in term order, and nil when some cell received no
// response (a plain bootstrap resample can empty one).
func (p *saturatedPlan) fit(rows []int, resp []float64, tau float64, s *saturatedScratch) []float64 {
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
			return nil
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
	for bit := 1; bit < len(beta); bit <<= 1 {
		for c, j := range p.termOf {
			if c&bit != 0 {
				beta[j] -= beta[p.termOf[c^bit]]
			}
		}
	}
	return beta
}

// cellQuantile returns the pinball-loss minimizer of one cell's responses
// (ascending, not empty) at a τ inside (0, 1): the ⌈n·τ⌉-th order statistic,
// unless n·τ is a whole number h, when every point of [y₍ₕ₎, y₍ₕ₊₁₎] is
// optimal and the midpoint is returned — Hyndman and Fan's type 2, and where
// IRLS lands at two replicates and τ = 0.5 from its least-squares start. The
// test for whole is relative: 0.29·100 is not 29 in floating point.
func cellQuantile(sorted []float64, tau float64) float64 {
	n := len(sorted)
	nt := float64(n) * tau
	if h := math.Round(nt); h >= 1 && int(h) < n && math.Abs(nt-h) <= 1e-9*h {
		return (sorted[int(h)-1] + sorted[int(h)]) / 2
	}
	return sorted[int(math.Ceil(nt))-1]
}
