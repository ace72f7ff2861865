package quantreg

import (
	"fmt"
	"math"
)

// Design expands raw explanatory rows into the model matrix: one row per
// observation, one column per term, intercept first, interactions as
// products.
func (m *Model) Design(x [][]float64) ([][]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("quantreg: empty design data")
	}
	d := make([][]float64, len(x))
	for i, row := range x {
		if len(row) != len(m.VarNames) {
			return nil, fmt.Errorf("quantreg: row %d has %d variables, want %d", i, len(row), len(m.VarNames))
		}
		d[i] = make([]float64, len(m.Terms))
		for j, term := range m.Terms {
			v := 1.0
			for _, vi := range term.Vars {
				v *= row[vi]
			}
			d[i][j] = v
		}
	}
	return d, nil
}

// mulVec returns design·beta.
func mulVec(design [][]float64, beta []float64) []float64 {
	out := make([]float64, len(design))
	for i, row := range design {
		for j, v := range row {
			out[i] += v * beta[j]
		}
	}
	return out
}

// simplexResult fits (m, x, y) with the reference LP instead of Fit's closed
// form and returns the same shape of Result, with no standard errors (NaN),
// plus the pivot count.
func simplexResult(m *Model, x [][]float64, y []float64, tau float64) (*Result, int, error) {
	design, err := m.Design(x)
	if err != nil {
		return nil, 0, err
	}
	beta, pivots, err := fitSimplex(design, y, tau)
	if err != nil {
		return nil, pivots, err
	}
	res := &Result{Tau: tau, model: m}
	for j, term := range m.Terms {
		res.Coefs = append(res.Coefs, Coefficient{Term: term.Name, Est: beta[j], StdErr: math.NaN(), P: math.NaN()})
	}
	res.PseudoR2 = pseudoR2(mulVec(design, beta), y, tau)
	return res, pivots, nil
}

// fitSimplex solves the exact quantile-regression linear program
//
//	min τ·Σu + (1−τ)·Σv   s.t.  Xβ + u − v = y,  u,v ≥ 0,  β free
//
// with a dense full-tableau primal simplex using Bland's rule (which
// guarantees termination even on the degenerate vertices binary factorial
// designs produce). β is split into β⁺−β⁻ for standard form. It returns the
// coefficient vector and the pivot count.
//
// Work per pivot is O(n·(p+n)) on a dense n × 2(p+n) tableau, so it is for
// the tests' problems (hundreds of rows, tens of terms): it is the reference
// Fit's closed form is held to, and runs the LP whatever the input.
func fitSimplex(design [][]float64, y []float64, tau float64) ([]float64, int, error) {
	n, p := len(design), len(design[0])
	ncols := 2*p + 2*n // β⁺, β⁻, u, v
	// Column layout: [0,p) β⁺, [p,2p) β⁻, [2p,2p+n) u, [2p+n,2p+2n) v.
	cost := make([]float64, ncols)
	for i := 0; i < n; i++ {
		cost[2*p+i] = tau
		cost[2*p+n+i] = 1 - tau
	}

	// Tableau rows; flip rows with negative rhs so the u/v columns supply
	// an identity starting basis.
	tab := make([][]float64, n)
	rhs := make([]float64, n)
	basis := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, ncols)
		sign := 1.0
		if y[i] < 0 {
			sign = -1
		}
		for j := 0; j < p; j++ {
			v := design[i][j] * sign
			row[j] = v
			row[p+j] = -v
		}
		row[2*p+i] = sign
		row[2*p+n+i] = -sign
		rhs[i] = y[i] * sign
		tab[i] = row
		if sign > 0 {
			basis[i] = 2*p + i // u_i basic
		} else {
			basis[i] = 2*p + n + i // v_i basic
			// Make the basic column +1 in this row.
			for j := range row {
				row[j] = -row[j]
			}
			rhs[i] = -rhs[i]
		}
	}
	// After possible double flip above, re-verify rhs >= 0.
	for i := range rhs {
		if rhs[i] < 0 {
			return nil, 0, fmt.Errorf("quantreg: internal: negative rhs after basis setup")
		}
	}

	const tol = 1e-9
	maxPivots := 50 * (n + ncols) // generous Bland bound for our sizes
	pivots := 0
	for ; pivots < maxPivots; pivots++ {
		// Reduced costs d_j = c_j − c_B·(column j of tableau).
		entering := -1
		for j := 0; j < ncols; j++ {
			zj := 0.0
			for i := 0; i < n; i++ {
				cb := cost[basis[i]]
				if cb != 0 {
					zj += cb * tab[i][j]
				}
			}
			if cost[j]-zj < -tol {
				entering = j // Bland: first improving column
				break
			}
		}
		if entering < 0 {
			break // optimal
		}
		// Ratio test with Bland tie-breaking on basis index.
		leaving := -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			a := tab[i][entering]
			if a > tol {
				ratio := rhs[i] / a
				if ratio < best-tol || (math.Abs(ratio-best) <= tol && (leaving < 0 || basis[i] < basis[leaving])) {
					best = ratio
					leaving = i
				}
			}
		}
		if leaving < 0 {
			return nil, pivots, fmt.Errorf("quantreg: LP unbounded (cannot happen for valid pinball objective)")
		}
		// Pivot.
		piv := tab[leaving][entering]
		for j := 0; j < ncols; j++ {
			tab[leaving][j] /= piv
		}
		rhs[leaving] /= piv
		for i := 0; i < n; i++ {
			if i == leaving {
				continue
			}
			f := tab[i][entering]
			if f == 0 {
				continue
			}
			row := tab[i]
			lrow := tab[leaving]
			for j := 0; j < ncols; j++ {
				row[j] -= f * lrow[j]
			}
			rhs[i] -= f * rhs[leaving]
			if rhs[i] < 0 && rhs[i] > -tol {
				rhs[i] = 0
			}
		}
		basis[leaving] = entering
	}
	if pivots >= maxPivots {
		return nil, pivots, fmt.Errorf("quantreg: simplex exceeded %d pivots", maxPivots)
	}

	beta := make([]float64, p)
	for i, b := range basis {
		switch {
		case b < p:
			beta[b] += rhs[i]
		case b < 2*p:
			beta[b-p] -= rhs[i]
		}
	}
	return beta, pivots, nil
}
