// Package quantreg implements quantile regression (Koenker, 2005) with the
// extensions the paper needs to attribute tail latency (§IV):
//
//   - the full factorial model over two-level factors (paper Eq. 1),
//   - one minimizer of the pinball loss, exact: the closed form of a
//     saturated two-level design, which is the model the paper fits. Each
//     cell's τ-quantile under the Hyndman–Fan type 2 tie rule, then the
//     inverse of the factors' two-level coding over the factor lattice (on
//     0/1 levels, a Möbius transform). Every campaign's fit and bootstrap
//     refit runs it, and the tests hold it to an exact LP/simplex reference,
//   - bootstrap standard errors and two-sided p-values for each
//     coefficient (paper Table IV),
//   - the pseudo-R² goodness-of-fit statistic (paper Eq. 2–4),
//   - the small symmetric data perturbation the paper applies so the
//     optimizer is not trapped by purely discrete regressors (§V-A).
package quantreg

import (
	"fmt"
	"sort"
	"strings"
)

// Term is one additive term of the regression model: the product of a
// subset of the explanatory variables. An empty subset is the intercept.
type Term struct {
	// Vars are indices into the model's variable list, strictly
	// increasing. Empty for the intercept.
	Vars []int
	// Name is the human-readable label, e.g. "numa:turbo" ("(Intercept)"
	// for the empty term), matching the paper's tables.
	Name string
}

// Model describes which terms enter the regression.
type Model struct {
	// VarNames labels the explanatory variables, in column order of the
	// data matrices passed to Fit.
	VarNames []string
	// Terms lists the model terms. Terms[0] is always the intercept.
	Terms []Term
}

// FullFactorialModel returns the model containing the intercept, every
// variable, and every interaction up to the full k-way product — the model
// the paper fits for its 2⁴ design (Eq. 1 plus Table IV rows), and the one
// Fit solves.
func FullFactorialModel(varNames []string) (*Model, error) {
	k := len(varNames)
	if k == 0 {
		return nil, fmt.Errorf("quantreg: model needs at least one variable")
	}
	if k > 16 {
		return nil, fmt.Errorf("quantreg: %d variables would produce 2^%d terms; refusing", k, k)
	}
	m := &Model{VarNames: append([]string(nil), varNames...)}
	m.Terms = append(m.Terms, Term{Name: "(Intercept)"})
	// Enumerate subsets grouped by size so the term order matches the
	// paper's tables (mains, then 2-way, then 3-way, ...).
	var subsets [][]int
	for mask := 1; mask < 1<<k; mask++ {
		var vars []int
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				vars = append(vars, i)
			}
		}
		subsets = append(subsets, vars)
	}
	sort.SliceStable(subsets, func(a, b int) bool {
		if len(subsets[a]) != len(subsets[b]) {
			return len(subsets[a]) < len(subsets[b])
		}
		for i := range subsets[a] {
			if subsets[a][i] != subsets[b][i] {
				return subsets[a][i] < subsets[b][i]
			}
		}
		return false
	})
	for _, vars := range subsets {
		names := make([]string, len(vars))
		for i, v := range vars {
			names[i] = varNames[v]
		}
		m.Terms = append(m.Terms, Term{Vars: vars, Name: strings.Join(names, ":")})
	}
	return m, nil
}

// NumTerms returns the number of model terms including the intercept.
func (m *Model) NumTerms() int { return len(m.Terms) }

// TermIndex returns the index of the named term, or -1.
func (m *Model) TermIndex(name string) int {
	for i, t := range m.Terms {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Predict evaluates the fitted model at one raw explanatory row.
func (m *Model) Predict(coefs []float64, row []float64) (float64, error) {
	if len(coefs) != len(m.Terms) {
		return 0, fmt.Errorf("quantreg: %d coefficients for %d terms", len(coefs), len(m.Terms))
	}
	if len(row) != len(m.VarNames) {
		return 0, fmt.Errorf("quantreg: row has %d variables, want %d", len(row), len(m.VarNames))
	}
	sum := 0.0
	for j, term := range m.Terms {
		v := 1.0
		for _, vi := range term.Vars {
			v *= row[vi]
		}
		sum += coefs[j] * v
	}
	return sum, nil
}
