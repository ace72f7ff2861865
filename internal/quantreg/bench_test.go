package quantreg

import (
	"fmt"
	"testing"

	"treadmill/internal/dist"
)

func paperShapedProblem() (*Model, [][]float64, []float64) {
	rng := dist.NewRNG(1)
	m, err := FullFactorialModel([]string{"numa", "turbo", "dvfs", "nic"})
	if err != nil {
		panic(err)
	}
	var x [][]float64
	var y []float64
	for rep := 0; rep < 30; rep++ {
		for mask := 0; mask < 16; mask++ {
			row := []float64{float64(mask & 1), float64(mask >> 1 & 1), float64(mask >> 2 & 1), float64(mask >> 3 & 1)}
			x = append(x, row)
			y = append(y, 355+56*row[0]-29*row[1]+10*rng.Normal())
		}
	}
	return m, x, y
}

// BenchmarkFit prices one fit on the paper's 480 × 16 shape: Fit's closed
// form, exact standard errors included, and the reference LP the tests hold
// its estimate to.
func BenchmarkFit(b *testing.B) {
	m, x, y := paperShapedProblem()
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Fit(m, x, y, 0.99, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := simplexResult(m, x, y, 0.99); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitLargeCells prices the fit whose exact standard errors cost
// the most of any caller's: one factor, two cells of 2000 rows (the shape of
// the root package's ANOVA ablation), where each cell's variance sums a
// binomial tail per rank. Both τ take the midpoint rule.
func BenchmarkFitLargeCells(b *testing.B) {
	m, err := FullFactorialModel([]string{"a"})
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRNG(3)
	x := make([][]float64, 4000)
	y := make([]float64, 4000)
	for i := range x {
		x[i] = []float64{float64(i % 2)}
		y[i] = 100 + 5*x[i][0] + rng.Normal()
	}
	for _, tau := range []float64{0.5, 0.99} {
		b.Run(fmt.Sprintf("tau=%g", tau), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(m, x, y, tau, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDesignMatrix(b *testing.B) {
	m, x, _ := paperShapedProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Design(x); err != nil {
			b.Fatal(err)
		}
	}
}
