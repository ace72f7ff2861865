package quantreg

import (
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

// BenchmarkFitIRLS prices one point estimate on the paper's 480 × 16 shape.
// The design is saturated, so Fit answers it in closed form; the irls case
// drives the design-matrix iteration Fit falls back to on any other input.
func BenchmarkFitIRLS(b *testing.B) {
	m, x, y := paperShapedProblem()
	b.Run("irls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := irlsResult(m, x, y, 0.99); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Fit(m, x, y, 0.99, Options{Solver: IRLS}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFitSimplex(b *testing.B) {
	m, x, y := paperShapedProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(m, x, y, 0.99, Options{Solver: Simplex}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitWithBootstrap prices a fit plus 50 stratified refits on the
// same shape, both ways: irls hands bootstrapInference no plan, which is the
// path every fit took before the closed form and a non-saturated one still
// takes.
func BenchmarkFitWithBootstrap(b *testing.B) {
	m, x, y := paperShapedProblem()
	opts := Options{Solver: IRLS, BootstrapSamples: 50, RNG: dist.NewRNG(2), StratifiedBootstrap: true}
	b.Run("irls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := irlsResult(m, x, y, 0.99)
			if err != nil {
				b.Fatal(err)
			}
			if err := bootstrapInference(res, m, nil, x, y, 0.99, opts.withDefaults()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Fit(m, x, y, 0.99, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Iterations != 0 {
				b.Fatalf("saturated fit took %d iterations", res.Iterations)
			}
		}
	})
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
