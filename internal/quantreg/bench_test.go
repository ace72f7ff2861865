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

// BenchmarkFit prices one point estimate on the paper's 480 × 16 shape: Fit's
// closed form, and the reference LP the tests hold it to.
func BenchmarkFit(b *testing.B) {
	m, x, y := paperShapedProblem()
	b.Run("closed-form", func(b *testing.B) {
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

// BenchmarkFitWithBootstrap prices a fit plus 50 stratified closed-form
// refits on the same shape.
func BenchmarkFitWithBootstrap(b *testing.B) {
	m, x, y := paperShapedProblem()
	opts := Options{BootstrapSamples: 50, RNG: dist.NewRNG(2), StratifiedBootstrap: true}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Fit(m, x, y, 0.99, opts); err != nil {
				b.Fatal(err)
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
