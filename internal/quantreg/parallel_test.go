package quantreg

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"treadmill/internal/dist"
)

// bootstrapData builds a factorial-shaped regression problem with noise,
// the shape the campaign driver feeds to Fit.
func bootstrapData(n int) (*Model, [][]float64, []float64) {
	m, err := FullFactorialModel([]string{"a", "b", "c"})
	if err != nil {
		panic(err)
	}
	rng := dist.NewRNG(17)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := float64(i&1), float64((i>>1)&1), float64((i>>2)&1)
		x[i] = []float64{a, b, c}
		y[i] = 100 + 12*a - 7*b + 3*c + 4*a*b + rng.Normal()
	}
	return m, x, y
}

// fitWorkers runs one bootstrap fit at the given parallelism. Each call
// uses a fresh RNG with the same seed, so any output difference can only
// come from the worker count.
func fitWorkers(t testing.TB, workers int, stratified bool) *Result {
	m, x, y := bootstrapData(160)
	res, err := Fit(m, x, y, 0.9, Options{
		BootstrapSamples:    64,
		PerturbStdDev:       0.01,
		RNG:                 dist.NewRNG(5),
		StratifiedBootstrap: stratified,
		KeepBootstrap:       true,
		Workers:             workers,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestBootstrapWorkerParity: StdErr, P, and the retained bootstrap
// replicates (hence PredictCI) must be bit-identical at any parallelism,
// for both plain and stratified resampling — each replicate draws from its
// own index-derived RNG stream, never from a shared sequential one.
func TestBootstrapWorkerParity(t *testing.T) {
	for _, stratified := range []bool{false, true} {
		base := fitWorkers(t, 1, stratified)
		for _, w := range []int{2, 5, runtime.GOMAXPROCS(0)} {
			name := fmt.Sprintf("stratified=%v workers=%d", stratified, w)
			res := fitWorkers(t, w, stratified)
			if !reflect.DeepEqual(base.Coefs, res.Coefs) {
				t.Errorf("%s: coefficients/StdErr/P differ from sequential", name)
			}
			if !reflect.DeepEqual(base.bootEsts, res.bootEsts) {
				t.Errorf("%s: bootstrap replicates differ from sequential", name)
			}
			be, bl, bh, err := base.PredictCI([]float64{1, 0, 1}, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			e, lo, hi, err := res.PredictCI([]float64{1, 0, 1}, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if e != be || lo != bl || hi != bh {
				t.Errorf("%s: PredictCI (%g,%g,%g) != (%g,%g,%g)", name, e, lo, hi, be, bl, bh)
			}
		}
	}
}

// TestRepSeedStreamsDistinct guards the stream derivation: adjacent
// replicate indices must land on different seeds (and hence, via splitmix
// in dist.NewRNG, unrelated streams).
func TestRepSeedStreamsDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for rep := 0; rep < 1000; rep++ {
		s := repSeed(0xdeadbeef, rep)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replicates %d and %d share seed %#x", prev, rep, s)
		}
		seen[s] = rep
	}
}

// BenchmarkQuantregBootstrapParallel times bootstrap inference at
// increasing worker counts; outputs are identical, so the axis is pure
// wall-clock.
func BenchmarkQuantregBootstrapParallel(b *testing.B) {
	m, x, y := bootstrapData(160)
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("closed-form/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Fit(m, x, y, 0.9, Options{
					BootstrapSamples:    100,
					RNG:                 dist.NewRNG(5),
					StratifiedBootstrap: true,
					Workers:             w,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
