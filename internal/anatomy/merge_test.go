package anatomy

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

type observation struct {
	total float64
	v     Vec
}

// mergeStream is a seeded observation stream that reaches every branch of
// Record: in-range totals spread over many bins, under- and overflow totals,
// and the NaN / infinite / non-positive totals that must count as invalid.
func mergeStream(seed int64, n int) []observation {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]observation, n)
	for i := range obs {
		var total float64
		switch r := rng.Intn(100); {
		case r < 2:
			total = 1e-8 * (1 + rng.Float64()) // below Lo
		case r < 4:
			total = 150 * (1 + rng.Float64()) // above Hi
		case r < 5:
			total = math.NaN()
		case r < 6:
			total = -rng.Float64() // ≤ 0, exactly 0 included
		case r < 7:
			total = math.Inf(1)
		default:
			total = 100e-6 * math.Exp(rng.NormFloat64())
		}
		var v Vec
		for p := range v {
			v[p] = rng.Float64() * 1e-5
		}
		obs[i] = observation{total, v}
	}
	return obs
}

// mergeChunks records obs split into k contiguous chunks, each into its own
// aggregator, and merges them in order into an empty one — what the campaign
// engine does with the experiments of one factorial cell.
func mergeChunks(t *testing.T, obs []observation, k int) *Aggregator {
	t.Helper()
	merged := mustAggregator(t)
	for c := 0; c < k; c++ {
		part := mustAggregator(t)
		for _, o := range obs[c*len(obs)/k : (c+1)*len(obs)/k] {
			part.Record(o.total, o.v)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

func vecClose(a, b Vec) bool {
	for p := range a {
		if math.Abs(a[p]-b[p]) > 1e-12*math.Abs(a[p]) {
			return false
		}
	}
	return true
}

// TestAggregatorMergeEqualsReplay is the property the campaign's commit
// rests on: reducing a stream chunk by chunk and merging in order is the
// same as recording it into one aggregator — exactly for everything
// integral or order-free (counts, bins, extrema, quantile thresholds),
// and to floating-point association for the phase sums.
func TestAggregatorMergeEqualsReplay(t *testing.T) {
	for _, seed := range []int64{1, 42, 911} {
		obs := mergeStream(seed, 6000)
		whole := mustAggregator(t)
		for _, o := range obs {
			whole.Record(o.total, o.v)
		}
		if whole.Invalid() == 0 || whole.under == 0 || whole.over == 0 {
			t.Fatalf("seed %d: stream misses a branch (invalid %d, under %d, over %d)", seed, whole.Invalid(), whole.under, whole.over)
		}
		want := whole.Finalize()
		for _, k := range []int{1, 2, 7, 64} {
			got := mergeChunks(t, obs, k)
			if got.Count() != whole.Count() || got.Invalid() != whole.Invalid() {
				t.Errorf("seed %d k %d: count/invalid %d/%d, want %d/%d", seed, k, got.Count(), got.Invalid(), whole.Count(), whole.Invalid())
			}
			if !reflect.DeepEqual(got.counts, whole.counts) || got.under != whole.under || got.over != whole.over {
				t.Errorf("seed %d k %d: bin, underflow or overflow counts differ", seed, k)
			}
			if got.min != whole.min || got.max != whole.max || got.underMax != whole.underMax || got.overMax != whole.overMax {
				t.Errorf("seed %d k %d: extrema differ", seed, k)
			}
			for i := range whole.sums {
				if !vecClose(whole.sums[i], got.sums[i]) {
					t.Errorf("seed %d k %d: bin %d phase sums %v, want %v", seed, k, i, got.sums[i], whole.sums[i])
				}
			}
			if !vecClose(whole.underSums, got.underSums) || !vecClose(whole.overSums, got.overSums) || !vecClose(whole.overall, got.overall) {
				t.Errorf("seed %d k %d: underflow, overflow or overall phase sums differ", seed, k)
			}
			if math.Abs(got.sumTotal-whole.sumTotal) > 1e-12*whole.sumTotal {
				t.Errorf("seed %d k %d: total sum %g, want %g", seed, k, got.sumTotal, whole.sumTotal)
			}
			b := got.Finalize()
			if b.P50 != want.P50 || b.P99 != want.P99 {
				t.Errorf("seed %d k %d: thresholds %g/%g, want %g/%g", seed, k, b.P50, b.P99, want.P50, want.P99)
			}
			if b.Overall.Count != want.Overall.Count || b.Body.Count != want.Body.Count || b.Tail.Count != want.Tail.Count {
				t.Errorf("seed %d k %d: cut counts differ", seed, k)
			}
			if b.LowConfidence != want.LowConfidence || b.Reason != want.Reason {
				t.Errorf("seed %d k %d: confidence %v %q, want %v %q", seed, k, b.LowConfidence, b.Reason, want.LowConfidence, want.Reason)
			}
			again := mergeChunks(t, obs, k)
			if !reflect.DeepEqual(got.tally, again.tally) || !reflect.DeepEqual(b, again.Finalize()) {
				t.Errorf("seed %d k %d: the same merges in the same order gave different bits", seed, k)
			}
		}
	}
}

// within fails the test if f has not returned after d: a deadlocked Merge
// must fail here, not hang the package until the go test timeout.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v (deadlock)", d)
	}
}

func TestAggregatorMergeSelfIsAnError(t *testing.T) {
	a := mustAggregator(t)
	a.Record(1e-4, vecFor(1e-4))
	within(t, 10*time.Second, func() {
		if err := a.Merge(a); err == nil {
			t.Error("self-merge should be refused")
		}
	})
	if got := a.Count(); got != 1 {
		t.Errorf("refused self-merge changed the count to %d", got)
	}
}

// TestAggregatorMergeOpposedDirections races a.Merge(b) against b.Merge(a).
// Every merge must return (no lock-order deadlock), and because each copy
// and each fold happens under one lock the tallies must stay whole: a
// merge adds a value the other side's count held at some moment, never a
// torn one, so counts only grow, bins still add up to the count, and the
// means of a population of identical requests are unmoved by how often it
// was folded in.
func TestAggregatorMergeOpposedDirections(t *testing.T) {
	const total, each, merges = 250e-6, 10, 8
	a, b := mustAggregator(t), mustAggregator(t)
	for i := 0; i < each; i++ {
		a.Record(total, vecFor(total))
		b.Record(total, vecFor(total))
	}
	within(t, 10*time.Second, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			dst, src := a, b
			if g%2 == 1 {
				dst, src = b, a
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < merges; i++ {
					if err := dst.Merge(src); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
	})
	for name, agg := range map[string]*Aggregator{"a": a, "b": b} {
		// 32 merges into each side, each adding at least the other's
		// initial count.
		if min := uint64(each + 4*merges*each); agg.Count() < min {
			t.Errorf("%s: count %d < %d: a merge was lost", name, agg.Count(), min)
		}
		var binned uint64
		for _, c := range agg.counts {
			binned += c
		}
		if binned != agg.Count() {
			t.Errorf("%s: bins hold %d of %d requests (torn merge)", name, binned, agg.Count())
		}
		fin := agg.Finalize()
		if math.Abs(fin.Overall.MeanTotal-total) > 1e-9*total || !vecClose(vecFor(total), fin.Overall.Mean) {
			t.Errorf("%s: overall means moved: total %g, phases %v", name, fin.Overall.MeanTotal, fin.Overall.Mean)
		}
	}
}
