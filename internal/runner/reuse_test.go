package runner

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"treadmill/internal/anatomy"
	"treadmill/internal/sim"
	"treadmill/internal/testlock"
)

// dirtyStudy is a campaign of another shape than parityStudy — four
// clients, more connections, the full factor set, a server driven past
// saturation — so the storage its experiments release (rings, request
// records, event arena, sample buffers) is larger than parityStudy's and
// still full of requests in flight when each experiment ends.
func dirtyStudy() *Study {
	return &Study{
		Base:           sim.DefaultClusterConfig(4),
		Factors:        PaperFactors(),
		TotalRate:      1.1e6,
		ConnsPerClient: 16,
		Duration:       0.012,
		Warmup:         0.003,
		Replicates:     1,
		Quantiles:      []float64{0.5, 0.99},
		Seed:           77,
		Workers:        2,
		CollectAnatomy: true,
	}
}

// TestStudyRunReuseInvisible runs a study, then a differently shaped
// campaign on two workers, then the first study again: the reused storage
// must not show in the result. Samples and per-cell anatomy of the two runs
// of the first study are compared bit for bit.
func TestStudyRunReuseInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("three campaigns in -short mode")
	}
	run := func(s *Study) *Result {
		t.Helper()
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(parityStudy(3, 1, nil))
	run(dirtyStudy())
	again := run(parityStudy(3, 1, nil))
	if !reflect.DeepEqual(first.Samples, again.Samples) {
		t.Error("samples differ after a campaign of another shape reused the storage")
	}
	if !reflect.DeepEqual(first.Anatomy, again.Anatomy) {
		t.Error("anatomy breakdowns differ after a campaign of another shape reused the storage")
	}
}

// TestCampaignHeapBounded pins that a campaign reuses one experiment's
// storage instead of allocating it per experiment. After a first campaign
// has filled the stores, a second identical one may allocate per experiment
// only what a fresh cluster's fixed structure and a Sample cost; with
// anatomy on, also per campaign its cells' aggregators and two
// per-experiment ones (in flight, and waiting for the commit). Allocating
// the per-client sample buffers afresh (~110 KB an experiment here), not
// releasing the cluster (~85 KB) or not reusing the per-experiment
// aggregator (~100 KB) each exceeds it.
func TestCampaignHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	testlock.CPUBound(t)
	const perExperiment = 24 << 10
	bins := anatomy.DefaultConfig().Bins
	// One aggregator, plus what finalizing a cell's allocates.
	perAggregator := bins*int(8+unsafe.Sizeof(anatomy.Vec{})) + 16<<10
	for _, tc := range []struct {
		workers int
		anatomy bool
	}{{2, false}, {1, true}} {
		s := parityStudy(9, tc.workers, nil)
		s.Replicates = 4
		s.CollectAnatomy = tc.anatomy
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := s.Run(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		budget := len(res.Samples) * perExperiment
		if tc.anatomy {
			budget += (len(res.Anatomy) + 2) * perAggregator
		}
		t.Logf("workers %d, anatomy %v: second campaign of %d experiments allocated %d B (%.1f KB per experiment), budget %d B",
			tc.workers, tc.anatomy, len(res.Samples), got, float64(got)/float64(len(res.Samples))/1024, budget)
		if got > uint64(budget) {
			t.Errorf("workers %d, anatomy %v: second campaign allocated %d B, budget %d B: an experiment's storage is allocated, not reused",
				tc.workers, tc.anatomy, got, budget)
		}
	}
}
