package runner

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/telemetry"
)

// fakeCampaign is a 2^2 × 2 campaign (8 cells) driven by fake cell
// functions, so the engine's dispatch and commit rules are tested without
// a simulator or a socket.
func fakeCampaign(workers int) *campaign {
	return &campaign{
		factors:       []string{"a", "b"},
		replicates:    2,
		quantiles:     []float64{0.5},
		seed:          5,
		workers:       workers,
		anatomySource: anatomy.SourceSim,
	}
}

// idxSample encodes the schedule index in the sample so commit order is
// observable from Result.Samples.
func idxSample(idx int, levels []int) Sample {
	return Sample{Levels: levels, Quantiles: map[float64]float64{0.5: float64(idx)}}
}

// TestCampaignCommitsInScheduleOrder forces the first wave of cells to
// complete in reverse (cell i returns only after cell i+1 has) and checks
// that samples, anatomy and Progress still commit in schedule order, with
// the early finishers counted by runner.experiments_buffered meanwhile.
func TestCampaignCommitsInScheduleOrder(t *testing.T) {
	c := fakeCampaign(4)
	c.telemetry = telemetry.New()
	bufferedG := c.telemetry.Gauge("runner.experiments_buffered")
	done := make([]chan struct{}, 4)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	var completed []int
	var progress []int
	c.progress = func(d, total int) {
		if total != 8 {
			t.Errorf("progress total = %d, want 8", total)
		}
		progress = append(progress, d)
		// Cell 0 commits last of its wave: 1, 2 and 3 are still buffered.
		if got := bufferedG.Value(); d == 1 && got < 3 {
			t.Errorf("experiments_buffered = %d at the first commit, want >= 3", got)
		}
	}
	res, err := c.run(context.Background(), func(_ context.Context, idx int, levels []int, _ uint64, record func(float64, anatomy.Vec)) (Sample, error) {
		if idx < 3 {
			<-done[idx+1]
		}
		// idx+1 observations per run: the per-cell request counts below
		// prove each experiment was merged into its own cell's aggregator.
		for n := 0; n <= idx; n++ {
			var v anatomy.Vec
			v[anatomy.ClientSend] = 1e-4
			record(1e-4, v)
		}
		mu.Lock()
		completed = append(completed, idx)
		mu.Unlock()
		if idx < 4 {
			close(done[idx])
		}
		return idxSample(idx, levels), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var firstWave []int
	for _, idx := range completed {
		if idx < 4 {
			firstWave = append(firstWave, idx)
		}
	}
	if !reflect.DeepEqual(firstWave, []int{3, 2, 1, 0}) {
		t.Fatalf("first wave completed in order %v, want [3 2 1 0] (test did not force reordering)", firstWave)
	}
	schedule := c.schedule()
	wantRequests := map[string]uint64{}
	for i, smp := range res.Samples {
		if smp.Quantiles[0.5] != float64(i) {
			t.Fatalf("sample %d carries index %v: committed out of schedule order", i, smp.Quantiles[0.5])
		}
		if !reflect.DeepEqual(smp.Levels, schedule[i]) {
			t.Fatalf("sample %d levels %v, schedule says %v", i, smp.Levels, schedule[i])
		}
		wantRequests[LevelsKey(schedule[i])] += uint64(i + 1)
	}
	if !reflect.DeepEqual(progress, []int{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("progress trace %v", progress)
	}
	if got := bufferedG.Value(); got != 0 {
		t.Errorf("experiments_buffered = %d after the campaign, want 0", got)
	}
	if len(res.Anatomy) != 4 {
		t.Fatalf("anatomy cells = %d, want 4", len(res.Anatomy))
	}
	for key, b := range res.Anatomy {
		if b.Requests != wantRequests[key] {
			t.Errorf("cell %s: %d requests, want %d", key, b.Requests, wantRequests[key])
		}
	}
}

// TestCampaignReportsLowestIndexError makes cells 3 and 7 both fail, with
// 7 failing first: the reported error must be cell 3's (what a sequential
// campaign would have hit), no worker may outlive run, and the cells left in
// the reorder buffer behind the failure must not stay on its gauge.
func TestCampaignReportsLowestIndexError(t *testing.T) {
	base := runtime.NumGoroutine()
	c := fakeCampaign(4)
	c.telemetry = telemetry.New()
	err3, err7 := errors.New("cell three"), errors.New("cell seven")
	failed7 := make(chan struct{})
	_, err := c.run(context.Background(), func(_ context.Context, idx int, levels []int, _ uint64, _ func(float64, anatomy.Vec)) (Sample, error) {
		switch idx {
		case 3:
			<-failed7
			return Sample{}, err3
		case 7:
			close(failed7)
			return Sample{}, err7
		}
		return idxSample(idx, levels), nil
	})
	if !errors.Is(err, err3) || errors.Is(err, err7) {
		t.Fatalf("err = %v, want cell 3's failure", err)
	}
	if got := c.telemetry.Gauge("runner.experiments_buffered").Value(); got != 0 {
		t.Errorf("experiments_buffered = %d after a failed campaign, want 0", got)
	}
	waitForGoroutines(t, base)
}

// scheduledCell is what one execution path hands a cell.
type scheduledCell struct {
	Levels []int
	Seed   uint64
}

// trace runs c with a recording cell function.
func trace(t *testing.T, c *campaign) []scheduledCell {
	t.Helper()
	c.workers = 1
	var got []scheduledCell
	_, err := c.run(context.Background(), func(_ context.Context, idx int, levels []int, seed uint64, _ func(float64, anatomy.Vec)) (Sample, error) {
		got = append(got, scheduledCell{levels, seed})
		return idxSample(idx, levels), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScheduleAndSeedsSharedAcrossPaths pins that the simulated study, the
// live study and the fleet expansion run the identical campaign for the
// same seed and factor count.
func TestScheduleAndSeedsSharedAcrossPaths(t *testing.T) {
	s := smallStudy()
	live := &LiveStudy{
		Factors:    tinyLiveFactors(),
		TotalRate:  1000,
		Duration:   time.Millisecond,
		Replicates: s.Replicates,
		Quantiles:  s.Quantiles,
		Seed:       s.Seed,
	}
	local := trace(t, s.campaign())
	if len(local) != 4*s.Replicates {
		t.Fatalf("%d cells, want %d", len(local), 4*s.Replicates)
	}
	if got := trace(t, live.campaign()); !reflect.DeepEqual(got, local) {
		t.Errorf("live path schedule/seeds differ:\nlive:  %v\nlocal: %v", got, local)
	}
	cells, err := s.FleetCells()
	if err != nil {
		t.Fatal(err)
	}
	fleet := make([]scheduledCell, len(cells))
	for i, cell := range cells {
		if err := json.Unmarshal(cell.Payload, &fleet[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(fleet, local) {
		t.Errorf("fleet cells differ:\nfleet: %v\nlocal: %v", fleet, local)
	}
	seeds := map[uint64]bool{}
	for _, c := range local {
		seeds[c.Seed] = true
	}
	if len(seeds) != len(local) {
		t.Errorf("per-index seeds collide: %d distinct over %d cells", len(seeds), len(local))
	}
}

// TestLiveCampaignProgressMonotonic checks the one-worker live
// configuration drives Progress and runner.experiments_done 1..n in step.
func TestLiveCampaignProgressMonotonic(t *testing.T) {
	reg := telemetry.New()
	doneG := reg.Gauge("runner.experiments_done")
	var progress []int
	var gauges []int64
	live := &LiveStudy{
		Factors:    tinyLiveFactors(),
		Replicates: 3,
		Quantiles:  []float64{0.5},
		Seed:       2,
		Telemetry:  reg,
		Progress: func(d, total int) {
			progress = append(progress, d)
			gauges = append(gauges, doneG.Value())
		},
	}
	c := live.campaign()
	res, err := c.run(context.Background(), func(_ context.Context, idx int, levels []int, _ uint64, _ func(float64, anatomy.Vec)) (Sample, error) {
		return idxSample(idx, levels), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 12 || len(progress) != 12 {
		t.Fatalf("samples %d, progress calls %d, want 12", len(res.Samples), len(progress))
	}
	for i := range progress {
		if progress[i] != i+1 || gauges[i] != int64(i+1) {
			t.Fatalf("commit %d: progress %d, gauge %d", i, progress[i], gauges[i])
		}
	}
	if got := reg.Gauge("runner.workers").Value(); got != 1 {
		t.Errorf("live campaign ran on %d workers, want 1", got)
	}
	if got := reg.Gauge("runner.experiments_total").Value(); got != 12 {
		t.Errorf("experiments_total = %d, want 12", got)
	}
}
