package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/telemetry"
)

// cellFunc executes one scheduled experiment. ctx carries the study_cell
// pprof label and is cancelled once any cell of the campaign fails. record
// is nil unless the campaign collects anatomy; it receives every measured
// request's (total latency, phase vector) pair and must not be called
// concurrently.
type cellFunc func(ctx context.Context, idx int, levels []int, seed uint64, record func(total float64, v anatomy.Vec)) (Sample, error)

// campaign is the one factorial-campaign engine (paper §V-A): it owns the
// randomized schedule, the per-index seed derivation, the bounded worker
// pool, and the ordered commit. Study.Run, LiveStudy.Run and Study.RunFleet
// differ only in the cell function: simulate it, run it over loopback, or
// collect what a fleet agent already computed for it.
type campaign struct {
	factors    []string
	replicates int
	quantiles  []float64
	seed       uint64
	// workers bounds concurrent cells; 0 means GOMAXPROCS.
	workers int
	// anatomySource, when non-empty, turns on per-cell anatomy collection
	// and tags the breakdowns (anatomy.SourceSim / anatomy.SourceLive).
	anatomySource string
	journal       *telemetry.Journal
	progress      func(done, total int)
	telemetry     *telemetry.Registry
}

func (c *campaign) validate() error {
	if len(c.factors) == 0 || len(c.factors) > 8 {
		return fmt.Errorf("runner: need 1-8 factors, got %d", len(c.factors))
	}
	if c.replicates < 1 {
		return fmt.Errorf("runner: need >= 1 replicate")
	}
	if len(c.quantiles) == 0 {
		return fmt.Errorf("runner: need at least one quantile")
	}
	return nil
}

// schedule builds the randomized experiment order: every permutation
// replicates times, shuffled by the campaign seed (preserving independence
// between consecutive experiments, §V-A).
func (c *campaign) schedule() [][]int {
	perms := Permutations(len(c.factors))
	var schedule [][]int
	for r := 0; r < c.replicates; r++ {
		schedule = append(schedule, perms...)
	}
	rng := dist.NewRNG(c.seed)
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })
	return schedule
}

// cellSeed derives the seed of the experiment at schedule index idx, so a
// cell's outcome does not depend on which worker, process or agent runs it.
func (c *campaign) cellSeed(idx int) uint64 {
	return c.seed + uint64(idx)*7919 + 1
}

// anatomyObs is one buffered (total latency, phase vector) observation.
// Workers record into per-run buffers; the commit loop replays buffers into
// the per-cell aggregators in schedule order, so the accumulated floating-
// point sums are bit-identical to a sequential campaign.
type anatomyObs struct {
	total float64
	v     anatomy.Vec
}

// runOutcome carries one finished experiment from a worker to the ordered
// commit loop.
type runOutcome struct {
	idx    int
	sample Sample
	obs    []anatomyObs
	err    error
}

// run executes the campaign on a bounded worker pool. Workers claim
// schedule indices atomically; every cell runs from its schedule-derived
// seed and outcomes are committed in schedule order, so the returned Result
// — samples, per-cell anatomy, journal event sequence, Progress callbacks —
// is bit-identical for any worker count. The first failing cell cancels
// the pool; remaining workers finish their in-flight experiment and exit,
// and run returns only after every worker has stopped (no goroutine leaks).
func (c *campaign) run(ctx context.Context, cell cellFunc) (*Result, error) {
	schedule := c.schedule()
	res := &Result{
		Factors:   append([]string(nil), c.factors...),
		Quantiles: append([]float64(nil), c.quantiles...),
	}
	var cellAggs map[string]*anatomy.Aggregator
	if c.anatomySource != "" {
		cfg := anatomy.DefaultConfig()
		cfg.Source = c.anatomySource
		// A full factorial visits every permutation, so the per-cell
		// aggregators can all be built (and the config validated) up front.
		cellAggs = make(map[string]*anatomy.Aggregator, 1<<len(c.factors))
		for _, levels := range Permutations(len(c.factors)) {
			agg, err := anatomy.NewAggregator(cfg)
			if err != nil {
				return nil, err
			}
			cellAggs[LevelsKey(levels)] = agg
		}
	}
	workers := c.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(schedule) {
		workers = len(schedule)
	}
	c.telemetry.Gauge("runner.workers").Set(int64(workers))
	c.telemetry.Gauge("runner.experiments_total").Set(int64(len(schedule)))
	doneG := c.telemetry.Gauge("runner.experiments_done")
	doneG.Set(0)
	inflightG := c.telemetry.Gauge("runner.experiments_inflight")

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the schedule length so workers never block on send: the
	// pool drains cleanly even when the commit loop stops consuming early.
	outcomes := make(chan runOutcome, len(schedule))
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(schedule) || cctx.Err() != nil {
					return
				}
				inflightG.Add(1)
				out := runOutcome{idx: i}
				var record func(total float64, v anatomy.Vec)
				if cellAggs != nil {
					record = func(total float64, v anatomy.Vec) {
						out.obs = append(out.obs, anatomyObs{total, v})
					}
				}
				// Tag the worker goroutine (and everything the cell spawns)
				// with the factorial cell for the duration of the experiment
				// so CPU profiles of a campaign attribute samples to cells
				// (pprof -tagfocus study_cell=...).
				pprof.Do(cctx, pprof.Labels("study_cell", LevelsKey(schedule[i])), func(lctx context.Context) {
					out.sample, out.err = cell(lctx, i, schedule[i], c.cellSeed(i), record)
				})
				inflightG.Add(-1)
				outcomes <- out
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	// Ordered commit: outcomes arrive in completion order but are applied
	// in schedule order — sample, then the cell's anatomy aggregator, then
	// the done gauge, then Progress — which keeps samples, anatomy
	// accumulation order, progress counts and gauges deterministic (and
	// monotone) under out-of-order completion.
	reorder := make(map[int]runOutcome)
	errIdx := -1
	var firstErr error
	for out := range outcomes {
		if out.err != nil {
			// Keep the lowest-index failure (what a sequential campaign
			// would have hit first among the runs that executed).
			if errIdx < 0 || out.idx < errIdx {
				errIdx = out.idx
				firstErr = out.err
			}
			cancel()
			continue
		}
		reorder[out.idx] = out
		for {
			next := len(res.Samples)
			o, ok := reorder[next]
			if !ok {
				break
			}
			delete(reorder, next)
			res.Samples = append(res.Samples, o.sample)
			if cellAggs != nil {
				agg := cellAggs[LevelsKey(schedule[next])]
				for _, ob := range o.obs {
					agg.Record(ob.total, ob.v)
				}
			}
			doneG.Set(int64(next + 1))
			if c.progress != nil {
				c.progress(next+1, len(schedule))
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("runner: experiment %d (levels %v): %w", errIdx, schedule[errIdx], firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cellAggs == nil {
		return res, nil
	}

	res.Anatomy = make(map[string]*anatomy.Breakdown, len(cellAggs))
	keys := make([]string, 0, len(cellAggs))
	for key := range cellAggs {
		keys = append(keys, key)
	}
	// Sorted cell order keeps the journal's anatomy event sequence
	// deterministic (map iteration order is not).
	sort.Strings(keys)
	for _, key := range keys {
		b := cellAggs[key].Finalize()
		res.Anatomy[key] = b
		if c.journal != nil {
			if err := c.journal.Emit(telemetry.Event{
				Kind:    telemetry.EventAnatomy,
				Anatomy: b.Record("cell " + key),
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
