package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/telemetry"
)

// cellFunc executes one scheduled experiment. ctx carries the study_cell
// pprof label and is cancelled once any cell of the campaign fails. record
// is nil unless the campaign collects anatomy; it folds a measured request's
// (total latency, phase vector) pair into the experiment's own aggregator
// and must not be called once the cell has returned.
type cellFunc func(ctx context.Context, idx int, levels []int, seed uint64, record func(total float64, v anatomy.Vec)) (Sample, error)

// campaign is the one factorial-campaign engine (paper §V-A): it owns the
// randomized schedule, the per-index seed derivation, the bounded worker
// pool, and the ordered commit. Study.Run, LiveStudy.Run and Study.RunFleet
// differ only in the cell function: simulate it, run it over loopback, or
// collect what a fleet agent already computed for it. Anatomy is reduced
// where it is measured: each experiment fills one O(bins) Aggregator that
// the commit merges into its cell's, so no per-request data leaves a worker.
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

// cellIndex maps a level vector to its factorial cell's slot, first factor
// most significant, so ascending index order is LevelsKey's sorted order.
func cellIndex(levels []int) int {
	idx := 0
	for _, l := range levels {
		idx = idx<<1 | l
	}
	return idx
}

// runOutcome carries one finished experiment from a worker to the ordered
// commit loop; agg is nil unless the campaign collects anatomy.
type runOutcome struct {
	idx    int
	sample Sample
	agg    *anatomy.Aggregator
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
		Samples:   make([]Sample, 0, len(schedule)),
	}
	// Indexed by cellIndex; nil unless the campaign collects anatomy.
	var cellAggs []*anatomy.Aggregator
	var cellKeys []string
	anaCfg := anatomy.DefaultConfig()
	if c.anatomySource != "" {
		anaCfg.Source = c.anatomySource
		// A full factorial visits every permutation, so the per-cell
		// aggregators can all be built (and the config validated) up front.
		cellAggs = make([]*anatomy.Aggregator, 1<<len(c.factors))
		cellKeys = make([]string, len(cellAggs))
		for _, levels := range Permutations(len(c.factors)) {
			agg, err := anatomy.NewAggregator(anaCfg)
			if err != nil {
				return nil, err
			}
			i := cellIndex(levels)
			cellAggs[i], cellKeys[i] = agg, LevelsKey(levels)
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
	bufferedG := c.telemetry.Gauge("runner.experiments_buffered")
	defer bufferedG.Set(0)

	// spare holds per-experiment aggregators the commit has merged, for a
	// worker to reset and fill again: a campaign allocates as many as it
	// has experiments in flight or buffered at once, not one per experiment.
	// Sized like outcomes, so the commit never blocks or drops one.
	spare := make(chan *anatomy.Aggregator, len(schedule))

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the schedule length so workers never block on send: the
	// pool drains cleanly even when the commit loop stops consuming early.
	outcomes := make(chan *runOutcome, len(schedule))
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
				out := &runOutcome{idx: i}
				var record func(total float64, v anatomy.Vec)
				if cellAggs != nil {
					// Sums form within the experiment first, then merge in
					// schedule order: deterministic for any worker count.
					select {
					case out.agg = <-spare:
						out.agg.Reset()
					default:
						out.agg, out.err = anatomy.NewAggregator(anaCfg)
					}
					record = out.agg.Record
				}
				if out.err == nil {
					// Tag the worker goroutine (and everything the cell spawns)
					// with the factorial cell for the duration of the experiment
					// so CPU profiles of a campaign attribute samples to cells
					// (pprof -tagfocus study_cell=...).
					pprof.Do(cctx, pprof.Labels("study_cell", LevelsKey(schedule[i])), func(lctx context.Context) {
						out.sample, out.err = cell(lctx, i, schedule[i], c.cellSeed(i), record)
					})
				}
				inflightG.Add(-1)
				outcomes <- out
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	errIdx := -1
	var firstErr error
	// fail keeps the lowest-index failure (what a sequential campaign would
	// have hit first among the runs that executed) and stops the pool.
	fail := func(idx int, err error) {
		if errIdx < 0 || idx < errIdx {
			errIdx, firstErr = idx, err
		}
		cancel()
	}
	// Ordered commit: outcomes arrive in completion order but are applied
	// in schedule order — sample, then the merge into the cell's aggregator,
	// then the gauges, then Progress — which keeps samples, anatomy merge
	// order, progress counts and gauges deterministic (and monotone) under
	// out-of-order completion. pending[i] holds experiment i from its
	// arrival until every lower index has committed.
	pending := make([]*runOutcome, len(schedule))
	buffered := 0
	for out := range outcomes {
		if out.err != nil {
			fail(out.idx, out.err)
			continue
		}
		pending[out.idx] = out
		buffered++
		for next := len(res.Samples); next < len(pending) && pending[next] != nil; next++ {
			o := pending[next]
			pending[next] = nil
			buffered--
			res.Samples = append(res.Samples, o.sample)
			if cellAggs != nil {
				if err := cellAggs[cellIndex(schedule[next])].Merge(o.agg); err != nil {
					fail(next, err)
				}
				spare <- o.agg
			}
			doneG.Set(int64(next + 1))
			bufferedG.Set(int64(buffered))
			if c.progress != nil {
				c.progress(next+1, len(schedule))
			}
		}
		bufferedG.Set(int64(buffered))
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
	// cellIndex order is sorted-key order: a fixed journal event sequence.
	for i, agg := range cellAggs {
		b := agg.Finalize()
		res.Anatomy[cellKeys[i]] = b
		if c.journal != nil {
			if err := c.journal.Emit(telemetry.Event{
				Kind:    telemetry.EventAnatomy,
				Anatomy: b.Record("cell " + cellKeys[i]),
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
