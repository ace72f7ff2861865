package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/quantreg"
	"treadmill/internal/report"
	"treadmill/internal/runner"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
)

// attributionQuantiles are the percentiles the attribution figures report.
var attributionQuantiles = []float64{0.5, 0.9, 0.95, 0.99}

// Attribution bundles one workload's full factorial campaign at both load
// levels with quantile-regression fits — the shared input of Table IV and
// Figs. 7-12.
type Attribution struct {
	Workload string
	Factors  []string
	Low      *runner.Result
	High     *runner.Result
	// FitsLow / FitsHigh map each percentile to its regression.
	FitsLow  map[float64]*quantreg.Result
	FitsHigh map[float64]*quantreg.Result

	scale     Scale
	highStudy *runner.Study
}

// newStudy builds the factorial study for the workload at the given rate.
func newStudy(s Scale, workloadName string, rate float64) (*runner.Study, error) {
	base := factorialCluster(s.Seed)
	switch workloadName {
	case "memcached":
		// Default server config is the memcached model.
	case "mcrouter":
		base.Server = sim.McrouterServerConfig()
		base.Server.RandomPlacement = true
	default:
		return nil, fmt.Errorf("unknown workload %q", workloadName)
	}
	return factorialStudy(s, base, runner.PaperFactors(), rate, s.Duration, s.Warmup), nil
}

// factorialStudy builds the simulated factorial campaign every scenario in
// this package runs: the attribution quantiles, per-cell anatomy, and the
// scale's seed, workers, telemetry and journal. dur and warm are simulated
// seconds per experiment.
func factorialStudy(s Scale, base sim.ClusterConfig, factors []runner.Factor, rate, dur, warm float64) *runner.Study {
	return &runner.Study{
		Base:           base,
		Factors:        factors,
		TotalRate:      rate,
		ConnsPerClient: 8,
		Duration:       dur,
		Warmup:         warm,
		Replicates:     s.Replicates,
		Quantiles:      attributionQuantiles,
		Seed:           s.Seed,
		Workers:        s.Workers,
		Telemetry:      s.Telemetry,
		CollectAnatomy: true,
		Journal:        s.Journal,
	}
}

// bodyAndTail are the two percentiles the scenario tables (inference,
// fan-out, live) print side by side.
var bodyAndTail = []float64{0.5, 0.99}

// fitQuantiles fits one regression per percentile of a finished campaign.
// The fits are independent (each derives its own RNG from the seed and
// tau), so they run concurrently; the bootstrap inside each fit
// parallelizes further on its own pool.
func fitQuantiles(res *runner.Result, s Scale, what string, taus []float64) (map[float64]*quantreg.Result, error) {
	fits := make([]*quantreg.Result, len(taus))
	errs := make([]error, len(taus))
	var wg sync.WaitGroup
	for ti, tau := range taus {
		wg.Add(1)
		go func(ti int, tau float64) {
			defer wg.Done()
			fits[ti], errs[ti] = res.Fit(tau, s.Bootstrap, s.Seed+uint64(tau*1000))
		}(ti, tau)
	}
	wg.Wait()
	out := make(map[float64]*quantreg.Result, len(taus))
	for ti, tau := range taus {
		if errs[ti] != nil {
			return nil, fmt.Errorf("fit %s tau=%g: %w", what, tau, errs[ti])
		}
		out[tau] = fits[ti]
	}
	return out, nil
}

// RunAttribution executes the full campaign for a workload ("memcached" or
// "mcrouter") at low and high load and fits all percentiles.
func RunAttribution(ctx context.Context, s Scale, workloadName string) (*Attribution, error) {
	a := &Attribution{Workload: workloadName, scale: s}
	low, high := lowRate, highRate
	if workloadName == "mcrouter" {
		low, high = mcrouterLowRate, mcrouterHighRate
	}
	for _, load := range []struct {
		rate float64
		dst  **runner.Result
		fits *map[float64]*quantreg.Result
	}{
		{low, &a.Low, &a.FitsLow},
		{high, &a.High, &a.FitsHigh},
	} {
		study, err := newStudy(s, workloadName, load.rate)
		if err != nil {
			return nil, err
		}
		res, err := study.Run(ctx)
		if err != nil {
			return nil, err
		}
		*load.dst = res
		a.Factors = res.Factors
		if load.rate == high {
			a.highStudy = study
		}
		if *load.fits, err = fitQuantiles(res, s, workloadName, attributionQuantiles); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Table4 renders the quantile-regression coefficient table at high load
// for 50th/95th/99th percentiles (paper Table IV).
func Table4(a *Attribution) *report.Table {
	taus := []float64{0.5, 0.95, 0.99}
	tab := &report.Table{
		Title: fmt.Sprintf("Table IV: quantile regression for %s at high utilization", a.Workload),
		Headers: []string{"Factor",
			"p50 Est.", "p50 SE", "p50 p-value",
			"p95 Est.", "p95 SE", "p95 p-value",
			"p99 Est.", "p99 SE", "p99 p-value"},
	}
	ref := a.FitsHigh[0.5]
	for ti := range ref.Coefs {
		row := []string{ref.Coefs[ti].Term}
		for _, tau := range taus {
			c := a.FitsHigh[tau].Coefs[ti]
			row = append(row, report.MicrosInt(c.Est), report.MicrosInt(c.StdErr), report.PValue(c.P))
		}
		tab.AddRow(row...)
	}
	return tab
}

// Fig7 renders the estimated latency of every factor permutation at each
// percentile under low and high load (paper Fig. 7 for memcached, Fig. 9
// for mcrouter).
func Fig7(a *Attribution) (*report.Table, error) {
	tab := &report.Table{
		Title:   fmt.Sprintf("Fig 7/9: estimated latency per configuration (%s)", a.Workload),
		Headers: []string{"config (numa,turbo,dvfs,nic)"},
	}
	for _, tau := range attributionQuantiles {
		tab.Headers = append(tab.Headers,
			fmt.Sprintf("p%g low", tau*100), fmt.Sprintf("p%g high", tau*100))
	}
	k := len(a.Factors)
	for _, levels := range runner.Permutations(k) {
		row := []string{runner.LevelsKey(levels)}
		x := make([]float64, k)
		for i, l := range levels {
			x[i] = float64(l)
		}
		for _, tau := range attributionQuantiles {
			lo, err := a.FitsLow[tau].Predict(x)
			if err != nil {
				return nil, err
			}
			hi, err := a.FitsHigh[tau].Predict(x)
			if err != nil {
				return nil, err
			}
			row = append(row, report.Micros(lo), report.Micros(hi))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// Fig8 renders the average marginal impact of flipping each factor to its
// high level, other factors equiprobable (paper Fig. 8 / Fig. 10).
func Fig8(a *Attribution) (*report.Table, error) {
	tab := &report.Table{
		Title:   fmt.Sprintf("Fig 8/10: average impact of each factor at high level (%s)", a.Workload),
		Headers: []string{"factor"},
	}
	for _, tau := range attributionQuantiles {
		tab.Headers = append(tab.Headers,
			fmt.Sprintf("p%g low", tau*100), fmt.Sprintf("p%g high", tau*100))
	}
	impacts := make(map[float64][2]map[string]float64)
	for _, tau := range attributionQuantiles {
		lo, err := runner.MarginalImpact(a.FitsLow[tau], a.Factors)
		if err != nil {
			return nil, err
		}
		hi, err := runner.MarginalImpact(a.FitsHigh[tau], a.Factors)
		if err != nil {
			return nil, err
		}
		impacts[tau] = [2]map[string]float64{lo, hi}
	}
	for _, f := range a.Factors {
		row := []string{f}
		for _, tau := range attributionQuantiles {
			row = append(row, report.Micros(impacts[tau][0][f]), report.Micros(impacts[tau][1][f]))
		}
		tab.AddRow(row...)
	}
	return tab, nil
}

// Fig11 renders pseudo-R² for every workload × load level × percentile
// (paper Fig. 11). The paper reports all values >= 0.9.
func Fig11(attrs ...*Attribution) *report.Table {
	tab := &report.Table{
		Title:   "Fig 11: pseudo-R2 of the quantile regression models",
		Headers: []string{"workload", "load"},
	}
	for _, tau := range attributionQuantiles {
		tab.Headers = append(tab.Headers, fmt.Sprintf("p%g", tau*100))
	}
	for _, a := range attrs {
		for _, load := range []struct {
			name string
			fits map[float64]*quantreg.Result
		}{{"low", a.FitsLow}, {"high", a.FitsHigh}} {
			row := []string{a.Workload, load.name}
			for _, tau := range attributionQuantiles {
				row = append(row, fmt.Sprintf("%.3f", load.fits[tau].PseudoR2))
			}
			tab.AddRow(row...)
		}
	}
	return tab
}

// AnatomyTable renders the mechanistic cross-check of the statistical
// attribution: for every factorial cell of the high-load campaign, where
// tail requests (≥P99) spend their extra time relative to body requests
// (≤P50), and which mechanism dominates that excess. If the regression says
// a factor moves the tail, the cells that flip it should show the matching
// phase (e.g. turbo off ⇒ the P-state/turbo ramp deficit dominates).
func AnatomyTable(a *Attribution) (*report.Table, error) {
	if a.High == nil || a.High.Anatomy == nil {
		return nil, fmt.Errorf("attribution campaign collected no anatomy")
	}
	tab := &report.Table{
		Title: fmt.Sprintf("Tail anatomy per configuration (%s, high load): body ≤P50 vs tail ≥P99", a.Workload),
		Headers: []string{"config (numa,turbo,dvfs,nic)", "requests", "p50", "p99",
			"total excess", "top excess phase", "phase excess", "share"},
	}
	addCellAnatomyRows(tab, len(a.Factors), a.High.Anatomy)
	return tab, nil
}

// addCellAnatomyRows appends one row per factorial cell: its P50/P99, the
// tail-over-body excess, and the phase that owns most of that excess.
func addCellAnatomyRows(tab *report.Table, factors int, cells map[string]*anatomy.Breakdown) {
	for _, levels := range runner.Permutations(factors) {
		key := runner.LevelsKey(levels)
		b, ok := cells[key]
		if !ok {
			continue
		}
		excess := b.TailExcess()
		top := excess.ArgMax()
		totalExcess := b.Tail.MeanTotal - b.Body.MeanTotal
		share := "n/a"
		if totalExcess > 0 {
			share = report.Percent(excess[top] / totalExcess)
		}
		note := ""
		if b.LowConfidence {
			note = " (low confidence)"
		}
		tab.AddRow(key, fmt.Sprintf("%d", b.Requests),
			report.Micros(b.P50), report.Micros(b.P99),
			report.Micros(totalExcess), top.String()+note,
			report.Micros(excess[top]), share)
	}
}

// coefficientTable renders a campaign's regression coefficients with 95%
// bootstrap intervals, p50 beside p99 — which knob moves the tail, with
// uncertainty.
func coefficientTable(title string, fits map[float64]*quantreg.Result) *report.Table {
	tab := &report.Table{
		Title:   title,
		Headers: []string{"Term", "p50 Est.", "p50 95% CI", "p99 Est.", "p99 95% CI", "p99 p-value"},
	}
	fit50, fit99 := fits[0.5], fits[0.99]
	if fit99 == nil {
		return tab
	}
	ci := func(c quantreg.Coefficient) string {
		if math.IsNaN(c.StdErr) {
			return "n/a"
		}
		return fmt.Sprintf("[%s, %s]",
			report.Micros(c.Est-1.96*c.StdErr), report.Micros(c.Est+1.96*c.StdErr))
	}
	for _, c99 := range fit99.Coefs {
		p50Est, p50CI := "n/a", "n/a"
		if fit50 != nil {
			if c50, ok := fit50.Coef(c99.Term); ok {
				p50Est, p50CI = report.Micros(c50.Est), ci(c50)
			}
		}
		pv := "n/a"
		if !math.IsNaN(c99.P) {
			pv = fmt.Sprintf("%.3f", c99.P)
		}
		tab.AddRow(c99.Term, p50Est, p50CI, report.Micros(c99.Est), ci(c99), pv)
	}
	return tab
}

// AnatomyCellTables renders the full per-phase breakdown for selected cells
// (by LevelsKey); unknown keys are skipped. tailbench uses it to show the
// turbo-off vs turbo-on contrast in detail.
func AnatomyCellTables(a *Attribution, keys ...string) []*report.Table {
	var out []*report.Table
	if a.High == nil {
		return out
	}
	for _, key := range keys {
		if b, ok := a.High.Anatomy[key]; ok {
			out = append(out, anatomy.Table(
				fmt.Sprintf("Tail anatomy, %s cell %s (high load)", a.Workload, key), b))
		}
	}
	return out
}

// TuningOutcome summarizes Fig. 12's before/after comparison.
type TuningOutcome struct {
	BestConfig []int
	// Before/After are per-run p50 and p99 values.
	BeforeP50, BeforeP99, AfterP50, AfterP99 []float64
}

// Fig12 evaluates the tuning recommendation: "before" runs the experiment
// with randomly chosen configurations, "after" uses the configuration the
// high-load p99 regression recommends (paper Fig. 12).
func Fig12(a *Attribution) (*report.Table, *TuningOutcome, error) {
	if a.highStudy == nil {
		return nil, nil, fmt.Errorf("attribution campaign missing high-load study")
	}
	fit := a.FitsHigh[0.99]
	best, _, err := runner.BestConfig(fit, len(a.Factors))
	if err != nil {
		return nil, nil, err
	}
	out := &TuningOutcome{BestConfig: best}
	// Draw every arm's random configuration up front from the sequential
	// RNG, then fan the (independent, seed-deterministic) before/after runs
	// across a bounded pool; results land in per-run slots, so the outcome
	// is identical to the sequential evaluation for any worker count.
	rng := dist.NewRNG(a.scale.Seed + 99)
	perms := runner.Permutations(len(a.Factors))
	runs := a.scale.TuningRuns
	randomCfgs := make([][]int, runs)
	for run := 0; run < runs; run++ {
		randomCfgs[run] = perms[rng.Intn(len(perms))]
	}
	before := make([]runner.Sample, runs)
	after := make([]runner.Sample, runs)
	errs := make([]error, runs)
	workers := a.scale.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	var nextRun int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				run := int(atomic.AddInt64(&nextRun, 1))
				if run >= runs {
					return
				}
				seed := a.scale.Seed + 7700000 + uint64(run)*131
				var err error
				if before[run], err = a.highStudy.RunConfig(randomCfgs[run], seed); err != nil {
					errs[run] = err
					continue
				}
				after[run], errs[run] = a.highStudy.RunConfig(best, seed+1)
			}
		}()
	}
	wg.Wait()
	for run := 0; run < runs; run++ {
		if errs[run] != nil {
			return nil, nil, errs[run]
		}
		out.BeforeP50 = append(out.BeforeP50, before[run].Quantiles[0.5])
		out.BeforeP99 = append(out.BeforeP99, before[run].Quantiles[0.99])
		out.AfterP50 = append(out.AfterP50, after[run].Quantiles[0.5])
		out.AfterP99 = append(out.AfterP99, after[run].Quantiles[0.99])
	}
	tab := &report.Table{
		Title: fmt.Sprintf("Fig 12: tail latency before/after tuning (%s, best config %s)",
			a.Workload, runner.LevelsKey(best)),
		Headers: []string{"metric", "before mean", "before stddev", "after mean", "after stddev", "reduction"},
	}
	add := func(name string, before, after []float64) {
		bm, am := stats.Mean(before), stats.Mean(after)
		tab.AddRow(name, report.Micros(bm), report.Micros(stats.StdDev(before)),
			report.Micros(am), report.Micros(stats.StdDev(after)),
			report.Percent((bm-am)/bm))
	}
	add("p50", out.BeforeP50, out.AfterP50)
	add("p99", out.BeforeP99, out.AfterP99)
	return tab, out, nil
}
