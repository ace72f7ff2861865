package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/quantreg"
	"treadmill/internal/report"
	"treadmill/internal/runner"
)

// LiveAnatomy bundles a live (real-TCP, runtime-probed) factorial campaign:
// quantile samples per cell, quantile-regression fits, per-cell live anatomy
// breakdowns, and the derived GC finding — the live-mode counterpart of the
// simulator's Attribution.
type LiveAnatomy struct {
	Factors []string
	Result  *runner.Result
	// Fits maps percentile → regression over the live factors.
	Fits map[float64]*quantreg.Result
	// GC summarizes what the live ledger says about garbage collection.
	GC LiveGCFinding
}

// LiveGCFinding is the campaign's headline measurement: how much of the
// tail-vs-body latency gap the runtime attributes to GC pauses, at each GOGC
// level, plus the regression's view of the gogc factor with a bootstrap CI.
type LiveGCFinding struct {
	// ShareRelaxed / ShareAggressive are the requests-weighted mean GC-pause
	// share of the P99−P50 excess across cells at GOGC=400 (relaxed) and
	// GOGC=25 (aggressive). NaN when no cell at that level had a
	// well-defined gap.
	ShareRelaxed, ShareAggressive float64
	// P99Coef is the gogc main-effect coefficient of the p99 regression
	// (seconds added by switching to the aggressive level); CILow/CIHigh is
	// its 95% bootstrap interval.
	P99Coef, CILow, CIHigh float64
}

// liveParams sizes the live campaign for a scale. Live experiments burn wall
// clock (sequential cells, real sleeps), so full scale bounds replicates
// rather than inheriting the simulator's 30.
func liveParams(s Scale) (rate float64, dur, warm time.Duration, reps int) {
	if s.Name == "quick" {
		return 3000, 150 * time.Millisecond, 50 * time.Millisecond, s.Replicates
	}
	reps = s.Replicates
	if reps > 4 {
		reps = 4
	}
	return 5000, time.Second, 250 * time.Millisecond, reps
}

// RunLiveAnatomy executes the live factorial (GOMAXPROCS × GOGC × conns ×
// value size) against an in-process server over loopback, with server-timing
// trailers and the runtime probe filling the anatomy ledger, then fits the
// p50 and p99 regressions and derives the GC finding.
func RunLiveAnatomy(ctx context.Context, s Scale) (*LiveAnatomy, error) {
	rate, dur, warm, reps := liveParams(s)
	study := &runner.LiveStudy{
		Factors:        runner.LiveFactors(),
		TotalRate:      rate,
		Duration:       dur,
		Warmup:         warm,
		Replicates:     reps,
		Quantiles:      attributionQuantiles,
		Seed:           s.Seed,
		Telemetry:      s.Telemetry,
		CollectAnatomy: true,
		Journal:        s.Journal,
	}
	res, err := study.Run(ctx)
	if err != nil {
		return nil, err
	}
	la := &LiveAnatomy{Factors: res.Factors, Result: res}
	if la.Fits, err = fitQuantiles(res, s, "live", bodyAndTail); err != nil {
		return nil, err
	}
	la.GC = gcFinding(la)
	return la, nil
}

// gcFinding derives the GC summary from the per-cell breakdowns and the p99
// fit. The gogc factor index is looked up by name so factor reordering
// cannot silently mislabel the levels.
func gcFinding(la *LiveAnatomy) LiveGCFinding {
	f := LiveGCFinding{
		ShareRelaxed: math.NaN(), ShareAggressive: math.NaN(),
		P99Coef: math.NaN(), CILow: math.NaN(), CIHigh: math.NaN(),
	}
	gogcIdx := -1
	for i, name := range la.Factors {
		if name == "gogc" {
			gogcIdx = i
		}
	}
	if gogcIdx < 0 || la.Result == nil || la.Result.Anatomy == nil {
		return f
	}
	var share [2]float64
	var weight [2]float64
	for _, levels := range runner.Permutations(len(la.Factors)) {
		b, ok := la.Result.Anatomy[runner.LevelsKey(levels)]
		if !ok {
			continue
		}
		gap := b.Tail.MeanTotal - b.Body.MeanTotal
		if gap <= 0 || b.Requests == 0 {
			continue
		}
		gcShare := b.TailExcess()[anatomy.SrvGC] / gap
		lvl := levels[gogcIdx]
		share[lvl] += gcShare * float64(b.Requests)
		weight[lvl] += float64(b.Requests)
	}
	if weight[0] > 0 {
		f.ShareRelaxed = share[0] / weight[0]
	}
	if weight[1] > 0 {
		f.ShareAggressive = share[1] / weight[1]
	}
	if fit := la.Fits[0.99]; fit != nil {
		if c, ok := fit.Coef("gogc"); ok {
			f.P99Coef = c.Est
			f.CILow = c.Est - 1.96*c.StdErr
			f.CIHigh = c.Est + 1.96*c.StdErr
		}
	}
	return f
}

// LiveAnatomyTable renders the dominant-mechanism view: one row per live
// factorial cell with its P50/P99, the tail excess, and which phase of the
// runtime-derived ledger the slowest requests pay most for.
func LiveAnatomyTable(la *LiveAnatomy) (*report.Table, error) {
	if la.Result == nil || la.Result.Anatomy == nil {
		return nil, fmt.Errorf("live campaign collected no anatomy")
	}
	tab := &report.Table{
		Title: fmt.Sprintf("Live tail anatomy per configuration (%s): body ≤P50 vs tail ≥P99",
			strings.Join(la.Factors, ",")),
		Headers: []string{"config", "requests", "p50", "p99",
			"total excess", "top excess phase", "phase excess", "share"},
	}
	addCellAnatomyRows(tab, len(la.Factors), la.Result.Anatomy)
	return tab, nil
}

// LiveAttributionTable renders the quantile-regression coefficients of the
// live factorial with 95% bootstrap intervals, p50 beside p99 — which real
// knob moves the live tail, with uncertainty.
func LiveAttributionTable(la *LiveAnatomy) *report.Table {
	return coefficientTable("Live quantile regression: real knobs vs measured latency", la.Fits)
}

// LiveGCTable renders the GC finding as a small table.
func LiveGCTable(la *LiveAnatomy) *report.Table {
	tab := &report.Table{
		Title:   "GC-pause share of the P99−P50 gap vs GOGC (live, runtime-derived)",
		Headers: []string{"metric", "value"},
	}
	pct := func(v float64) string {
		if math.IsNaN(v) {
			return "n/a"
		}
		return report.Percent(v)
	}
	tab.AddRow("gc share of tail excess @ GOGC=400 (relaxed)", pct(la.GC.ShareRelaxed))
	tab.AddRow("gc share of tail excess @ GOGC=25 (aggressive)", pct(la.GC.ShareAggressive))
	if !math.IsNaN(la.GC.P99Coef) {
		tab.AddRow("p99 gogc coefficient (aggressive − relaxed)",
			fmt.Sprintf("%s  95%% CI [%s, %s]",
				report.Micros(la.GC.P99Coef), report.Micros(la.GC.CILow), report.Micros(la.GC.CIHigh)))
	}
	return tab
}
