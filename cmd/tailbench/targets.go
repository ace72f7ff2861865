package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"treadmill/internal/experiments"
	"treadmill/internal/flightrec"
	"treadmill/internal/gate"
	"treadmill/internal/telemetry"
)

// target is one row of the registry: a leaf experiment (run set) or a
// group (members set) that expands, recursively, to leaves.
type target struct {
	name  string
	blurb string
	// wallClock marks targets measured on real sockets and timers: their
	// numbers vary by host and run, so no group includes them. Everything
	// else is a deterministic function of -scale and -seed.
	wallClock bool
	run       func(*env) error
	members   []string
}

// targets is the registry: usage text, name validation and group expansion
// all read it, so a target exists exactly when it is listed here.
var targets = []target{
	{name: "table1", blurb: "load-tester feature matrix (paper Table I)", run: func(e *env) error {
		return e.show(nil, experiments.Table1())
	}},
	{name: "table2", blurb: "system-under-test spec: paper hardware vs simulator model (Table II)", run: func(e *env) error {
		return e.show(nil, experiments.Table2())
	}},
	{name: "table3", blurb: "factorial design factors and levels (Table III)", run: func(e *env) error {
		return e.show(nil, experiments.Table3())
	}},
	{name: "fig1", blurb: "outstanding requests, open loop vs closed loop at 80% utilization", run: func(e *env) error {
		fig, err := experiments.Fig1(e.scale)
		return e.show(err, fig)
	}},
	{name: "fig2", blurb: "multi-client aggregation bias: a remote-rack client dominates the pooled tail", run: func(e *env) error {
		fig, tab, err := experiments.Fig2(e.scale)
		return e.show(err, fig, tab)
	}},
	{name: "fig3", blurb: "server/client/network latency decomposition, single vs multi client", run: func(e *env) error {
		single, multi, err := experiments.Fig3(e.scale)
		return e.show(err, single, multi)
	}},
	{name: "fig4", blurb: "performance hysteresis: repeated runs converge to different values", run: func(e *env) error {
		fig, tab, err := experiments.Fig4(e.scale)
		return e.show(err, fig, tab)
	}},
	{name: "fig5", blurb: "CloudSuite vs Mutilate vs Treadmill against ground truth at 10% utilization", run: func(e *env) error {
		fig, tab, err := experiments.Fig5(e.scale)
		return e.show(err, fig, tab)
	}},
	{name: "fig6", blurb: "Mutilate vs Treadmill at 80% utilization", run: func(e *env) error {
		fig, tab, err := experiments.Fig6(e.scale)
		return e.show(err, fig, tab)
	}},
	{name: "findings", blurb: "paper findings 1, 3, 4, 6, 8 re-evaluated on the simulator", run: func(e *env) error {
		fs, err := experiments.Findings(e.scale)
		if err != nil {
			return err
		}
		return e.show(nil, experiments.FindingsTable(fs))
	}},
	{name: "table4", blurb: "memcached quantile-regression coefficients at P50/P95/P99 (Table IV)",
		run: attribution("memcached", func(a *experiments.Attribution) (any, error) { return experiments.Table4(a), nil })},
	{name: "fig7", blurb: "memcached estimated latency of every factor permutation",
		run: attribution("memcached", func(a *experiments.Attribution) (any, error) { return experiments.Fig7(a) })},
	{name: "fig8", blurb: "memcached average marginal impact of each factor",
		run: attribution("memcached", func(a *experiments.Attribution) (any, error) { return experiments.Fig8(a) })},
	{name: "fig9", blurb: "mcrouter estimated latency of every factor permutation",
		run: attribution("mcrouter", func(a *experiments.Attribution) (any, error) { return experiments.Fig7(a) })},
	{name: "fig10", blurb: "mcrouter average marginal impact of each factor",
		run: attribution("mcrouter", func(a *experiments.Attribution) (any, error) { return experiments.Fig8(a) })},
	{name: "fig11", blurb: "pseudo-R² for every workload × load × percentile", run: func(e *env) error {
		mc, err := e.attribution("memcached")
		if err != nil {
			return err
		}
		mr, err := e.attribution("mcrouter")
		if err != nil {
			return err
		}
		return e.show(nil, experiments.Fig11(mc, mr))
	}},
	{name: "fig12", blurb: "tuning evaluation: random configurations vs the regression's recommendation",
		run: attribution("memcached", func(a *experiments.Attribution) (any, error) {
			tab, _, err := experiments.Fig12(a)
			return tab, err
		})},
	{name: "anatomy", blurb: "per-cell tail anatomy (dominant mechanism) plus the turbo-contrast cells", run: func(e *env) error {
		a, err := e.attribution("memcached")
		if err != nil {
			return err
		}
		tab, err := experiments.AnatomyTable(a)
		// Detail the turbo contrast: cell 0100 flips only the turbo
		// factor relative to 0000.
		return e.show(err, tab, experiments.AnatomyCellTables(a, "0000", "0100"))
	}},
	{name: "baseline", blurb: "capture the convergence-checked release-gate baseline (writes -baseline and -history, so not in all)", run: runBaseline},
	{name: "gate", blurb: "re-run the gate scenario against -baseline, exit 1 on regression (reads and writes files, so not in all)", run: runGate},

	{name: "saturate", wallClock: true, blurb: "ramp sessions through the classic client and the sharded load plane to slippage onset", run: runSaturate},
	{name: "fleetbias", wallClock: true, blurb: "Fig. 3 client-side queueing bias over the real fleet: 1 overloaded client vs 8 loopback agents", run: func(e *env) error {
		e.logf("running live fleet bias contrast (real sockets, in-process server)...")
		bias, err := experiments.RunFleetBias(e.ctx, e.scale)
		if err != nil {
			return err
		}
		return e.show(nil, experiments.FleetBiasTable(bias))
	}},
	{name: "chaos", wallClock: true, blurb: "loopback fleet campaigns over the fault-injection transport; fails unless the loss-policy invariants hold", run: func(e *env) error {
		dur := time.Second
		if e.scale.Name == "full" {
			dur = 3 * time.Second
		}
		e.logf("running chaos campaigns (loopback fleet, fault-injected transport, %v window)...", dur)
		// A failed suite still renders the arms that ran.
		results, err := experiments.RunChaosSuite(e.ctx, e.scale.Seed, 3, dur)
		if len(results) > 0 {
			e.show(nil, experiments.ChaosTable(results))
		}
		return err
	}},
	{name: "liveanatomy", wallClock: true, blurb: "real-knob factorial (GOMAXPROCS × GOGC × conns × value size × flush batching) with server-timing trailers and the runtime probe", run: func(e *env) error {
		e.logf("running live anatomy factorial (GOMAXPROCS x GOGC x conns x value size, real sockets, runtime probe)...")
		la, err := experiments.RunLiveAnatomy(e.ctx, e.scale)
		if err != nil {
			return err
		}
		tab, err := experiments.LiveAnatomyTable(la)
		return e.show(err, tab, experiments.LiveAttributionTable(la), experiments.LiveGCTable(la))
	}},
	{name: "timeline", wallClock: true, blurb: "flight-recorder campaign over 4 loopback agents; writes a Perfetto-loadable trace to -flight (default timeline.trace.json)", run: runTimeline},
	{name: "inferbench", wallClock: true, blurb: "inference batch × burst factorial (simulated) plus a live serial-vs-batched contrast", run: func(e *env) error {
		e.logf("running inference campaign (simulated batch x burst factorial + live serial-vs-batched contrast)...")
		ib, err := experiments.RunInferBench(e.ctx, e.scale)
		if err != nil {
			return err
		}
		anat, err := experiments.InferAnatomyTable(ib)
		return e.show(err, anat, experiments.InferAttributionTable(ib), experiments.InferLiveTable(ib))
	}},
	{name: "fanout", wallClock: true, blurb: "scatter-gather degree sweep and factorial (simulated) plus live router multi-get cells", run: func(e *env) error {
		e.logf("running scatter-gather campaign (simulated degree sweep + factorial + live router multi-get)...")
		fb, err := experiments.RunFanoutBench(e.ctx, e.scale)
		if err != nil {
			return err
		}
		return e.show(nil, experiments.FanoutSweepTable(fb), experiments.FanoutAttributionTable(fb), experiments.FanoutLiveTable(fb))
	}},

	{name: "attribution", blurb: "the factorial study off two shared campaigns (memcached, mcrouter)",
		members: []string{"table4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "anatomy"}},
	{name: "all", blurb: "every deterministic target that writes no files (several minutes per campaign at -scale full)",
		members: []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "findings", "attribution"}},
}

// attribution builds a target that renders one view of a workload's shared
// attribution campaign.
func attribution(workload string, view func(*experiments.Attribution) (any, error)) func(*env) error {
	return func(e *env) error {
		a, err := e.attribution(workload)
		if err != nil {
			return err
		}
		v, err := view(a)
		return e.show(err, v)
	}
}

func lookup(name string) *target {
	for i := range targets {
		if targets[i].name == name {
			return &targets[i]
		}
	}
	return nil
}

// resolve validates every requested name and expands groups, recursively,
// into the leaf targets to run, in order. Nothing has run when it fails.
func resolve(names []string) ([]*target, error) {
	var leaves []*target
	for _, name := range names {
		t := lookup(name)
		switch {
		case t == nil:
			return nil, fmt.Errorf("unknown experiment %q (tailbench -h lists them)", name)
		case t.run != nil:
			leaves = append(leaves, t)
		default:
			sub, err := resolve(t.members)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", name, err)
			}
			leaves = append(leaves, sub...)
		}
	}
	return leaves, nil
}

// usage prints the help text generated from the target table.
func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "Usage: tailbench [flags] <target>...")
	fmt.Fprintln(w, "\nTargets ([w] = wall-clock: real sockets and timers, numbers vary by host, in no group;")
	fmt.Fprintln(w, "everything else is bit-identical for a given -scale and -seed):")
	for _, t := range targets {
		mark, blurb := "   ", t.blurb
		if t.wallClock {
			mark = "[w]"
		}
		if t.run == nil {
			blurb += " = " + strings.Join(t.members, " ")
		}
		fmt.Fprintf(w, "  %s %-12s %s\n", mark, t.name, blurb)
	}
	fmt.Fprintln(w, "\nFlags (before the target names):")
	fs.PrintDefaults()
}

func runSaturate(e *env) error {
	e.logf("ramping classic vs sharded-plane clients to slippage onset (real sockets, lean responder)...")
	sat, err := experiments.RunSaturate(e.ctx, e.scale, func(line string) { e.logf("saturate: %s", line) })
	if err != nil {
		return err
	}
	e.show(nil, experiments.SaturateTable(sat))
	e.logf("saturate: legacy %d sessions (%.0f rps, %.2f allocs/req) vs plane %d sessions (%.0f rps, %.2f allocs/req): %.1fx sessions/agent, %.1fx bytes/session",
		sat.Legacy.Sessions, sat.Legacy.RPS, sat.Legacy.AllocsPerRequest,
		sat.Plane.Sessions, sat.Plane.RPS, sat.Plane.AllocsPerRequest,
		sat.SessionRatio, sat.Legacy.BytesPerSession/sat.Plane.BytesPerSession)
	return nil
}

func runTimeline(e *env) error {
	e.logf("recording campaign flight timeline (4 loopback agents, real sockets, forensic tail triggers)...")
	tl, err := experiments.RunTimeline(e.ctx, e.scale)
	if err != nil {
		return err
	}
	e.show(nil, experiments.TimelineTable(tl), experiments.TimelineContrastTable(tl))
	out := e.opts.obs.Flight
	if out == "" {
		out = "timeline.trace.json"
	}
	if err := flightrec.WriteChromeTraceFile(out, tl.Spans, tl.Marks); err != nil {
		return err
	}
	if err := flightrec.ValidateChromeTraceFile(out); err != nil {
		return err
	}
	e.logf("flight: wrote %d spans, %d forensic bundles to %s (trace validates); open in https://ui.perfetto.dev",
		len(tl.Spans), tl.Forensics, out)
	return nil
}

// appendGateHistory stamps and appends one gated-metric record, then
// renders the accumulated trend. The stamp lives only in the ledger —
// baselines and verdicts stay byte-reproducible.
func (e *env) appendGateHistory(rec gate.HistoryRecord) error {
	path := e.opts.historyPath
	if path == "" {
		return nil
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339)
	if err := gate.AppendHistory(path, rec); err != nil {
		return err
	}
	recs, err := gate.ReadHistory(path)
	if err != nil {
		return err
	}
	return e.show(nil, gate.HistoryTable(recs))
}

func (e *env) captureOptions(prefix string) gate.CaptureOptions {
	return gate.CaptureOptions{
		Inflate:  e.opts.gateInflate,
		Workers:  e.opts.workers,
		Progress: func(line string) { e.logf("%s: %s", prefix, line) },
	}
}

func runBaseline(e *env) error {
	sc := experiments.GateScenario(e.scale)
	e.logf("capturing release-gate baseline (%d cells, convergence-checked, scenario %s)...",
		1<<len(sc.Factors), sc.Fingerprint())
	b, err := gate.Capture(e.ctx, sc, e.captureOptions("baseline"))
	if err != nil {
		return err
	}
	if err := gate.WriteBaseline(e.opts.baselinePath, b); err != nil {
		return err
	}
	e.show(nil, gate.BaselineTable(b))
	if err := e.appendGateHistory(gate.HistoryRecord{
		Kind: "baseline", Scale: e.scale.Name, Seed: e.scale.Seed,
		Fingerprint: b.Fingerprint, Metrics: gate.BaselineMetrics(b),
	}); err != nil {
		return err
	}
	e.logf("baseline: wrote %s", e.opts.baselinePath)
	return nil
}

func runGate(e *env) error {
	base, err := gate.ReadBaseline(e.opts.baselinePath)
	if err != nil {
		return fmt.Errorf("gate: load baseline: %w — capture one with `tailbench baseline`", err)
	}
	sc := experiments.GateScenario(e.scale)
	e.logf("gating against %s (scenario %s)...", e.opts.baselinePath, sc.Fingerprint())
	// The candidate mirrors the baseline's convergence-chosen replicate
	// count: equal-sized groups for the permutation test, and a verdict
	// even when a regression destabilizes the stopping rule.
	reps := 0
	for _, c := range base.Cells {
		if c.Runs > reps {
			reps = c.Runs
		}
	}
	cand, err := gate.CaptureReplicates(e.ctx, sc, reps, e.captureOptions("gate"))
	if err != nil {
		return err
	}
	v, err := gate.Compare(base, cand, gate.Options{
		Alpha:        e.opts.gateAlpha,
		RelThreshold: e.opts.gateRel,
		AbsThreshold: e.opts.gateAbs.Seconds(),
		Permutations: e.opts.gatePerms,
		Seed:         e.scale.Seed,
	})
	if err != nil {
		return err
	}
	if err := gate.WriteVerdict(e.opts.verdictOut, v); err != nil {
		return err
	}
	if err := e.obs.Journal.Emit(telemetry.Event{Kind: telemetry.EventGate, Gate: v.Record()}); err != nil {
		return err
	}
	e.show(nil, gate.VerdictTable(v))
	if err := e.appendGateHistory(gate.HistoryRecord{
		Kind: "gate", Scale: e.scale.Name, Seed: e.scale.Seed,
		Fingerprint: v.Fingerprint, Pass: &v.Pass, Regressions: v.Regressions,
		Metrics: gate.VerdictMetrics(v),
	}); err != nil {
		return err
	}
	e.logf("gate: %s — wrote %s", v.Decision(), e.opts.verdictOut)
	if !v.Pass {
		return errors.New("release gate blocked")
	}
	return nil
}
