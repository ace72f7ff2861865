// Command tailbench regenerates every table and figure from the paper's
// evaluation on the simulated testbed, plus the repo's live (real-socket)
// experiments and the statistical release gate.
//
// Usage:
//
//	tailbench [flags] <target>...
//
// Flags come before the target names. `tailbench -h` prints every target
// with a one-line description, the groups ("attribution", "all"), and the
// flags; that text is generated from the target table in targets.go, so it
// cannot drift from what the binary runs.
//
// Exit status: 0 on success, 1 when a target fails or the release gate
// blocks, 2 on a usage error (unknown target or scale — checked before
// anything runs), 130 on Ctrl-C. Every path closes the journal first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/experiments"
	"treadmill/internal/obs"
	"treadmill/internal/report"
	"treadmill/internal/telemetry"
)

// options are the parsed command-line flags.
type options struct {
	scaleName    string
	csv          bool
	seed         uint64
	workers      int
	baselinePath string
	verdictOut   string
	historyPath  string
	gateAlpha    float64
	gateRel      float64
	gateAbs      time.Duration
	gatePerms    int
	gateInflate  float64
	obs          obs.Flags
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.scaleName, "scale", "quick", "experiment scale: quick or full")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.workers, "workers", 0, "concurrent experiments per campaign (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&o.baselinePath, "baseline", "GATE_baseline.json", "committed release-gate baseline (written by baseline, read by gate)")
	fs.StringVar(&o.verdictOut, "verdict-out", "GATE_verdict.json", "output path for the gate target's verdict JSON")
	fs.StringVar(&o.historyPath, "history", "BENCH_history.jsonl", "append-only JSONL ledger of gated metrics (empty disables)")
	fs.Float64Var(&o.gateAlpha, "gate-alpha", 0.05, "family-wise error rate for the gate's Holm-corrected permutation tests")
	fs.Float64Var(&o.gateRel, "gate-rel", 0.05, "practical-significance floor as a fraction of the baseline mean")
	fs.DurationVar(&o.gateAbs, "gate-abs", 200*time.Microsecond, "practical-significance floor as an absolute latency delta")
	fs.IntVar(&o.gatePerms, "gate-permutations", 2000, "permutations per gate comparison")
	fs.Float64Var(&o.gateInflate, "gate-inflate", 0, "inflate per-request service demand by this factor during gate/baseline capture (0 or 1 = none; CI's negative arm proves the gate trips)")
	o.obs.RegisterSim(fs)
}

// env is what a target's run function sees: the scale, the output streams,
// the open observability handles, and the attribution campaigns shared by
// the targets that render different views of the same data.
type env struct {
	ctx    context.Context
	opts   *options
	scale  experiments.Scale
	stdout io.Writer
	stderr io.Writer
	obs    *obs.Observability

	// campaigns caches the attribution campaign per workload.
	campaigns map[string]*experiments.Attribution
}

// show renders a target's tables and figures in order, unless the step
// that produced them failed (err is passed through). The views are
// evaluated by the caller before show runs, so pass only values that are
// safe to build when err is set.
func (e *env) show(err error, views ...any) error {
	if err != nil {
		return err
	}
	for _, v := range views {
		switch v := v.(type) {
		case *report.Table:
			e.print(v.Title, v)
		case *report.Figure:
			e.print(v.Title, v)
		case []*report.Table:
			for _, t := range v {
				e.print(t.Title, t)
			}
		default:
			// Only a mistyped target in targets.go gets here.
			panic(fmt.Sprintf("tailbench: cannot render %T", v))
		}
	}
	return nil
}

func (e *env) print(title string, v interface {
	String() string
	CSV() string
}) {
	if e.opts.csv {
		fmt.Fprintln(e.stdout, title)
		fmt.Fprint(e.stdout, v.CSV())
	} else {
		fmt.Fprintln(e.stdout, v)
	}
}

// logf writes one progress line to stderr.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.stderr, format+"\n", args...)
}

// attribution returns the workload's campaign, running it on first use so
// table4/fig7/fig8/fig11/fig12/anatomy share one memcached campaign and
// fig9/fig10/fig11 one mcrouter campaign.
func (e *env) attribution(workload string) (*experiments.Attribution, error) {
	if a := e.campaigns[workload]; a != nil {
		return a, nil
	}
	e.logf("running %s attribution campaign...", workload)
	a, err := experiments.RunAttribution(e.ctx, e.scale, workload)
	if err != nil {
		return nil, err
	}
	e.campaigns[workload] = a
	return a, nil
}

// runAll runs the resolved leaf targets in order, then the -anatomy export.
func (e *env) runAll(leaves []*target) error {
	for _, t := range leaves {
		if err := t.run(e); err != nil {
			return err
		}
	}
	if e.opts.obs.AnatomyEnabled() {
		return e.exportAnatomy()
	}
	return nil
}

// exportAnatomy writes every attribution cell's breakdown to -anatomy.
func (e *env) exportAnatomy() error {
	var recs []*telemetry.AnatomyRecord
	for _, workload := range []string{"memcached", "mcrouter"} {
		a := e.campaigns[workload]
		if a == nil || a.High == nil || a.High.Anatomy == nil {
			continue
		}
		keys := make([]string, 0, len(a.High.Anatomy))
		for k := range a.High.Anatomy {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			recs = append(recs, a.High.Anatomy[k].Record(a.Workload+" cell "+k))
		}
	}
	if len(recs) == 0 {
		e.logf("tailbench: -anatomy set but no attribution campaign ran; nothing exported")
		return nil
	}
	if err := anatomy.ExportFile(e.opts.obs.Anatomy, recs); err != nil {
		return err
	}
	e.logf("anatomy: wrote %d cell breakdowns to %s", len(recs), e.opts.obs.Anatomy)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters and its exit status
// as the return value, so every path — failure, Ctrl-C, gate BLOCK — leaves
// through the deferred journal/exposition-server close.
func run(args []string, stdout, stderr io.Writer) (code int) {
	var o options
	fs := flag.NewFlagSet("tailbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var scale experiments.Scale
	switch o.scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		fmt.Fprintf(stderr, "tailbench: unknown scale %q\n", o.scaleName)
		return 2
	}
	scale.Seed = o.seed
	scale.Workers = o.workers

	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	leaves, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "tailbench: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	obs, err := o.obs.Open(telemetry.New())
	if err != nil {
		fmt.Fprintf(stderr, "tailbench: %v\n", err)
		return 1
	}
	defer func() {
		if cerr := obs.Close(); cerr != nil && code == 0 {
			fmt.Fprintf(stderr, "tailbench: %v\n", cerr)
			code = 1
		}
	}()
	scale.Journal = obs.Journal
	if obs.Server != nil {
		scale.Telemetry = obs.Registry
		fmt.Fprintln(stderr, obs.ServingLine())
	}

	e := &env{ctx: ctx, opts: &o, scale: scale, stdout: stdout, stderr: stderr, obs: obs,
		campaigns: map[string]*experiments.Attribution{}}
	switch err := e.runAll(leaves); {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		// Ctrl-C: a clean exit with the conventional signal status, not a
		// failure report.
		fmt.Fprintln(stderr, "tailbench: interrupted")
		return 130
	default:
		fmt.Fprintf(stderr, "tailbench: %v\n", err)
		return 1
	}
}
