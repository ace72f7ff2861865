// Command bench is the repository's benchmark: four workloads (two
// simulated campaigns, two live loopback runs), the end-to-end metrics
// BENCHMARK.json gates, and a traced pass that prices every layer a
// request crosses. README.md explains the metrics and the workloads.
//
//	go run ./bench                      all four workloads, table + bench/out/results.json
//	go run ./bench -trace 1             the same plus the per-layer ledger and bench/out/trace.json
//	go run ./bench -aa                  two full sets back to back, differences against the bounds
//	go run ./bench -workload live_kv -seed 3 -seconds 20 -trace 0
//	                                    one workload; the last line of stdout is the driver's JSON
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
)

//go:embed golden.json
var goldenJSON []byte

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// defaultOutDir is where reports and the trace go, relative to the
// repository root the benchmark is run from.
const defaultOutDir = "bench/out"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload (sim_factorial, sim_fanout_burst, live_kv, live_lean) and end with the driver's JSON line; empty runs all four")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
		quick    = flag.Bool("quick", false, "smoke run: one short repetition per workload, no timing checks")
		aa       = flag.Bool("aa", false, "run two full sets back to back and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-aa]")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	golden, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *quick && *seconds == defaultSeconds {
		*seconds = 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, quick: *quick, golden: golden, outDir: defaultOutDir}

	switch {
	case *workload != "":
		if !isWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		return runOne(ctx, cfg, *trace == 1, os.Stdout)
	case *aa:
		return runAA(ctx, cfg)
	default:
		_, code := runSuite(ctx, cfg, *trace == 1, "results.json")
		return code
	}
}

func parseGolden(data []byte) (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// detailPath is where a single-workload run leaves its full report.
func (c runConfig) detailPath(workload string, trace bool) string {
	name := workload + ".json"
	if trace {
		name = workload + ".trace-run.json"
	}
	return filepath.Join(c.outDir, name)
}

// runOne runs one workload in this process, prints its table, stores the
// detail file and ends standard output with the driver's JSON line. A run
// whose outputs are wrong still prints its line (correct=false) and exits 1.
func runOne(ctx context.Context, cfg runConfig, trace bool, stdout io.Writer) int {
	if w := hostWarning(readHost()); w != "" {
		fmt.Fprintln(os.Stderr, w)
	}
	var rep *runReport
	var err error
	if trace {
		rep, err = runTraced(ctx, cfg, filepath.Join(cfg.outDir, "trace.json"))
	} else {
		rep, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.printTable(stdout)
	if err := writeJSON(cfg.detailPath(cfg.workload, trace), rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// suiteResult is the layout of results.json: one report per workload, plus
// the traced pass when it ran.
type suiteResult struct {
	Host    hostInfo     `json:"host"`
	Seed    uint64       `json:"seed"`
	Reports []*runReport `json:"reports"`
}

// runSuite runs every workload, each in a child process of its own so that
// CPU, allocation and peak-RSS accounting start clean, then the traced pass
// if asked. It returns the collected reports and the exit code.
func runSuite(ctx context.Context, cfg runConfig, trace bool, outName string) (*suiteResult, int) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, 1
	}
	res := &suiteResult{Host: readHost(), Seed: cfg.seed}
	if w := hostWarning(res.Host); w != "" {
		fmt.Fprintln(os.Stderr, w)
	}
	code := 0
	child := func(workload string, traced bool) {
		args := []string{
			"-workload", workload,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[traced],
		}
		if cfg.quick {
			args = append(args, "-quick")
		}
		// A child that dies early must not be read as its predecessor.
		detail := cfg.detailPath(workload, traced)
		if err := os.Remove(detail); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
			return
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if runErr != nil && !errors.As(runErr, &exit) {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, runErr)
			code = 1
			return
		}
		if runErr != nil {
			code = 1
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s left no report: %v\n", workload, err)
			code = 1
			return
		}
		var rep runReport
		if err := json.Unmarshal(data, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
			code = 1
			return
		}
		res.Reports = append(res.Reports, &rep)
	}
	for _, w := range workloads {
		child(w.Name, false)
	}
	if trace {
		// The ledger is one table whichever workload names it.
		child(workloads[0].Name, true)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, outName), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return res, 1
	}
	fmt.Printf("\nwrote %s\n", filepath.Join(cfg.outDir, outName))
	return res, code
}
