package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is the gated metric list, in BENCHMARK.json order. Every
// workload reports every one of them; README.md says what each means on the
// simulated and on the live workloads.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "cpu_ns_per_req", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"sim_factorial", "the paper's Table IV campaign: 2^4 hardware factors through runner.Study plus three quantile-regression fits; sim, runner and agg do nearly all the work"},
	{"sim_fanout_burst", "same engine, other shape: fan-out legs, MMPP-2 bursty arrivals and the anatomy observer on every request, so a sim change that only helps the single-tier path shows"},
	{"live_kv", "open loop at 20k rps through the classic client against the real server: server, both protocol parsers and the goroutine-per-conn client do most of the work"},
	{"live_lean", "open loop at 100k rps through the sharded plane against an allocation-free responder: bypasses server and protocol.Parse*, so the load plane dominates"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// reported is one metric of one run: its repetitions summarised.
type reported struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Value is what the run reports for the metric: the lower quartile of
	// its repetitions. Every metric here is a cost, and on a shared host
	// interference only ever adds to a cost, so the quiet quarter of the
	// repetitions tracks the program where the median tracks the host (a
	// 40 ms stall of the host puts a 4 s window's p99 up twentyfold).
	Value float64 `json:"value"`
	// Gated marks the metrics BENCHMARK.json lists; the rest are printed
	// for the reader and stored in the detail file only.
	Gated bool `json:"gated"`
	summary
	// Reps are the repetitions the summary was made from, in run order.
	Reps []float64 `json:"reps"`
}

// runReport is everything one run of one workload produced.
type runReport struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Quick      bool       `json:"quick,omitempty"`
	Host       hostInfo   `json:"host"`
	Correct    bool       `json:"correct"`
	Attempted  int64      `json:"attempted"`
	Failed     int64      `json:"failed"`
	Violations []string   `json:"violations,omitempty"`
	Notes      []string   `json:"notes,omitempty"`
	Metrics    []reported `json:"metrics"`
}

func (r *runReport) add(name, unit string, gated bool, reps ...float64) {
	sum := summarize(reps)
	r.Metrics = append(r.Metrics, reported{Name: name, Unit: unit, Value: sum.Q1, Gated: gated, summary: sum, Reps: reps})
}

func (r *runReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *runReport) metric(name string) (reported, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return reported{}, false
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) driverLine() driverLine {
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range r.Metrics {
		if m.Gated {
			out.Metrics[m.Name] = driverValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// printTable writes every metric by name with unit, sample count, the
// reported value (the lower quartile), median and upper quartile.
func (r *runReport) printTable(w io.Writer) {
	mode := "end to end, tracing off"
	if r.Trace {
		mode = "traced pass, per layer"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %s) ==\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "%-36s %-6s %4s %14s %14s %14s %7s\n", "metric", "unit", "n", "value (q1)", "median", "q3", "iqr/med")
	for _, m := range r.Metrics {
		mark := " "
		if !m.Gated && !r.Trace {
			mark = "·" // reported, not gated
		}
		fmt.Fprintf(w, "%-35s%s %-6s %4d %14s %14s %14s %6.1f%%\n", m.Name, mark, m.Unit, m.N,
			fmtValue(m.Value), fmtValue(m.Median), fmtValue(m.Q3), 100*m.relSpread())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

func fmtValue(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// hostWarning is printed loudly when the host is not the one the workloads
// are sized for.
func hostWarning(h hostInfo) string {
	if h.NProc == referenceNProc && h.GOMAXPROCS == referenceNProc {
		return ""
	}
	return fmt.Sprintf("WARNING: nproc=%d GOMAXPROCS=%d, but the workloads are sized for %d cores; "+
		"these numbers do not compare with the committed baseline", h.NProc, h.GOMAXPROCS, referenceNProc)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedNames returns the keys of m in lexical order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
