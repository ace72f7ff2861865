package main

import (
	"context"
	"fmt"
	"math"
)

// demoteBeyond is the A/A rule the metric list was chosen with: a candidate
// end-to-end metric whose two sets differ by more than a tenth is a
// candidate for demotion to an ungated per-layer diagnostic. It is reported,
// not enforced: on the shared reference host every timing drifts together by
// up to an eighth over half an hour, which says nothing about one metric.
const demoteBeyond = 0.10

// runAA runs two full sets of the same code back to back and prints, per
// workload and gated metric, how far the second value is from the first
// against the metric's bound. It exits non-zero when a gated metric moved
// by more than its bound, or when any run was incorrect.
func runAA(ctx context.Context, cfg runConfig) int {
	a, codeA := runSuite(ctx, cfg, false, "results.a.json")
	b, codeB := runSuite(ctx, cfg, false, "results.b.json")
	if a == nil || b == nil || len(a.Reports) != len(b.Reports) {
		fmt.Println("A/A: a set did not complete")
		return 1
	}
	code := max(codeA, codeB)
	fmt.Printf("\n== A/A: second set against the first ==\n")
	fmt.Printf("%-18s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for i, ra := range a.Reports {
		rb := b.Reports[i]
		for _, def := range endToEnd {
			ma, okA := ra.metric(def.Name)
			mb, okB := rb.metric(def.Name)
			if !okA || !okB || ma.Value == 0 {
				fmt.Printf("%-18s %-16s missing\n", ra.Workload, def.Name)
				code = 1
				continue
			}
			worse := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > def.Bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case math.Abs(worse) > demoteBeyond:
				verdict = "moved by more than a tenth"
			}
			fmt.Printf("%-18s %-16s %14s %14s %+8.2f%% %6.0f%%  %s\n", ra.Workload, def.Name,
				fmtValue(ma.Value), fmtValue(mb.Value), 100*worse, 100*def.Bound, verdict)
		}
	}
	return code
}
