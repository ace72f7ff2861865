package flightrec

import (
	"fmt"
	"sort"
	"strings"

	"treadmill/internal/telemetry"
)

// SummaryRow aggregates one (cell, agent) pair's timeline: the run
// envelope, how many request spans were sampled, their latency spread,
// the dominant anatomy phase across sampled requests, and how many
// forensic triggers fired there.
type SummaryRow struct {
	Cell  string
	Agent string
	// StartNs/EndNs are the agent-run span envelope (coordinator clock).
	StartNs int64
	EndNs   int64
	// Requests is the sampled-request span count; Mean/Max summarize
	// their exact float latencies.
	Requests int
	MeanSec  float64
	MaxSec   float64
	// Dominant is the anatomy phase with the largest summed contribution
	// across the row's sampled requests ("" when anatomy was off).
	Dominant string
	// Forensics counts tail-trigger marks on this row.
	Forensics int
}

// Summarize folds a recorder's spans and marks into per-(cell, agent)
// rows, sorted by cell then agent.
func Summarize(spans []telemetry.SpanRecord, marks []Mark) []SummaryRow {
	type key struct{ cell, agent string }
	rows := map[key]*SummaryRow{}
	get := func(cell, agent string) *SummaryRow {
		k := key{cell, agent}
		r, ok := rows[k]
		if !ok {
			r = &SummaryRow{Cell: cell, Agent: agent}
			rows[k] = r
		}
		return r
	}
	phaseSum := map[key]map[string]float64{}
	for _, s := range spans {
		switch s.Kind {
		case KindAgentRun:
			r := get(s.Cell, s.Agent)
			r.StartNs, r.EndNs = s.StartNs, s.EndNs
		case KindRequest:
			r := get(s.Cell, s.Agent)
			r.Requests++
			r.MeanSec += s.Sec
			if s.Sec > r.MaxSec {
				r.MaxSec = s.Sec
			}
			k := key{s.Cell, s.Agent}
			if phaseSum[k] == nil {
				phaseSum[k] = map[string]float64{}
			}
			for i, name := range s.Phases {
				phaseSum[k][name] += s.PhaseSecs[i]
			}
		}
	}
	for _, m := range marks {
		get(m.Cell, m.Agent).Forensics++
	}
	out := make([]SummaryRow, 0, len(rows))
	for k, r := range rows {
		if r.Requests > 0 {
			r.MeanSec /= float64(r.Requests)
		}
		best, bestSec := "", 0.0
		for name, sec := range phaseSum[k] {
			if sec > bestSec || (sec == bestSec && name < best) {
				best, bestSec = name, sec
			}
		}
		r.Dominant = best
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Agent < out[j].Agent
	})
	return out
}

// RenderSummary renders rows as the per-cell/per-agent text table the
// `tailbench timeline` target prints.
func RenderSummary(rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-14s %10s %8s %10s %10s %-14s %9s\n",
		"cell", "agent", "run_ms", "sampled", "mean_ms", "max_ms", "dominant", "forensics")
	for _, r := range rows {
		runMs := float64(r.EndNs-r.StartNs) / 1e6
		dom := r.Dominant
		if dom == "" {
			dom = "-"
		}
		fmt.Fprintf(&b, "%-24s %-14s %10.1f %8d %10.3f %10.3f %-14s %9d\n",
			r.Cell, r.Agent, runMs, r.Requests, r.MeanSec*1e3, r.MaxSec*1e3, dom, r.Forensics)
	}
	return b.String()
}
