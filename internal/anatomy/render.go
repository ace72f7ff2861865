package anatomy

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"treadmill/internal/report"
	"treadmill/internal/telemetry"
)

// Table renders a breakdown as an aligned report table: one row per phase
// with body-mean, tail-mean, the tail excess, and each phase's share of the
// total excess — the "which mechanism do the slowest requests pay for"
// view.
func Table(title string, b *Breakdown) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"phase", "body mean", "tail mean", "tail excess", "share"},
	}
	if b == nil {
		return t
	}
	excess := b.TailExcess()
	totalExcess := b.Tail.MeanTotal - b.Body.MeanTotal
	for p := 0; p < NumPhases; p++ {
		if b.Overall.Mean[p] == 0 && excess[p] == 0 {
			continue // phase never exercised under this config
		}
		share := "n/a"
		if totalExcess > 0 {
			share = report.Percent(excess[p] / totalExcess)
		}
		t.AddRow(Phase(p).String(),
			report.Micros(b.Body.Mean[p]),
			report.Micros(b.Tail.Mean[p]),
			report.Micros(excess[p]),
			share)
	}
	t.AddRow("total",
		report.Micros(b.Body.MeanTotal),
		report.Micros(b.Tail.MeanTotal),
		report.Micros(totalExcess),
		"")
	t.AddRow(fmt.Sprintf("(n=%d, body=%d@<=p%g, tail=%d@>=p%g)",
		b.Requests, b.Body.Count, b.BodyQ*100, b.Tail.Count, b.TailQ*100), "", "", "", "")
	if b.LowConfidence {
		t.AddRow("LOW CONFIDENCE: "+b.Reason, "", "", "", "")
	}
	return t
}

// Record converts a breakdown into its journal representation.
func (b *Breakdown) Record(label string) *telemetry.AnatomyRecord {
	if b == nil {
		return nil
	}
	rec := &telemetry.AnatomyRecord{
		Label:         label,
		Source:        b.Source,
		Requests:      b.Requests,
		Invalid:       b.Invalid,
		BodyQ:         b.BodyQ,
		TailQ:         b.TailQ,
		P50:           b.P50,
		P99:           b.P99,
		Phases:        PhaseNames(),
		LowConfidence: b.LowConfidence,
		Reason:        b.Reason,
	}
	for _, c := range []Cut{b.Overall, b.Body, b.Tail} {
		means := make([]float64, NumPhases)
		copy(means, c.Mean[:])
		rec.Cuts = append(rec.Cuts, telemetry.AnatomyCut{
			Name:       c.Name,
			Count:      c.Count,
			MeanTotal:  c.MeanTotal,
			PhaseMeans: means,
		})
	}
	return rec
}

// ExportFile writes labeled breakdowns to path: JSONL (one AnatomyRecord
// per line) when the extension is .jsonl or .json, long-form CSV otherwise.
func ExportFile(path string, recs []*telemetry.AnatomyRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("anatomy: export: %w", err)
	}
	defer f.Close()
	lower := strings.ToLower(path)
	if strings.HasSuffix(lower, ".jsonl") || strings.HasSuffix(lower, ".json") {
		err = ExportJSONL(f, recs)
	} else {
		err = ExportCSV(f, recs)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// ExportJSONL writes one JSON record per line.
func ExportJSONL(w io.Writer, recs []*telemetry.AnatomyRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if r == nil {
			continue
		}
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("anatomy: export jsonl: %w", err)
		}
	}
	return nil
}

// ExportCSV writes long-form rows: label,cut,count,mean_total_s,phase,mean_s.
func ExportCSV(w io.Writer, recs []*telemetry.AnatomyRecord) error {
	if _, err := fmt.Fprintln(w, "label,cut,count,mean_total_s,phase,mean_s"); err != nil {
		return fmt.Errorf("anatomy: export csv: %w", err)
	}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, c := range r.Cuts {
			for i, m := range c.PhaseMeans {
				name := fmt.Sprintf("phase%d", i)
				if i < len(r.Phases) {
					name = r.Phases[i]
				}
				if _, err := fmt.Fprintf(w, "%s,%s,%d,%g,%s,%g\n",
					r.Label, c.Name, c.Count, c.MeanTotal, name, m); err != nil {
					return fmt.Errorf("anatomy: export csv: %w", err)
				}
			}
		}
	}
	return nil
}

// Live publishes per-phase latency recorders into a telemetry registry, so
// a running experiment exposes phase-span distributions on /metrics while
// it executes. A nil *Live (no registry) is a no-op.
type Live struct {
	recorders [NumPhases]*telemetry.Recorder
}

// RegisterRecorders creates anatomy_phase_<name>_seconds recorders in reg.
// Returns nil when reg is nil.
func RegisterRecorders(reg *telemetry.Registry) *Live {
	if reg == nil {
		return nil
	}
	l := &Live{}
	for p := 0; p < NumPhases; p++ {
		l.recorders[p] = reg.RecorderRange(
			"anatomy_phase_"+phaseNames[p]+"_seconds", 1e-9, 10, 256)
	}
	return l
}

// Observe records every nonzero span of v into the per-phase recorders.
func (l *Live) Observe(v Vec) {
	if l == nil {
		return
	}
	for p, d := range v {
		if d > 0 {
			l.recorders[p].Record(d)
		}
	}
}

// Coarse derives the three-phase client-side decomposition the real TCP
// path can observe without server cooperation from a live request's
// record: ClientSend = arrival→send stamp, WireServer = send stamp→parsed
// response (so encode and write land here), ClientRecv = parsed
// response→callback completion. It is the single client-side origin of
// live-mode phase vectors — rtprobe.Correlate splits its WireServer span
// with the server's trailer — expressed with the same Phase constants and
// units (seconds) the simulator's ledger uses, so sim and live breakdowns
// aggregate through one code path. Returns false when the stamps are
// missing or non-monotone (errors, disconnects).
func Coarse(t telemetry.Trace) (Vec, float64, bool) {
	var v Vec
	if !t.Valid() {
		return v, 0, false
	}
	v[ClientSend] = float64(t.SendNs-t.ArrivalNs) / 1e9
	v[WireServer] = float64(t.FirstByteNs-t.SendNs) / 1e9
	v[ClientRecv] = float64(t.CompleteNs-t.FirstByteNs) / 1e9
	return v, t.Total(), true
}
