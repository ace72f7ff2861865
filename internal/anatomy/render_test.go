package anatomy

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treadmill/internal/telemetry"
)

func sampleBreakdown(t *testing.T) *Breakdown {
	t.Helper()
	a := mustAggregator(t)
	for i := 0; i < 5000; i++ {
		a.Record(100e-6, vecFor(100e-6))
	}
	for i := 0; i < 110; i++ {
		var v Vec
		v[ServerQueue] = 1e-3
		a.Record(1e-3, v)
	}
	return a.Finalize()
}

func TestTableRendering(t *testing.T) {
	b := sampleBreakdown(t)
	s := Table("anatomy", b).String()
	for _, want := range []string{"srv_queue", "service", "body mean", "tail excess"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// Phases never exercised must not clutter the table.
	if strings.Contains(s, "cstate_wake") {
		t.Errorf("table should omit unexercised phases:\n%s", s)
	}
	if strings.Contains(s, "LOW CONFIDENCE") {
		t.Errorf("confident breakdown rendered low-confidence:\n%s", s)
	}

	low := mustAggregator(t).Finalize()
	if s := Table("empty", low).String(); !strings.Contains(s, "LOW CONFIDENCE") {
		t.Errorf("low-confidence breakdown should be flagged:\n%s", s)
	}
	if Table("nil", nil) == nil {
		t.Error("nil breakdown should still render an empty table")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	b := sampleBreakdown(t)
	rec := b.Record("cell 0000")
	if rec.Label != "cell 0000" || rec.Requests != b.Requests {
		t.Errorf("record header mismatch: %+v", rec)
	}
	if len(rec.Phases) != NumPhases || len(rec.Cuts) != 3 {
		t.Fatalf("record shape: %d phases, %d cuts", len(rec.Phases), len(rec.Cuts))
	}
	for i, c := range []Cut{b.Overall, b.Body, b.Tail} {
		if rec.Cuts[i].Name != c.Name || rec.Cuts[i].Count != c.Count {
			t.Errorf("cut %d mismatch: %+v vs %+v", i, rec.Cuts[i], c)
		}
		if rec.Cuts[i].PhaseMeans[ServerQueue] != c.Mean[ServerQueue] {
			t.Errorf("cut %d phase means diverge", i)
		}
	}
	var nilB *Breakdown
	if nilB.Record("x") != nil {
		t.Error("nil breakdown should record as nil")
	}
}

func TestExportFormats(t *testing.T) {
	rec := sampleBreakdown(t).Record("final")
	dir := t.TempDir()

	jsonl := filepath.Join(dir, "out.jsonl")
	if err := ExportFile(jsonl, []*telemetry.AnatomyRecord{rec, nil}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(bytes.TrimSpace(data), []byte("\n")) + 1; lines != 1 {
		t.Errorf("jsonl export: %d lines, want 1 (nil records skipped)", lines)
	}
	if !bytes.Contains(data, []byte(`"label":"final"`)) {
		t.Errorf("jsonl missing label: %s", data)
	}

	csv := filepath.Join(dir, "out.csv")
	if err := ExportFile(csv, []*telemetry.AnatomyRecord{rec}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.HasPrefix(got, "label,cut,count,mean_total_s,phase,mean_s\n") {
		t.Errorf("csv header wrong:\n%s", got)
	}
	// 3 cuts x NumPhases rows plus header.
	if lines := strings.Count(strings.TrimSpace(got), "\n") + 1; lines != 3*NumPhases+1 {
		t.Errorf("csv export: %d lines, want %d", lines, 3*NumPhases+1)
	}
	if !strings.Contains(got, "final,tail,") {
		t.Errorf("csv missing tail cut rows:\n%s", got)
	}

	if err := ExportFile(filepath.Join(dir, "missing", "out.csv"), nil); err == nil {
		t.Error("unwritable path should error")
	}
}

func TestLiveRecorders(t *testing.T) {
	if RegisterRecorders(nil) != nil {
		t.Error("nil registry should yield nil Live")
	}
	reg := telemetry.New()
	l := RegisterRecorders(reg)
	if l == nil {
		t.Fatal("live recorders not built")
	}
	var nilLive *Live
	nilLive.Observe(vecFor(1e-3)) // must not panic

	a := mustAggregator(t)
	a.AttachLive(l)
	a.Record(1e-3, vecFor(1e-3))
	if a.Count() != 1 {
		t.Error("record with live mirror lost the observation")
	}
}

func TestCoarse(t *testing.T) {
	v, total, ok := Coarse(telemetry.Trace{ArrivalNs: 0, SendNs: 1000, FirstByteNs: 51000, CompleteNs: 61000})
	if !ok {
		t.Fatal("monotone stamps rejected")
	}
	if total != 61e-6 {
		t.Errorf("total = %g, want 61us", total)
	}
	if v[ClientSend] != 1e-6 || v[WireServer] != 50e-6 || v[ClientRecv] != 10e-6 {
		t.Errorf("spans = %+v", v)
	}
	if d := v.Sum() - total; d > 1e-12 || d < -1e-12 {
		t.Errorf("spans sum %g != total %g", v.Sum(), total)
	}
	for _, bad := range []telemetry.Trace{
		{ArrivalNs: 1000, SendNs: 0, FirstByteNs: 2000, CompleteNs: 3000}, // send before arrival
		{ArrivalNs: 0, SendNs: 2000, FirstByteNs: 1000, CompleteNs: 3000}, // first byte before send
		{ArrivalNs: 0, SendNs: 1000, FirstByteNs: 3000, CompleteNs: 2000}, // complete before first byte
		{}, // zero-duration request
	} {
		if _, _, ok := Coarse(bad); ok {
			t.Errorf("stamps %+v should be rejected", bad)
		}
	}
}
