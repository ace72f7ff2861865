package flightrec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
)

// vecFor builds an anatomy vector whose phases tile total exactly the way
// rtprobe.Correlate does: named phases first, then the float residual
// kept as an explicit Other span.
func vecFor(total float64, parts map[anatomy.Phase]float64) anatomy.Vec {
	var v anatomy.Vec
	sum := 0.0
	for p, sec := range parts {
		v[p] = sec
		sum += sec
	}
	v[anatomy.Other] = total - sum
	return v
}

func TestRecorderSpanTreeAndJournal(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	r := NewRecorder("test-campaign", 1_000, j)
	cellSpan := r.Add(telemetry.SpanRecord{Parent: r.Root(), Kind: KindCell, Name: "cell-0", Cell: "cell-0", StartNs: 2_000, EndNs: 90_000})

	total := 0.000_010 // 10µs
	vec := vecFor(total, map[anatomy.Phase]float64{
		anatomy.ClientSend: 3e-6,
		anatomy.SrvStore:   4e-6,
	})
	f := &CellFlight{
		StartNs: 3_000, EndNs: 80_000,
		Requests: []ReqSpan{reqSpan(1, "get", 5_000, 15_000, total, vec)},
		Forensics: []Forensic{{
			Trigger: "abs", ThresholdSec: 5e-6,
			Offender:   reqSpan(2, "get", 20_000, 31_000, 11e-6, vecFor(11e-6, map[anatomy.Phase]float64{anatomy.SrvGC: 9e-6})),
			GCPauseSec: 9e-6,
		}},
		Observed: 100,
	}
	r.RecordCellFlight(cellSpan, "agent-1", "cell-0", f)
	r.Close(100_000)

	spans := r.Spans()
	byKind := map[string]int{}
	var reqSpans []telemetry.SpanRecord
	for _, s := range spans {
		byKind[s.Kind]++
		if s.Kind == KindRequest {
			reqSpans = append(reqSpans, s)
		}
	}
	if byKind[KindCampaign] != 1 || byKind[KindCell] != 1 || byKind[KindAgentRun] != 1 {
		t.Fatalf("span tree kinds = %v", byKind)
	}
	if byKind[KindRequest] != 2 { // sampled request + forensic offender
		t.Fatalf("request spans = %d, want 2", byKind[KindRequest])
	}
	if byKind[KindPhase] != 3+2 { // req: send+store+other, offender: gc+other
		t.Fatalf("phase spans = %d, want 5", byKind[KindPhase])
	}
	// Phase sub-spans parent onto their request span and stay inside it.
	for _, s := range spans {
		if s.Kind != KindPhase {
			continue
		}
		var parent *telemetry.SpanRecord
		for i := range spans {
			if spans[i].ID == s.Parent {
				parent = &spans[i]
			}
		}
		if parent == nil || parent.Kind != KindRequest {
			t.Fatalf("phase span %q parent %d is not a request span", s.Name, s.Parent)
		}
		if s.StartNs < parent.StartNs || s.EndNs > parent.EndNs+1 {
			t.Errorf("phase %q [%d,%d] outside request [%d,%d]", s.Name, s.StartNs, s.EndNs, parent.StartNs, parent.EndNs)
		}
	}
	if marks := r.Marks(); len(marks) != 1 || marks[0].Span == 0 {
		t.Fatalf("marks = %+v, want one linked to offender span", r.Marks())
	}

	evs, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range evs {
		kinds[e.Kind]++
		if e.Kind == telemetry.EventForensic {
			fr := e.Forensic
			if fr.DominantPhase != "srv_gc" || fr.Trigger != "abs" || fr.Campaign != "test-campaign" {
				t.Fatalf("forensic record = %+v", fr)
			}
		}
	}
	// Journal mirrors campaign+cell+run+2 requests (phases inline) + forensic.
	if kinds[telemetry.EventSpan] != 5 || kinds[telemetry.EventForensic] != 1 {
		t.Fatalf("journal kinds = %v", kinds)
	}
}

// TestPhaseTilingSurvivesWire is the 1ulp acceptance check: a request
// span's anatomy sub-spans must tile the parent's exact latency within
// 1ulp even after the ReqSpan crosses a JSON wire hop.
func TestPhaseTilingSurvivesWire(t *testing.T) {
	for i := 0; i < 50; i++ {
		total := 1e-4 * (1 + 0.37*float64(i)) / 3.0 // awkward floats on purpose
		vec := vecFor(total, map[anatomy.Phase]float64{
			anatomy.ClientSend:  total * 0.1 / 3,
			anatomy.WireServer:  total * 0.2 / 7,
			anatomy.SrvParse:    total * 0.05 / 3,
			anatomy.SrvStore:    total * 0.3 / 11,
			anatomy.SrvGC:       total * 0.01 / 3,
			anatomy.ServerQueue: total * 0.07 / 9,
			anatomy.ClientRecv:  total * 0.02 / 3,
		})
		q := reqSpan(uint64(i), "get", 0, int64(total*1e9), total, vec)

		data, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		var back ReqSpan
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, s := range back.PhaseSecs {
			sum += s
		}
		ulp := math.Nextafter(back.TotalSec, math.Inf(1)) - back.TotalSec
		if d := math.Abs(sum - back.TotalSec); d > ulp {
			t.Fatalf("case %d: phase sum %v vs total %v differs by %v (> 1ulp %v)", i, sum, back.TotalSec, d, ulp)
		}
	}
}

// getReq is a completed get's record spanning [startNs, endNs].
func getReq(startNs, endNs int64) telemetry.Trace {
	return telemetry.Trace{Op: "get", ArrivalNs: startNs, CompleteNs: endNs}
}

func TestCaptureAbsTrigger(t *testing.T) {
	probe := rtprobe.NewSampler(rtprobe.Config{Interval: time.Millisecond})
	probe.Start()
	defer probe.Stop()

	c := NewCapture(CaptureSpec{AbsThresholdSec: 5e-3, Ring: 8, SampleEvery: 1, CPUProfileMs: 10}, probe)
	now := time.Now().UnixNano()
	for i := 0; i < 20; i++ {
		start := now + int64(i)*1_000_000
		c.Observe(getReq(start, start+1_000_000), 1e-3, anatomy.Vec{})
	}
	slow := now + 21_000_000
	c.Observe(getReq(slow, slow+9_000_000), 9e-3, vecFor(9e-3, map[anatomy.Phase]float64{anatomy.SrvGC: 8e-3}))

	f := c.Finish(now, slow+9_000_000)
	if f == nil || len(f.Forensics) != 1 {
		t.Fatalf("flight = %+v, want 1 forensic", f)
	}
	fb := f.Forensics[0]
	if fb.Trigger != "abs" || fb.ThresholdSec != 5e-3 {
		t.Fatalf("trigger = %q threshold = %v", fb.Trigger, fb.ThresholdSec)
	}
	if fb.Offender.TotalSec != 9e-3 {
		t.Fatalf("offender = %+v", fb.Offender)
	}
	if len(fb.Neighbors) != 8 {
		t.Fatalf("neighbors = %d, want full ring of 8", len(fb.Neighbors))
	}
	for _, n := range fb.Neighbors {
		if n.Seq == fb.Offender.Seq {
			t.Fatalf("offender leaked into its own neighbor ring")
		}
	}
	if !strings.Contains(fb.GoroutineProfile, "goroutine profile:") {
		t.Fatalf("goroutine profile missing: %q", fb.GoroutineProfile[:min(len(fb.GoroutineProfile), 80)])
	}
	if len(fb.CPUProfile) == 0 || fb.CPUProfileNs <= 0 {
		t.Fatalf("cpu profile slice missing (bytes=%d ns=%d)", len(fb.CPUProfile), fb.CPUProfileNs)
	}
	if fb.WindowNs <= 0 {
		t.Fatalf("window ns = %d", fb.WindowNs)
	}
	if f.Observed != 21 || len(f.Requests) != 21 {
		t.Fatalf("observed = %d sampled = %d", f.Observed, len(f.Requests))
	}
}

func TestCaptureQuantileArming(t *testing.T) {
	c := NewCapture(CaptureSpec{Quantile: 0.9, MinCount: 50, Ring: 4, CPUProfileMs: -1}, nil)
	now := time.Now().UnixNano()
	obs := func(sec float64) {
		c.Observe(getReq(now, now+int64(sec*1e9)), sec, anatomy.Vec{})
		now += int64(sec * 1e9)
	}
	// A huge outlier before MinCount must NOT trigger (unarmed).
	for i := 0; i < 10; i++ {
		obs(1e-3)
	}
	obs(1.0)
	if f := c.Finish(0, now); len(f.Forensics) != 0 {
		t.Fatalf("triggered before MinCount: %+v", f.Forensics)
	}
	// Fill past MinCount with a tight body, then an outlier fires.
	for i := 0; i < 60; i++ {
		obs(1e-3)
	}
	obs(0.5)
	f := c.Finish(0, now)
	if len(f.Forensics) != 1 || f.Forensics[0].Trigger != "quantile" {
		t.Fatalf("forensics = %+v, want one quantile trigger", f.Forensics)
	}
	if th := f.Forensics[0].ThresholdSec; th <= 0 || th >= 0.5 {
		t.Fatalf("quantile threshold = %v", th)
	}
}

func TestCaptureBoundsReported(t *testing.T) {
	c := NewCapture(CaptureSpec{AbsThresholdSec: 1e-6, MaxBundles: 1, MaxSpans: 2, SampleEvery: 1, Ring: 2, CPUProfileMs: -1}, nil)
	now := time.Now().UnixNano()
	for i := 0; i < 5; i++ {
		c.Observe(getReq(now, now+2_000), 2e-6, anatomy.Vec{}) // all over threshold
	}
	f := c.Finish(0, now)
	if len(f.Forensics) != 1 || f.DroppedBundles != 4 {
		t.Fatalf("bundles = %d dropped = %d", len(f.Forensics), f.DroppedBundles)
	}
	if len(f.Requests) != 2 || f.DroppedSpans != 3 {
		t.Fatalf("spans = %d dropped = %d", len(f.Requests), f.DroppedSpans)
	}
}

func TestCorrectClock(t *testing.T) {
	f := &CellFlight{
		StartNs: 100, EndNs: 200,
		Requests: []ReqSpan{{StartNs: 110, EndNs: 120}},
		Forensics: []Forensic{{
			Offender:  ReqSpan{StartNs: 130, EndNs: 140},
			Neighbors: []ReqSpan{{StartNs: 150, EndNs: 160}},
		}},
	}
	f.CorrectClock(func(ns int64) int64 { return ns + 1000 })
	want := []int64{1100, 1200, 1110, 1120, 1130, 1140, 1150, 1160}
	got := []int64{f.StartNs, f.EndNs,
		f.Requests[0].StartNs, f.Requests[0].EndNs,
		f.Forensics[0].Offender.StartNs, f.Forensics[0].Offender.EndNs,
		f.Forensics[0].Neighbors[0].StartNs, f.Forensics[0].Neighbors[0].EndNs}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("timestamp %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder("chrome-test", 1_000, nil)
	cell := r.Add(telemetry.SpanRecord{Parent: r.Root(), Kind: KindCell, Name: "cell-0", Cell: "cell-0", StartNs: 1_000, EndNs: 50_000})
	vec := vecFor(8e-6, map[anatomy.Phase]float64{anatomy.ClientSend: 2e-6, anatomy.SrvStore: 5e-6})
	r.RecordCellFlight(cell, "agent-1", "cell-0", &CellFlight{
		StartNs: 2_000, EndNs: 45_000,
		Requests:  []ReqSpan{reqSpan(1, "get", 3_000, 11_000, 8e-6, vec)},
		Forensics: []Forensic{{Trigger: "abs", ThresholdSec: 1e-6, Offender: reqSpan(2, "get", 20_000, 30_000, 10e-6, vec)}},
	})
	r.Close(60_000)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Spans(), r.Marks()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-produced trace invalid: %v", err)
	}
	// Process metadata names both the coordinator and the agent.
	out := buf.String()
	for _, want := range []string{`"coordinator"`, `"agent-1"`, `"ph":"M"`, `"ph":"X"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no events":      `{"traceEvents":[]}`,
		"missing phase":  `{"traceEvents":[{"name":"a"}]}`,
		"missing name":   `{"traceEvents":[{"ph":"X","ts":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`,
		"negative dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]}`,
		"ts regression":  `{"traceEvents":[{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},{"name":"b","ph":"X","ts":4,"dur":1,"pid":0,"tid":0}]}`,
		"non-numeric ts": `{"traceEvents":[{"name":"a","ph":"X","ts":"soon","pid":0,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: accepted invalid trace", name)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := NewRecorder("sum-test", 0, nil)
	cell := r.Add(telemetry.SpanRecord{Parent: r.Root(), Kind: KindCell, Name: "c0", Cell: "c0", StartNs: 0, EndNs: 1e6})
	vec := vecFor(4e-6, map[anatomy.Phase]float64{anatomy.SrvStore: 3e-6})
	for a := 0; a < 2; a++ {
		agent := fmt.Sprintf("agent-%d", a)
		r.RecordCellFlight(cell, agent, "c0", &CellFlight{
			StartNs: 10, EndNs: 900_000,
			Requests: []ReqSpan{
				reqSpan(1, "get", 100, 4_100, 4e-6, vec),
				reqSpan(2, "get", 200, 4_200, 4e-6, vec),
			},
			Forensics: []Forensic{{Trigger: "abs", Offender: reqSpan(3, "get", 300, 4_300, 4e-6, vec)}},
		})
	}
	rows := Summarize(r.Spans(), r.Marks())
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, row := range rows {
		if row.Cell != "c0" || row.Requests != 3 || row.Forensics != 1 {
			t.Fatalf("row = %+v", row)
		}
		if row.Dominant != "srv_store" {
			t.Fatalf("dominant = %q", row.Dominant)
		}
		if row.MeanSec != 4e-6 || row.MaxSec != 4e-6 {
			t.Fatalf("mean/max = %v/%v", row.MeanSec, row.MaxSec)
		}
	}
	table := RenderSummary(rows)
	if !strings.Contains(table, "agent-0") || !strings.Contains(table, "srv_store") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if id := r.Add(telemetry.SpanRecord{}); id != 0 {
		t.Fatal("nil recorder assigned an ID")
	}
	r.AddMark(Mark{})
	r.RecordCellFlight(1, "a", "c", &CellFlight{Requests: []ReqSpan{{}}})
	r.Close(0)
	if r.Spans() != nil || r.Marks() != nil || r.Campaign() != "" || r.Root() != 0 {
		t.Fatal("nil recorder returned data")
	}
	var c *Capture
	c.Observe(getReq(0, 1), 1e-3, anatomy.Vec{})
	if c.Finish(0, 1) != nil {
		t.Fatal("nil capture returned a flight")
	}
	var f *CellFlight
	f.CorrectClock(func(ns int64) int64 { return ns })
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
