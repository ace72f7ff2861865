// Package flightrec is the campaign flight recorder: one clock-corrected
// span timeline for an entire fleet run, plus automated forensic capture
// around tail events.
//
// Treadmill's thesis is that tail latency must be attributed, not just
// measured — yet a fleet campaign's evidence is scattered across
// per-process journals, sampled traces, anatomy CSVs, and heartbeat logs
// with no common timebase. This package composes the pieces the repo
// already has (NTP-style clock-offset estimation in internal/fleet,
// per-request anatomy phase ledgers, the rtprobe runtime sampler) into a
// navigable observability artifact:
//
//   - a Recorder collects campaign → cell → agent-run → sampled-request
//     spans (with anatomy phases as sub-spans), all expressed in the
//     coordinator's timebase after per-agent clock correction, and
//     mirrors every span into the telemetry journal;
//   - a Capture runs agent-side: an always-on ring buffer of recent
//     request records plus a latency-threshold trigger (absolute or
//     online-quantile-derived) that dumps a forensic bundle — the
//     offending request's anatomy vector, the surrounding rtprobe
//     GC/sched window, a triggered goroutine (and best-effort CPU)
//     profile slice, and the request's ring-buffer neighbors;
//   - a Chrome trace-event exporter (chrome.go) renders the whole
//     timeline as a Perfetto-loadable JSON file.
//
// The wire-portable record types (ReqSpan, Forensic, CellFlight,
// CaptureSpec) are defined here and referenced by internal/fleet/wire, so
// agent-reported spans cross the fleet protocol as optional frame fields
// and old agents that never send them keep working unchanged.
package flightrec

import (
	"fmt"
	"sync"

	"treadmill/internal/anatomy"
	"treadmill/internal/telemetry"
)

// Span kinds, from root to leaf.
const (
	KindCampaign = "campaign"
	KindCell     = "cell"
	KindAgentRun = "agent_run"
	KindRequest  = "request"
	KindPhase    = "phase"
)

// Mark is one instant event on the timeline (a forensic trigger).
type Mark struct {
	Name  string
	Agent string
	Cell  string
	AtNs  int64
	// Span links the mark to the request span it fired on (0 = none).
	Span uint64
}

// Recorder accumulates a campaign's spans and marks. All methods are safe
// for concurrent use; a nil *Recorder is a disabled no-op, so every call
// site can record unconditionally.
type Recorder struct {
	campaign string
	journal  *telemetry.Journal

	mu     sync.Mutex
	nextID uint64
	root   uint64
	spans  []telemetry.SpanRecord
	marks  []Mark
}

// NewRecorder opens a recorder with a campaign root span starting at
// startNs. journal, when non-nil, receives one span event per recorded
// span and one forensic event per bundle (the timeline's journal mirror).
func NewRecorder(campaign string, startNs int64, journal *telemetry.Journal) *Recorder {
	r := &Recorder{campaign: campaign, journal: journal}
	r.root = r.Add(telemetry.SpanRecord{Kind: KindCampaign, Name: campaign, StartNs: startNs})
	return r
}

// Campaign returns the campaign name ("" on nil).
func (r *Recorder) Campaign() string {
	if r == nil {
		return ""
	}
	return r.campaign
}

// Root returns the campaign root span's ID (0 on nil).
func (r *Recorder) Root() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

// Close stamps the campaign root span's end.
func (r *Recorder) Close(endNs int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range r.spans {
		if r.spans[i].ID == r.root {
			r.spans[i].EndNs = endNs
			break
		}
	}
	r.mu.Unlock()
}

// Add records one span, assigns its ID and the recorder's campaign, mirrors
// it into the journal, and returns the ID (0 on a nil recorder).
func (r *Recorder) Add(s telemetry.SpanRecord) uint64 {
	if r == nil {
		return 0
	}
	s.Campaign = r.campaign
	r.mu.Lock()
	r.nextID++
	s.ID = r.nextID
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	r.journalSpan(s)
	return s.ID
}

// AddMark records one instant event.
func (r *Recorder) AddMark(m Mark) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.marks = append(r.marks, m)
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span, in record order.
func (r *Recorder) Spans() []telemetry.SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]telemetry.SpanRecord(nil), r.spans...)
}

// Marks returns a copy of every recorded mark.
func (r *Recorder) Marks() []Mark {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Mark(nil), r.marks...)
}

// journalSpan mirrors a span into the telemetry journal (phase child
// spans are skipped: the request span's Phases/PhaseSecs already carry
// them, and one journal line per phase would octuple the volume).
func (r *Recorder) journalSpan(s telemetry.SpanRecord) {
	if r.journal == nil || s.Kind == KindPhase {
		return
	}
	_ = r.journal.Emit(telemetry.Event{Kind: telemetry.EventSpan, Span: &s})
}

// RecordCellFlight folds an agent's clock-corrected CellFlight payload
// into the timeline under the given cell span: the agent-run span, each
// sampled request span with its anatomy phase sub-spans, and a mark plus
// journal event per forensic bundle. The caller has already mapped every
// StartNs/EndNs onto the coordinator timebase.
func (r *Recorder) RecordCellFlight(cellSpan uint64, agent, cell string, f *CellFlight) {
	if r == nil || f == nil {
		return
	}
	runID := r.Add(telemetry.SpanRecord{
		Parent: cellSpan, Kind: KindAgentRun,
		Name:  fmt.Sprintf("run %s @ %s", cell, agent),
		Agent: agent, Cell: cell,
		StartNs: f.StartNs, EndNs: f.EndNs,
	})
	for i := range f.Requests {
		r.addRequest(runID, agent, cell, &f.Requests[i])
	}
	for i := range f.Forensics {
		fb := &f.Forensics[i]
		reqID := r.addRequest(runID, agent, cell, &fb.Offender)
		r.AddMark(Mark{
			Name:  fmt.Sprintf("tail-trigger %s>%s", fmtSec(fb.Offender.TotalSec), fmtSec(fb.ThresholdSec)),
			Agent: agent, Cell: cell, AtNs: fb.Offender.EndNs, Span: reqID,
		})
		r.journalForensic(agent, cell, fb)
	}
}

// addRequest records one sampled request span plus its phase sub-spans,
// returning the request span's ID. Phase sub-spans are laid out
// sequentially from the request start in ledger order; their float
// durations are the authoritative tiling (they sum to TotalSec within
// 1ulp), the integer placements are for rendering only.
func (r *Recorder) addRequest(parent uint64, agent, cell string, q *ReqSpan) uint64 {
	id := r.Add(telemetry.SpanRecord{
		Parent: parent, Kind: KindRequest,
		Name:  q.Op,
		Agent: agent, Cell: cell,
		StartNs: q.StartNs, EndNs: q.EndNs,
		Sec:    q.TotalSec,
		Phases: q.Phases, PhaseSecs: q.PhaseSecs,
	})
	offset := 0.0
	for i, name := range q.Phases {
		sec := q.PhaseSecs[i]
		if sec <= 0 {
			continue
		}
		start := q.StartNs + int64(offset*1e9)
		r.Add(telemetry.SpanRecord{
			Parent: id, Kind: KindPhase,
			Name:  name,
			Agent: agent, Cell: cell,
			StartNs: start, EndNs: start + int64(sec*1e9),
			Sec: sec,
		})
		offset += sec
	}
	return id
}

// journalForensic mirrors one forensic bundle into the journal. Profiles
// are journaled by size, not content (the bundle itself carries them).
func (r *Recorder) journalForensic(agent, cell string, f *Forensic) {
	if r.journal == nil {
		return
	}
	_ = r.journal.Emit(telemetry.Event{Kind: telemetry.EventForensic, Forensic: &telemetry.ForensicRecord{
		Campaign: r.campaign,
		Agent:    agent, Cell: cell,
		TriggerNs:    f.Offender.EndNs,
		LatencySec:   f.Offender.TotalSec,
		ThresholdSec: f.ThresholdSec,
		Trigger:      f.Trigger,
		DominantPhase: func() string {
			if p := f.Offender.Dominant(); p >= 0 {
				return f.Offender.Phases[p]
			}
			return ""
		}(),
		GCPauseSec: f.GCPauseSec, SchedWaitSec: f.SchedWaitSec,
		WindowGCSec: f.WindowGCSec, WindowSchedSec: f.WindowSchedSec,
		Neighbors:             len(f.Neighbors),
		GoroutineProfileBytes: len(f.GoroutineProfile),
		CPUProfileBytes:       len(f.CPUProfile),
	}})
}

// fmtSec renders a seconds value compactly for mark names.
func fmtSec(s float64) string { return fmt.Sprintf("%.3gms", s*1e3) }

// ReqSpan is one sampled request span in wire-portable form. Timestamps
// are UnixNano in the *reporting agent's* clock until the coordinator
// corrects them; TotalSec and PhaseSecs are exact float64 seconds and
// cross JSON bit-identically (Go marshals float64 shortest-round-trip),
// so the 1ulp phase-tiling guarantee survives the wire.
type ReqSpan struct {
	Seq     uint64 `json:"seq"`
	Op      string `json:"op,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// TotalSec is the client-measured latency the phases tile.
	TotalSec float64 `json:"total_sec"`
	// Phases/PhaseSecs are the anatomy ledger (zero phases elided).
	Phases    []string  `json:"phases,omitempty"`
	PhaseSecs []float64 `json:"phase_secs,omitempty"`
	Err       string    `json:"err,omitempty"`
}

// Dominant returns the index of the largest phase (-1 when empty).
func (q *ReqSpan) Dominant() int {
	best, bestSec := -1, 0.0
	for i, s := range q.PhaseSecs {
		if s > bestSec {
			best, bestSec = i, s
		}
	}
	return best
}

// reqSpan builds a ReqSpan from the anatomy ledger of one request,
// keeping only nonzero phases. The "other" slot is recomputed as the
// exact residual of TotalSec minus the kept phases *in the kept order*,
// so a left-to-right sum of PhaseSecs lands within 1 ulp of TotalSec by
// construction — the upstream ledger's own tiling error (whose summation
// order we cannot reproduce) never leaks into the span.
func reqSpan(seq uint64, op string, startNs, endNs int64, total float64, v anatomy.Vec) ReqSpan {
	q := ReqSpan{Seq: seq, Op: op, StartNs: startNs, EndNs: endNs, TotalSec: total}
	var sum float64
	for p := 0; p < anatomy.NumPhases; p++ {
		if v[p] != 0 && anatomy.Phase(p) != anatomy.Other {
			q.Phases = append(q.Phases, anatomy.Phase(p).String())
			q.PhaseSecs = append(q.PhaseSecs, v[p])
			sum += v[p]
		}
	}
	if other := total - sum; other != 0 || v[anatomy.Other] != 0 {
		q.Phases = append(q.Phases, anatomy.Other.String())
		q.PhaseSecs = append(q.PhaseSecs, other)
	}
	return q
}

// Forensic is one tail-event bundle: the offending request, its
// ring-buffer neighborhood, the rtprobe GC/sched attribution for the
// request window and a wider surrounding window, and the triggered
// profile slices.
type Forensic struct {
	// Trigger is "abs" or "quantile" — which threshold fired.
	Trigger string `json:"trigger"`
	// ThresholdSec is the threshold value at trigger time.
	ThresholdSec float64 `json:"threshold_sec"`
	// Offender is the tail request itself (with its anatomy vector).
	Offender ReqSpan `json:"offender"`
	// Neighbors are the ring-buffer records surrounding the offender, in
	// completion order (the offender excluded).
	Neighbors []ReqSpan `json:"neighbors,omitempty"`
	// GCPauseSec/SchedWaitSec are the rtprobe attribution over the
	// offender's own window; WindowGCSec/WindowSchedSec cover the wider
	// surrounding window (WindowNs around the request), showing whether
	// the neighborhood — not just the request — was disturbed.
	GCPauseSec     float64 `json:"gc_pause_sec,omitempty"`
	SchedWaitSec   float64 `json:"sched_wait_sec,omitempty"`
	WindowNs       int64   `json:"window_ns,omitempty"`
	WindowGCSec    float64 `json:"window_gc_sec,omitempty"`
	WindowSchedSec float64 `json:"window_sched_sec,omitempty"`
	// GoroutineProfile is the triggered goroutine profile (debug=1 text,
	// truncated to a bounded size).
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
	// CPUProfile is a best-effort short CPU profile slice (pprof protobuf
	// bytes; empty when another profile was already running).
	CPUProfile []byte `json:"cpu_profile,omitempty"`
	// CPUProfileNs is the slice duration actually captured.
	CPUProfileNs int64 `json:"cpu_profile_ns,omitempty"`
}

// CellFlight is the flight-recorder payload an agent attaches to its
// CellDone frame: the run envelope, sampled request spans, and any
// forensic bundles. All timestamps are in the agent's clock; the
// coordinator corrects them (see CorrectClock) before recording.
type CellFlight struct {
	StartNs   int64      `json:"start_ns"`
	EndNs     int64      `json:"end_ns"`
	Requests  []ReqSpan  `json:"requests,omitempty"`
	Forensics []Forensic `json:"forensics,omitempty"`
	// Observed is how many requests the capture saw (sampling context for
	// the bounded Requests slice).
	Observed uint64 `json:"observed,omitempty"`
	// Dropped counts sampled spans and bundles discarded because their
	// bounds filled — truncation is reported, never silent.
	DroppedSpans   uint64 `json:"dropped_spans,omitempty"`
	DroppedBundles uint64 `json:"dropped_bundles,omitempty"`
}

// CorrectClock maps every timestamp in f from the agent clock onto the
// coordinator clock using toCoord (typically fleet.ClockEstimate.ToCoord).
func (f *CellFlight) CorrectClock(toCoord func(int64) int64) {
	if f == nil {
		return
	}
	fix := func(ns *int64) {
		if *ns != 0 {
			*ns = toCoord(*ns)
		}
	}
	fix(&f.StartNs)
	fix(&f.EndNs)
	fixReq := func(q *ReqSpan) { fix(&q.StartNs); fix(&q.EndNs) }
	for i := range f.Requests {
		fixReq(&f.Requests[i])
	}
	for i := range f.Forensics {
		fb := &f.Forensics[i]
		fixReq(&fb.Offender)
		for j := range fb.Neighbors {
			fixReq(&fb.Neighbors[j])
		}
	}
}
