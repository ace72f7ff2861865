package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"treadmill/internal/telemetry"
)

// Chrome trace-event export: the recorder's span tree rendered as the
// trace-event JSON object format ({"traceEvents":[...]}) that Perfetto
// and chrome://tracing load directly. Mapping:
//
//   - each agent becomes a process (pid), named via a process_name
//     metadata event; the coordinator's own spans are pid 0;
//   - each cell within an agent becomes a thread (tid), so a cell run's
//     request spans and their anatomy phase sub-spans nest as slices on
//     one track;
//   - spans are ph:"X" complete events with ts/dur in microseconds
//     (float64 — the format's unit), offset from the campaign start so
//     coordinates stay small and exact;
//   - forensic triggers are ph:"i" thread-scoped instant events.
//
// The exact anatomy float durations live in the span model and journal;
// the trace file is the navigable rendering of them.

// chromeEvent is one trace-event JSON record (field subset we emit).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace-event object format envelope.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans and marks as trace-event JSON to w.
func WriteChromeTrace(w io.Writer, spans []telemetry.SpanRecord, marks []Mark) error {
	base := int64(math.MaxInt64)
	for _, s := range spans {
		if s.StartNs != 0 && s.StartNs < base {
			base = s.StartNs
		}
	}
	if base == math.MaxInt64 {
		base = 0
	}
	usSince := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	// Stable pid per agent ("" = coordinator = 0), tid per cell within
	// an agent (0 = agent-level track).
	pids := map[string]int{"": 0}
	tids := map[[2]string]int{}
	pidOf := func(agent string) int {
		if p, ok := pids[agent]; ok {
			return p
		}
		p := len(pids)
		pids[agent] = p
		return p
	}
	tidOf := func(agent, cell string) int {
		if cell == "" {
			return 0
		}
		k := [2]string{agent, cell}
		if t, ok := tids[k]; ok {
			return t
		}
		// tids count per-agent so tracks number 1..N within each process.
		t := 1
		for kk := range tids {
			if kk[0] == agent {
				t++
			}
		}
		tids[k] = t
		return t
	}

	var evs []chromeEvent
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  usSince(s.StartNs),
			Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: pidOf(s.Agent), Tid: tidOf(s.Agent, s.Cell),
			Args: map[string]any{"kind": s.Kind, "span_id": s.ID},
		}
		if s.Sec != 0 {
			// The exact duration wins over the integer rendering.
			ev.Dur = s.Sec * 1e6
			ev.Args["sec"] = s.Sec
		}
		if len(s.Phases) > 0 {
			ev.Args["phases"] = s.Phases
			ev.Args["phase_secs"] = s.PhaseSecs
		}
		evs = append(evs, ev)
	}
	for _, m := range marks {
		evs = append(evs, chromeEvent{
			Name: m.Name, Ph: "i", S: "t",
			Ts:  usSince(m.AtNs),
			Pid: pidOf(m.Agent), Tid: tidOf(m.Agent, m.Cell),
			Args: map[string]any{"span_id": m.Span},
		})
	}
	// Monotonic non-decreasing ts is part of the artifact's contract
	// (ValidateChromeTrace enforces it), so sort timed events.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	// Metadata events (ts 0, emitted first) name the processes.
	meta := make([]chromeEvent, 0, len(pids))
	for agent, pid := range pids {
		name := agent
		if name == "" {
			name = "coordinator"
		}
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i].Pid < meta[j].Pid })

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ns"})
}

// WriteChromeTraceFile writes the trace to path (truncating).
func WriteChromeTraceFile(path string, spans []telemetry.SpanRecord, marks []Mark) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flightrec: create trace: %w", err)
	}
	if err := WriteChromeTrace(f, spans, marks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChromeTrace checks that data is a loadable trace-event JSON
// object: the traceEvents array exists and is non-empty, every event has
// a phase and a name, timed events (X/i) carry finite non-negative ts
// (and non-negative dur for X), and timed events' ts values are
// monotonically non-decreasing. This is the schema/monotonic-ts gate CI
// runs on recorded timelines.
func ValidateChromeTrace(data []byte) error {
	var t struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("flightrec: trace not valid JSON: %w", err)
	}
	if len(t.TraceEvents) == 0 {
		return fmt.Errorf("flightrec: trace has no traceEvents")
	}
	lastTs := math.Inf(-1)
	for i, ev := range t.TraceEvents {
		var ph string
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil || ph == "" {
			return fmt.Errorf("flightrec: event %d: missing phase", i)
		}
		if raw, ok := ev["name"]; !ok {
			return fmt.Errorf("flightrec: event %d: missing name", i)
		} else {
			var name string
			if json.Unmarshal(raw, &name) != nil || name == "" {
				return fmt.Errorf("flightrec: event %d: empty name", i)
			}
		}
		if ph != "X" && ph != "i" {
			continue
		}
		ts, err := numField(ev, "ts")
		if err != nil {
			return fmt.Errorf("flightrec: event %d: %w", i, err)
		}
		if ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
			return fmt.Errorf("flightrec: event %d: ts %v out of range", i, ts)
		}
		if ts < lastTs {
			return fmt.Errorf("flightrec: event %d: ts %v regresses below %v", i, ts, lastTs)
		}
		lastTs = ts
		if ph == "X" {
			dur, err := numField(ev, "dur")
			if err == nil && (dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0)) {
				return fmt.Errorf("flightrec: event %d: dur %v out of range", i, dur)
			}
		}
	}
	return nil
}

// ValidateChromeTraceFile validates the trace at path.
func ValidateChromeTraceFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("flightrec: read trace: %w", err)
	}
	return ValidateChromeTrace(data)
}

// numField decodes a numeric event field.
func numField(ev map[string]json.RawMessage, key string) (float64, error) {
	raw, ok := ev[key]
	if !ok {
		return 0, fmt.Errorf("missing %s", key)
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("non-numeric %s: %w", key, err)
	}
	return v, nil
}
