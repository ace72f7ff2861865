package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is a structured, append-only JSONL run journal. Every experiment
// the core engine executes appends typed events — the configuration it ran
// with, each run's per-quantile estimates and convergence trajectory, and
// the final combined estimates — so any experiment is auditable and
// re-plottable after the fact without rerunning it.
//
// Events are written (and the underlying file synced on Close) as they
// happen, so an interrupted experiment still leaves a parseable journal of
// everything it completed. A nil *Journal is a disabled no-op.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	err    error
}

// Event is one journal line. Exactly one payload pointer is set, selected
// by Kind; Fields carries free-form metadata for "note" events.
type Event struct {
	Kind     string          `json:"event"`
	Config   *ConfigRecord   `json:"config,omitempty"`
	Run      *RunRecord      `json:"run,omitempty"`
	Final    *FinalRecord    `json:"final,omitempty"`
	Anatomy  *AnatomyRecord  `json:"anatomy,omitempty"`
	Fleet    *FleetRecord    `json:"fleet,omitempty"`
	Span     *SpanRecord     `json:"span,omitempty"`
	Forensic *ForensicRecord `json:"forensic,omitempty"`
	Gate     *GateRecord     `json:"gate,omitempty"`
	Note     string          `json:"note,omitempty"`
	Fields   map[string]any  `json:"fields,omitempty"`
}

// Event kinds emitted by the core engine.
const (
	EventConfig   = "config"
	EventRun      = "run"
	EventFinal    = "final"
	EventAnatomy  = "anatomy"
	EventFleet    = "fleet"
	EventSpan     = "span"
	EventForensic = "forensic"
	EventGate     = "gate"
	EventNote     = "note"
)

// ConfigRecord journals the measurement procedure's configuration.
type ConfigRecord struct {
	Quantiles            []float64 `json:"quantiles"`
	PrimaryQuantile      float64   `json:"primary_quantile"`
	MinRuns              int       `json:"min_runs"`
	MaxRuns              int       `json:"max_runs"`
	ConvergenceWindow    int       `json:"convergence_window"`
	ConvergenceTolerance float64   `json:"convergence_tolerance"`
	Seed                 uint64    `json:"seed"`
	WarmupSamples        int       `json:"warmup_samples"`
	CalibrationSamples   int       `json:"calibration_samples"`
	HistBins             int       `json:"hist_bins"`
}

// RunRecord journals one experiment run: per-quantile combined estimates
// (Estimates[i] corresponds to Quantiles[i]), per-instance sample counts,
// and the running mean of the primary quantile after this run — the
// convergence trajectory.
type RunRecord struct {
	Run             int       `json:"run"`
	Seed            uint64    `json:"seed"`
	Quantiles       []float64 `json:"quantiles"`
	Estimates       []float64 `json:"estimates"`
	InstanceSamples []uint64  `json:"instance_samples"`
	RunningMean     float64   `json:"running_mean"`
}

// FinalRecord journals the procedure's outcome: the final combined
// estimates and run-to-run standard deviations (parallel to Quantiles),
// whether the stopping rule fired, and whether the experiment was
// interrupted.
type FinalRecord struct {
	Quantiles    []float64 `json:"quantiles"`
	Estimates    []float64 `json:"estimates"`
	StdDevs      []float64 `json:"stddevs"`
	Runs         int       `json:"runs"`
	Converged    bool      `json:"converged"`
	Interrupted  bool      `json:"interrupted,omitempty"`
	TotalSamples uint64    `json:"total_samples"`
	// SlippageP99 is the load generator's own send-slippage self-audit
	// (seconds), when a registry was attached.
	SlippageP99 float64 `json:"slippage_p99,omitempty"`
}

// AnatomyRecord journals a tail-vs-body phase breakdown (produced by
// internal/anatomy, which owns the conversion — the journal deliberately
// stores plain slices so telemetry does not depend on the anatomy package).
type AnatomyRecord struct {
	// Label identifies the scope of the breakdown (a run index, a
	// factorial-cell key, or "final" for the whole experiment).
	Label string `json:"label,omitempty"`
	// Source tags span provenance: "sim" for simulator-stamped vectors,
	// "live" for spans derived from a real server's timestamps and runtime
	// signals. Absent in journals written before the field existed — decode
	// treats the empty string as unknown/legacy.
	Source   string `json:"anatomy_source,omitempty"`
	Requests uint64 `json:"requests"`
	Invalid  uint64 `json:"invalid,omitempty"`
	// BodyQ/TailQ are the conditioning quantiles; P50/P99 their estimated
	// latency thresholds in seconds.
	BodyQ float64 `json:"body_q"`
	TailQ float64 `json:"tail_q"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	// Phases names the per-phase columns of every cut's PhaseMeans.
	Phases        []string     `json:"phases"`
	Cuts          []AnatomyCut `json:"cuts"`
	LowConfidence bool         `json:"low_confidence,omitempty"`
	Reason        string       `json:"reason,omitempty"`
}

// AnatomyCut is one conditional slice ("overall", "body", "tail") of an
// AnatomyRecord; PhaseMeans is parallel to the record's Phases.
type AnatomyCut struct {
	Name       string    `json:"name"`
	Count      uint64    `json:"count"`
	MeanTotal  float64   `json:"mean_total"`
	PhaseMeans []float64 `json:"phase_means"`
}

// SpanRecord is one flight-recorder timeline interval: flightrec.Recorder
// stores it as is and journals it as is (the journal keeps plain fields so
// telemetry does not depend on flightrec). All timestamps are UnixNano in
// the coordinator's clock after per-agent offset correction.
type SpanRecord struct {
	// Campaign names the recording; ID (recorder-assigned, unique within
	// a recorder) and Parent (the enclosing span's ID, 0 for none) link
	// spans into the campaign → cell → agent-run → request → phase tree.
	Campaign string `json:"campaign,omitempty"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	// Kind is campaign|cell|agent_run|request|phase; phase sub-spans stay
	// in the recorder and are journaled only inline on their request span.
	// Name is human-readable ("cell tcp-run-0 @ loopback-2", "get",
	// "srv_gc", ...); Agent/Cell scope the span (empty where not
	// applicable).
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"`
	Agent   string `json:"agent,omitempty"`
	Cell    string `json:"cell,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Sec, when nonzero, is the exact float64 duration: the
	// client-measured latency of a request span, the anatomy ledger entry
	// of a phase span (phases tile their request to 1ulp — integer
	// nanoseconds would break that).
	Sec float64 `json:"sec,omitempty"`
	// Phases/PhaseSecs are a request span's anatomy sub-spans (parallel),
	// kept on the request as well as materialized as phase spans so a
	// journal line is self-contained.
	Phases    []string  `json:"phases,omitempty"`
	PhaseSecs []float64 `json:"phase_secs,omitempty"`
}

// ForensicRecord journals one tail-trigger forensic bundle summary: what
// fired, how bad it was, which anatomy phase dominated, and how much
// evidence (neighbors, profile bytes) the bundle captured. The full
// bundle (anatomy vectors, profile contents) travels in the trace
// artifact; the journal line is the searchable index entry.
type ForensicRecord struct {
	Campaign string `json:"campaign,omitempty"`
	Agent    string `json:"agent,omitempty"`
	Cell     string `json:"cell,omitempty"`
	// TriggerNs is the offending request's completion instant
	// (coordinator clock).
	TriggerNs int64 `json:"trigger_ns"`
	// LatencySec crossed ThresholdSec; Trigger says which rule fired
	// ("abs" or "quantile").
	LatencySec   float64 `json:"latency_sec"`
	ThresholdSec float64 `json:"threshold_sec"`
	Trigger      string  `json:"trigger"`
	// DominantPhase is the largest anatomy phase of the offender.
	DominantPhase string  `json:"dominant_phase,omitempty"`
	GCPauseSec    float64 `json:"gc_pause_sec,omitempty"`
	SchedWaitSec  float64 `json:"sched_wait_sec,omitempty"`
	// WindowGCSec/WindowSchedSec cover the wider window around the
	// request (neighborhood disturbance vs. request-local).
	WindowGCSec    float64 `json:"window_gc_sec,omitempty"`
	WindowSchedSec float64 `json:"window_sched_sec,omitempty"`
	Neighbors      int     `json:"neighbors,omitempty"`
	// Profile sizes prove capture happened without bloating the journal.
	GoroutineProfileBytes int `json:"goroutine_profile_bytes,omitempty"`
	CPUProfileBytes       int `json:"cpu_profile_bytes,omitempty"`
}

// GateRecord journals one release-gate verdict (produced by internal/gate,
// which owns the decision — like AnatomyRecord, the journal stores plain
// fields so telemetry does not depend on the gate package). It is the
// audit line a CI run leaves behind: what was compared, at what
// significance configuration, and which cell was worst.
type GateRecord struct {
	// Pass is the ship/block decision: false means at least one comparison
	// regressed both statistically and practically.
	Pass bool `json:"pass"`
	// Regressions / Improvements count comparisons that were both
	// Holm-significant and past the practical floor, by direction.
	Regressions  int `json:"regressions,omitempty"`
	Improvements int `json:"improvements,omitempty"`
	// Comparisons is the family size the Holm correction ran over
	// (cells × gated quantiles).
	Comparisons int `json:"comparisons"`
	// Alpha is the family-wise error rate; RelThreshold/AbsThreshold are
	// the practical-significance floors (fraction, seconds).
	Alpha        float64 `json:"alpha"`
	RelThreshold float64 `json:"rel_threshold"`
	AbsThreshold float64 `json:"abs_threshold"`
	// Baseline fingerprints the scenario the candidate was compared
	// against, tying the verdict to a specific committed baseline file.
	Baseline string `json:"baseline,omitempty"`
	// Worst* identify the comparison with the largest adverse delta
	// (absent when every comparison passed with zero delta).
	WorstCell     string  `json:"worst_cell,omitempty"`
	WorstQuantile float64 `json:"worst_quantile,omitempty"`
	WorstDeltaSec float64 `json:"worst_delta_sec,omitempty"`
	WorstP        float64 `json:"worst_p,omitempty"`
}

// FleetRecord journals one distributed-fleet lifecycle event: an agent
// joining (with its measured clock offset), a cell dispatch or
// reassignment, an agent loss and the policy applied to it, or a campaign
// degrade decision. The journal is the audit trail the loss policy
// promises: every deviation from the planned fleet is recorded.
type FleetRecord struct {
	// Action is one of "join", "dispatch", "reassign", "lost", "degrade",
	// "commit", "drain".
	Action string `json:"action"`
	// Agent names the agent involved, when one is.
	Agent string `json:"agent,omitempty"`
	// Cell is the idempotent cell ID involved, when one is.
	Cell string `json:"cell,omitempty"`
	// OffsetNs / RTTNs record the agent's clock estimate at join time.
	OffsetNs int64 `json:"offset_ns,omitempty"`
	RTTNs    int64 `json:"rtt_ns,omitempty"`
	// Policy is the configured loss policy ("abort" or "degrade") on
	// "lost" events.
	Policy string `json:"policy,omitempty"`
	// Detail carries a human-readable elaboration (e.g. the loss error).
	Detail string `json:"detail,omitempty"`
}

// NewJournal writes events to w. The caller retains responsibility for
// closing w unless it is also passed as an io.Closer via OpenJournal.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w}
}

// OpenJournal creates (truncating) a journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open journal: %w", err)
	}
	return &Journal{w: f, closer: f}, nil
}

// Emit appends one event. Events are written immediately (no buffering) so
// a crash or interrupt loses at most the event being written. Emit is safe
// for concurrent use. The first write error is retained and returned by
// every subsequent Emit and by Close.
func (j *Journal) Emit(e Event) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("telemetry: marshal journal event: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.w.Write(data); err != nil {
		j.err = fmt.Errorf("telemetry: write journal: %w", err)
		return j.err
	}
	return nil
}

// Note emits a free-form note event with optional fields.
func (j *Journal) Note(note string, fields map[string]any) error {
	return j.Emit(Event{Kind: EventNote, Note: note, Fields: fields})
}

// Err returns the first write error encountered, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the underlying file when the journal owns one.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if f, ok := j.closer.(*os.File); ok {
		if err := f.Sync(); err != nil && j.err == nil {
			j.err = err
		}
	}
	if j.closer != nil {
		if err := j.closer.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.closer = nil
	}
	return j.err
}

// ReadJournal parses a JSONL journal stream back into events.
func ReadJournal(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("telemetry: parse journal event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// ReadJournalFile parses the journal at path.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}
