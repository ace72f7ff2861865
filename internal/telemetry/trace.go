package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Trace is a live request's one record, from its due instant to its
// completion. Both send paths (the classic client and the sharded load
// plane) stamp it, the observers (anatomy ledger, runtime-probe
// correlation, flight capture) read it, and a sampled one is the -trace
// JSONL line as is. Every stage is a wall-clock UnixNano timestamp:
//
//	Arrival   — the open-loop schedule decided to issue the request,
//	Enqueue   — the request was handed to the client,
//	Send      — taken before the request's bytes can reach the socket,
//	FirstByte — the response was parsed off the socket (0 when none was),
//	Complete  — the completion callback finished.
//
// Arrival→Enqueue is generator slippage, Enqueue→Send is client hand-off
// time (the connection lock on the classic client), Send→FirstByte brackets
// encode + write + network + server, FirstByte→Complete is callback
// overhead — together they attribute where the load tester itself spends
// time on each request. ID is set only on sampled records, Err only on
// sampled failures.
type Trace struct {
	ID uint64 `json:"id"`
	Op string `json:"op,omitempty"`

	ArrivalNs   int64 `json:"arrival_ns"`
	EnqueueNs   int64 `json:"enqueue_ns"`
	SendNs      int64 `json:"send_ns,omitempty"`
	FirstByteNs int64 `json:"first_byte_ns,omitempty"`
	CompleteNs  int64 `json:"complete_ns,omitempty"`

	Err string `json:"err,omitempty"`
}

// Valid reports whether the send, first-byte and completion stamps are
// present and monotone from the arrival — false on error and disconnect
// paths, which never parse a response.
func (t Trace) Valid() bool {
	return t.SendNs >= t.ArrivalNs && t.FirstByteNs >= t.SendNs &&
		t.CompleteNs >= t.FirstByteNs && t.CompleteNs > t.ArrivalNs
}

// Total returns the measured latency, arrival to completion, in seconds.
func (t Trace) Total() float64 { return float64(t.CompleteNs-t.ArrivalNs) / 1e9 }

// Tracer samples 1-in-N requests into a bounded in-memory buffer for JSONL
// export. Sample and Emit are safe for concurrent use; a nil *Tracer is
// disabled (Sample always false).
type Tracer struct {
	every   uint64
	n       atomic.Uint64
	seq     atomic.Uint64
	dropped atomic.Uint64
	// dropMetric mirrors dropped onto a registry counter so buffer-full
	// trace loss is visible on /metrics instead of only in the final
	// export accounting.
	dropMetric atomic.Pointer[Counter]

	mu  sync.Mutex
	buf []Trace
	max int
}

// TraceDroppedMetric is the registry counter name ExposeOn publishes the
// drop count under.
const TraceDroppedMetric = "trace_dropped"

// ExposeOn mirrors future drops onto reg's TraceDroppedMetric counter
// (plus any drops that already happened), making silent trace loss
// observable live on /metrics. Safe to call while Emit runs.
func (t *Tracer) ExposeOn(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	c := reg.Counter(TraceDroppedMetric)
	t.dropMetric.Store(c)
	c.Add(t.dropped.Load())
}

// DefaultTraceBuffer bounds the in-memory trace buffer when maxRecords <= 0.
const DefaultTraceBuffer = 65536

// NewTracer returns a Tracer keeping every sampleEvery-th request (1 traces
// everything), buffering at most maxRecords traces (older traces win; later
// ones count as dropped).
func NewTracer(sampleEvery, maxRecords int) (*Tracer, error) {
	if sampleEvery < 1 {
		return nil, fmt.Errorf("telemetry: trace sample interval %d must be >= 1", sampleEvery)
	}
	if maxRecords <= 0 {
		maxRecords = DefaultTraceBuffer
	}
	return &Tracer{every: uint64(sampleEvery), max: maxRecords}, nil
}

// Sample reports whether the caller should trace this request. It is the
// hot-path gate: one atomic add and a modulo.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.n.Add(1)%t.every == 0
}

// NextID returns a unique trace ID.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Emit stores one completed trace.
func (t *Tracer) Emit(tr Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) >= t.max {
		t.mu.Unlock()
		t.dropped.Add(1)
		t.dropMetric.Load().Inc()
		return
	}
	t.buf = append(t.buf, tr)
	t.mu.Unlock()
}

// Len returns the number of buffered traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many traces were discarded because the buffer was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Records returns a copy of the buffered traces.
func (t *Tracer) Records() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, len(t.buf))
	copy(out, t.buf)
	return out
}

// WriteJSONL writes every buffered trace as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tr := range t.Records() {
		if err := enc.Encode(tr); err != nil {
			return fmt.Errorf("telemetry: write trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTraces parses a JSONL trace stream written by WriteJSONL.
func ReadTraces(r io.Reader) ([]Trace, error) {
	var out []Trace
	dec := json.NewDecoder(r)
	for {
		var tr Trace
		if err := dec.Decode(&tr); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("telemetry: parse trace %d: %w", len(out), err)
		}
		out = append(out, tr)
	}
}
