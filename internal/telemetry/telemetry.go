// Package telemetry lets the load tester observe itself. The paper's core
// argument (§II-III) is that load testers silently corrupt their own
// measurements — closed-loop arrivals, pooled statistics, client-side
// queueing — and validates Treadmill against tcpdump ground truth. This
// package turns the generator's own health into first-class, measurable
// quantities:
//
//   - Registry: a lightweight metrics registry (atomic counters, gauges,
//     and streaming latency recorders backed by internal/hist snapshots)
//     that client, loadgen, server, sim, and core all register into;
//   - Slippage: a send-slippage self-audit quantifying how far actual
//     sends drift from the open-loop schedule (the paper's pitfall-3
//     client-side bias, made testable);
//   - Tracer: sampled per-request trace records
//     (arrival → enqueue → send → first byte → complete), JSONL export;
//   - Journal: a structured JSONL run journal so every experiment is
//     auditable and re-plottable after the fact.
//
// Every handle type is nil-safe: a nil *Counter, *Gauge, *FloatGauge,
// *Recorder, *Tracer, or *Slippage is a disabled metric whose methods are
// no-ops costing a couple of nanoseconds, so instrumented hot paths need no
// branching on "is telemetry on". A nil *Registry likewise hands out nil
// handles.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"treadmill/internal/hist"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter is a disabled no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous integer value (queue depth, in-flight
// count). The zero value is ready; a nil Gauge is a disabled no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic instantaneous float value (running mean, rate).
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a nil FloatGauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Recorder is a concurrent, allocation-free streaming latency recorder:
// fixed log-spaced bins over [lo, hi) with atomic occupancy counts.
// Unlike hist.Histogram (single-owner, adaptive, phase lifecycle), a
// Recorder is safe for concurrent Record calls from many goroutines and
// never re-bins, so the hot path is one Log, one atomic add, and a few CAS
// updates. Its state exports as a hist.Snapshot, so quantile math reuses
// internal/hist.
//
// A nil Recorder is a disabled no-op.
type Recorder struct {
	lo, hi   float64
	logLo    float64
	logWidth float64
	counts   []atomic.Uint64

	n        atomic.Uint64 // valid samples (bins + under + over)
	under    atomic.Uint64
	over     atomic.Uint64
	invalid  atomic.Uint64 // rejected samples (<= 0, NaN, Inf)
	sum      atomicFloat
	min      atomicMin
	max      atomicMax
	underMax atomicMax // largest underflowed value
}

// Default recorder geometry: 50ns to 100s in 1024 log-spaced bins
// (~2% bin width, comfortably inside the engine's 1% convergence
// tolerances).
const (
	defaultRecorderLo   = 50e-9
	defaultRecorderHi   = 100.0
	defaultRecorderBins = 1024
)

// NewRecorder returns a Recorder with bins log-spaced buckets on [lo, hi).
func NewRecorder(lo, hi float64, bins int) (*Recorder, error) {
	if !(lo > 0) || hi <= lo || bins < 2 {
		return nil, fmt.Errorf("telemetry: invalid recorder range [%g,%g) with %d bins", lo, hi, bins)
	}
	r := &Recorder{lo: lo, hi: hi, counts: make([]atomic.Uint64, bins)}
	r.logLo = math.Log(lo)
	r.logWidth = (math.Log(hi) - r.logLo) / float64(bins)
	r.min.bits.Store(math.Float64bits(math.Inf(1)))
	r.max.bits.Store(math.Float64bits(math.Inf(-1)))
	r.underMax.bits.Store(math.Float64bits(0))
	return r, nil
}

// Record adds one sample in seconds. Non-positive, NaN, and infinite
// values are counted as invalid and otherwise dropped (a latency or delay
// can never be <= 0; unlike hist, telemetry must not error on a hot path).
func (r *Recorder) Record(v float64) {
	if r == nil {
		return
	}
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		r.invalid.Add(1)
		return
	}
	r.n.Add(1)
	r.sum.Add(v)
	r.min.Min(v)
	r.max.Max(v)
	switch {
	case v < r.lo:
		r.under.Add(1)
		r.underMax.Max(v)
	case v >= r.hi:
		r.over.Add(1)
	default:
		idx := int((math.Log(v) - r.logLo) / r.logWidth)
		if idx < 0 {
			idx = 0
		}
		if idx >= len(r.counts) {
			idx = len(r.counts) - 1
		}
		r.counts[idx].Add(1)
	}
}

// Count returns the number of valid samples recorded.
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Invalid returns the number of rejected samples.
func (r *Recorder) Invalid() uint64 {
	if r == nil {
		return 0
	}
	return r.invalid.Load()
}

// Mean returns the mean of recorded samples, or 0 when empty.
func (r *Recorder) Mean() float64 {
	if r == nil || r.n.Load() == 0 {
		return 0
	}
	return r.sum.Load() / float64(r.n.Load())
}

// Max returns the largest recorded sample, or 0 when empty.
func (r *Recorder) Max() float64 {
	if r == nil || r.n.Load() == 0 {
		return 0
	}
	return r.max.Load()
}

// Snapshot exports the recorder state as a hist.Snapshot. The snapshot is
// weakly consistent under concurrent recording (counts are read bin by
// bin), which is the standard trade for live telemetry.
func (r *Recorder) Snapshot() *hist.Snapshot {
	if r == nil {
		return nil
	}
	s := &hist.Snapshot{
		Lo:        r.lo,
		Hi:        r.hi,
		Counts:    make([]uint64, len(r.counts)),
		Underflow: r.under.Load(),
		Overflow:  r.over.Load(),
		Sum:       r.sum.Load(),
	}
	for i := range r.counts {
		s.Counts[i] = r.counts[i].Load()
	}
	if n := r.n.Load(); n > 0 {
		s.Min = r.min.Load()
		s.Max = r.max.Load()
	}
	if s.Underflow > 0 {
		s.UnderflowMax = r.underMax.Load()
	}
	if s.Overflow > 0 {
		// The overall max is by definition the largest overflowed value.
		s.OverflowMax = r.max.Load()
	}
	return s
}

// Histogram reconstructs a measurement-phase hist.Histogram from the
// recorder's current snapshot, or nil when empty.
func (r *Recorder) Histogram() *hist.Histogram {
	if r == nil || r.Count() == 0 {
		return nil
	}
	cfg := hist.Config{
		CalibrationSamples:    1,
		Bins:                  len(r.counts),
		OverflowRebinFraction: 0.001,
	}
	h, err := hist.FromSnapshot(r.Snapshot(), cfg)
	if err != nil {
		return nil
	}
	return h
}

// Quantile returns the q-th quantile of recorded samples via the
// hist-snapshot path, or 0 when empty.
func (r *Recorder) Quantile(q float64) float64 {
	h := r.Histogram()
	if h == nil {
		return 0
	}
	v, err := h.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// atomicFloat is a float64 accumulator updated with CAS.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// atomicMin / atomicMax track running extrema with CAS.
type atomicMin struct {
	bits atomic.Uint64
}

func (m *atomicMin) Min(v float64) {
	for {
		old := m.bits.Load()
		if v >= math.Float64frombits(old) || m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMin) Load() float64 { return math.Float64frombits(m.bits.Load()) }

type atomicMax struct {
	bits atomic.Uint64
}

func (m *atomicMax) Max(v float64) {
	for {
		old := m.bits.Load()
		if v <= math.Float64frombits(old) || m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMax) Load() float64 { return math.Float64frombits(m.bits.Load()) }

// Registry is a named collection of metrics. Handles are get-or-create: two
// components asking for the same name share the metric, which is how the
// per-run load-generator instances of a TCPRunner aggregate their
// send-slippage into one recorder.
//
// A nil *Registry hands out nil (disabled) handles, so callers thread one
// optional pointer through and never branch.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	fgauges   map[string]*FloatGauge
	recorders map[string]*Recorder
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		fgauges:   make(map[string]*FloatGauge),
		recorders: make(map[string]*Recorder),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Recorder returns the named latency recorder with the default range
// (50ns-100s), creating it on first use.
func (r *Registry) Recorder(name string) *Recorder {
	return r.RecorderRange(name, defaultRecorderLo, defaultRecorderHi, defaultRecorderBins)
}

// RecorderRange returns the named recorder, creating it with the given
// geometry on first use (an existing recorder keeps its original geometry).
func (r *Registry) RecorderRange(name string, lo, hi float64, bins int) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.recorders[name]
	if !ok {
		var err error
		rec, err = NewRecorder(lo, hi, bins)
		if err != nil {
			// Invalid geometry falls back to the default range rather than
			// poisoning a hot path with a nil that the caller asked for.
			rec, _ = NewRecorder(defaultRecorderLo, defaultRecorderHi, defaultRecorderBins)
		}
		r.recorders[name] = rec
	}
	return rec
}

// RecorderStats summarizes one recorder for exposition.
type RecorderStats struct {
	Count   uint64  `json:"count"`
	Invalid uint64  `json:"invalid,omitempty"`
	Mean    float64 `json:"mean"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	P999    float64 `json:"p999"`
}

// MetricsSnapshot is a point-in-time JSON-friendly image of a Registry.
type MetricsSnapshot struct {
	Counters    map[string]uint64        `json:"counters,omitempty"`
	Gauges      map[string]int64         `json:"gauges,omitempty"`
	FloatGauges map[string]float64       `json:"float_gauges,omitempty"`
	Recorders   map[string]RecorderStats `json:"recorders,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	fgauges := make(map[string]*FloatGauge, len(r.fgauges))
	for k, v := range r.fgauges {
		fgauges[k] = v
	}
	recorders := make(map[string]*Recorder, len(r.recorders))
	for k, v := range r.recorders {
		recorders[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = make(map[string]uint64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(fgauges) > 0 {
		s.FloatGauges = make(map[string]float64, len(fgauges))
		for k, v := range fgauges {
			s.FloatGauges[k] = v.Value()
		}
	}
	if len(recorders) > 0 {
		s.Recorders = make(map[string]RecorderStats, len(recorders))
		for k, v := range recorders {
			st := RecorderStats{Count: v.Count(), Invalid: v.Invalid(), Mean: v.Mean(), Max: v.Max()}
			if h := v.Histogram(); h != nil {
				if qs, err := h.Quantiles(0.5, 0.95, 0.99, 0.999); err == nil {
					st.P50, st.P95, st.P99, st.P999 = qs[0], qs[1], qs[2], qs[3]
				}
			}
			s.Recorders[k] = st
		}
	}
	return s
}

// Names returns the sorted names of all registered metrics (for tests and
// rendering).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.fgauges {
		names = append(names, k)
	}
	for k := range r.recorders {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
