package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	fg := reg.FloatGauge("x")
	r := reg.Recorder("x")
	if c != nil || g != nil || fg != nil || r != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.SetMax(10)
	fg.Set(1.5)
	r.Record(0.001)
	var tr *Tracer
	if tr.Sample() {
		t.Error("nil tracer must not sample")
	}
	tr.Emit(Trace{})
	var s *Slippage
	s.Observe(0.01)
	s.ObserveSince(time.Now())
	var j *Journal
	if err := j.Emit(Event{Kind: EventNote}); err != nil {
		t.Errorf("nil journal emit: %v", err)
	}
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || r.Count() != 0 {
		t.Error("nil handles must read zero")
	}
	if got := reg.Snapshot(); len(got.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := New()
	c := reg.Counter("reqs")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if reg.Counter("reqs") != c {
		t.Error("same name must return the same counter")
	}
	g := reg.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	g.SetMax(2)
	if g.Value() != 4 {
		t.Error("SetMax must not lower the gauge")
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("SetMax = %d, want 11", g.Value())
	}
	fg := reg.FloatGauge("mean")
	fg.Set(1.25)
	if fg.Value() != 1.25 {
		t.Errorf("float gauge = %g, want 1.25", fg.Value())
	}
}

func TestRecorderQuantiles(t *testing.T) {
	r, err := NewRecorder(1e-6, 10, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// A known distribution: 1ms for 99 samples, 100ms for 1 — p99 must land
	// near 1ms..100ms boundary, p50 near 1ms.
	for i := 0; i < 990; i++ {
		r.Record(1e-3)
	}
	for i := 0; i < 10; i++ {
		r.Record(100e-3)
	}
	if r.Count() != 1000 {
		t.Fatalf("count = %d", r.Count())
	}
	p50 := r.Quantile(0.5)
	if p50 < 0.8e-3 || p50 > 1.2e-3 {
		t.Errorf("p50 = %g, want ~1e-3", p50)
	}
	p999 := r.Quantile(0.999)
	if p999 < 80e-3 || p999 > 120e-3 {
		t.Errorf("p999 = %g, want ~100e-3", p999)
	}
	if got, want := r.Mean(), (990*1e-3+10*100e-3)/1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	if r.Max() != 100e-3 {
		t.Errorf("max = %g", r.Max())
	}
}

func TestRecorderInvalidAndOutOfRange(t *testing.T) {
	r, err := NewRecorder(1e-3, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.Record(0)
	r.Record(-1)
	r.Record(math.NaN())
	r.Record(math.Inf(1))
	if r.Invalid() != 4 {
		t.Errorf("invalid = %d, want 4", r.Invalid())
	}
	if r.Count() != 0 {
		t.Errorf("count = %d, want 0", r.Count())
	}
	r.Record(1e-6) // underflow
	r.Record(5)    // overflow
	if r.Count() != 2 {
		t.Errorf("count = %d, want 2", r.Count())
	}
	s := r.Snapshot()
	if s.Underflow != 1 || s.Overflow != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", s.Underflow, s.Overflow)
	}
	if s.UnderflowMax != 1e-6 {
		t.Errorf("underflow max = %g", s.UnderflowMax)
	}
	if s.OverflowMax != 5 {
		t.Errorf("overflow max = %g", s.OverflowMax)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r, err := NewRecorder(1e-6, 10, 256)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(1e-4 * float64(g+1))
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != goroutines*per {
		t.Errorf("count = %d, want %d", r.Count(), goroutines*per)
	}
	want := 0.0
	for g := 1; g <= goroutines; g++ {
		want += 1e-4 * float64(g) * per
	}
	if math.Abs(r.Mean()*float64(r.Count())-want)/want > 1e-9 {
		t.Errorf("sum drifted under concurrency: %g want %g", r.Mean()*float64(r.Count()), want)
	}
}

func TestRecorderBadGeometryFallback(t *testing.T) {
	if _, err := NewRecorder(0, 1, 10); err == nil {
		t.Error("lo=0 must error")
	}
	if _, err := NewRecorder(1, 1, 10); err == nil {
		t.Error("hi<=lo must error")
	}
	reg := New()
	r := reg.RecorderRange("bad", -1, 0, 1)
	if r == nil {
		t.Fatal("bad geometry must fall back to default, not nil")
	}
	r.Record(1e-3)
	if r.Count() != 1 {
		t.Error("fallback recorder must work")
	}
}

func TestSlippage(t *testing.T) {
	reg := New()
	s := NewSlippage(reg, "loadgen.send_slippage", 500*time.Microsecond)
	for i := 0; i < 99; i++ {
		s.Observe(10e-6)
	}
	s.Observe(2e-3) // one alert
	if s.Total() != 100 {
		t.Errorf("total = %d, want 100", s.Total())
	}
	if s.Alerts() != 1 {
		t.Errorf("alerts = %d, want 1", s.Alerts())
	}
	if got := s.AlertRate(); got != 0.01 {
		t.Errorf("alert rate = %g, want 0.01", got)
	}
	if p99 := s.P99(); p99 <= 0 {
		t.Errorf("p99 = %g, want > 0", p99)
	}
	// Early (negative) sends count toward total but not the recorder.
	s.Observe(-5e-6)
	if s.Total() != 101 {
		t.Errorf("total = %d, want 101", s.Total())
	}
	// The registry shares the metric by name.
	if reg.Counter("loadgen.send_slippage_total").Value() != 101 {
		t.Error("slippage counters must live in the registry")
	}
	if reg.Recorder("loadgen.send_slippage").Count() != 100 {
		t.Error("slippage recorder must live in the registry")
	}
	if NewSlippage(nil, "x", 0) != nil {
		t.Error("nil registry must yield nil slippage")
	}
}

func TestTracerSamplingAndExport(t *testing.T) {
	tr, err := NewTracer(10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for i := 0; i < 1000; i++ {
		if tr.Sample() {
			sampled++
			tr.Emit(Trace{ID: tr.NextID(), Op: "get", ArrivalNs: int64(i), EnqueueNs: int64(i) + 1})
		}
	}
	if sampled != 100 {
		t.Errorf("sampled %d of 1000 at 1-in-10", sampled)
	}
	if tr.Len() != 100 {
		t.Errorf("buffered %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("round-tripped %d traces", len(got))
	}
	if got[0].Op != "get" || got[0].EnqueueNs != got[0].ArrivalNs+1 {
		t.Errorf("trace fields lost: %+v", got[0])
	}
	if _, err := NewTracer(0, 0); err == nil {
		t.Error("sampleEvery < 1 must error")
	}
}

// TestTraceJSONLSchema pins the -trace file's line format: key names, key
// order and which zero stamps are omitted. A fully stamped completion
// carries every key but err; a request refused before it was sent carries
// only its arrival and enqueue stamps and the error.
func TestTraceJSONLSchema(t *testing.T) {
	tr, err := NewTracer(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit(Trace{ID: 7, Op: "get", ArrivalNs: 100, EnqueueNs: 110, SendNs: 120, FirstByteNs: 150, CompleteNs: 160})
	tr.Emit(Trace{ID: 8, Op: "set", ArrivalNs: 200, EnqueueNs: 205, Err: "client: connection closed"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"id":7,"op":"get","arrival_ns":100,"enqueue_ns":110,"send_ns":120,"first_byte_ns":150,"complete_ns":160}
{"id":8,"op":"set","arrival_ns":200,"enqueue_ns":205,"err":"client: connection closed"}
`
	if got := buf.String(); got != want {
		t.Errorf("trace JSONL =\n%s\nwant\n%s", got, want)
	}
}

func TestTracerBufferBound(t *testing.T) {
	tr, err := NewTracer(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	reg := New()
	// Linked after 5 drops: ExposeOn must back-fill the ones it missed.
	for i := 0; i < 15; i++ {
		tr.Emit(Trace{ID: uint64(i)})
	}
	tr.ExposeOn(reg)
	for i := 15; i < 25; i++ {
		tr.Emit(Trace{ID: uint64(i)})
	}
	if tr.Len() != 10 {
		t.Errorf("len = %d, want 10", tr.Len())
	}
	if tr.Dropped() != 15 {
		t.Errorf("dropped = %d, want 15", tr.Dropped())
	}
	// Trace loss must not be silent: the registry counter on /metrics
	// carries the same count.
	if got := reg.Snapshot().Counters[TraceDroppedMetric]; got != 15 {
		t.Errorf("%s metric = %d, want 15", TraceDroppedMetric, got)
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	reg := New()
	reg.Counter("a.count").Add(3)
	reg.Gauge("b.depth").Set(-2)
	reg.FloatGauge("c.mean").Set(0.5)
	rec := reg.Recorder("d.lat")
	for i := 0; i < 100; i++ {
		rec.Record(1e-3)
	}
	s := reg.Snapshot()
	if s.Counters["a.count"] != 3 {
		t.Errorf("counter snapshot = %d", s.Counters["a.count"])
	}
	if s.Gauges["b.depth"] != -2 {
		t.Errorf("gauge snapshot = %d", s.Gauges["b.depth"])
	}
	if s.FloatGauges["c.mean"] != 0.5 {
		t.Errorf("float gauge snapshot = %g", s.FloatGauges["c.mean"])
	}
	st := s.Recorders["d.lat"]
	if st.Count != 100 || st.P99 <= 0 {
		t.Errorf("recorder snapshot = %+v", st)
	}
	names := reg.Names()
	want := []string{"a.count", "b.depth", "c.mean", "d.lat"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// The snapshot must be JSON-serializable (exposition path).
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("snapshot marshal: %v", err)
	}
}
