package rtprobe

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/protocol"
	"treadmill/internal/telemetry"
)

// churn allocates aggressively to force GC cycles.
func churn(stop <-chan struct{}) {
	var sink [][]byte
	for {
		select {
		case <-stop:
			return
		default:
		}
		sink = append(sink, make([]byte, 64<<10))
		if len(sink) > 64 {
			sink = sink[:0]
		}
	}
}

// TestAttributeUnderGCPressure drives allocation churn with an aggressive
// GOGC so real GC pauses land inside the sampled window, then checks the
// attribution invariants: spans are non-negative and never exceed the
// queried window.
func TestAttributeUnderGCPressure(t *testing.T) {
	origGC := debug.SetGCPercent(10)
	defer debug.SetGCPercent(origGC)

	s := NewSampler(Config{Interval: 200 * time.Microsecond})
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); churn(stop) }()
	}
	start := time.Now()
	time.Sleep(150 * time.Millisecond)
	end := time.Now()
	close(stop)
	wg.Wait()

	window := end.Sub(start).Seconds()
	gc, sched := s.Attribute(start.UnixNano(), end.UnixNano())
	if gc < 0 || sched < 0 {
		t.Fatalf("negative attribution: gc=%g sched=%g", gc, sched)
	}
	if gc+sched > window+1e-9 {
		t.Fatalf("attribution %g exceeds window %g", gc+sched, window)
	}
	// With GOGC=10 and two allocation hogs, 150ms must contain GC pauses.
	if gc == 0 {
		t.Errorf("expected nonzero GC attribution under forced churn")
	}
	// Sub-windows must be monotone: a nested window attributes no more.
	midGC, _ := s.Attribute(start.UnixNano(), start.UnixNano()+end.Sub(start).Nanoseconds()/2)
	if midGC > gc+1e-9 {
		t.Errorf("nested window attributed more GC (%g) than full window (%g)", midGC, gc)
	}
}

// TestAttributeUnderSchedulerContention saturates the scheduler with more
// runnable goroutines than GOMAXPROCS and expects nonzero scheduler-wait
// attribution with the invariants intact.
func TestAttributeUnderSchedulerContention(t *testing.T) {
	s := NewSampler(Config{Interval: 200 * time.Microsecond})
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(100 * time.Millisecond)
	end := time.Now()
	close(stop)
	wg.Wait()

	window := end.Sub(start).Seconds()
	gc, sched := s.Attribute(start.UnixNano(), end.UnixNano())
	if gc < 0 || sched < 0 || gc+sched > window+1e-9 {
		t.Fatalf("attribution out of range: gc=%g sched=%g window=%g", gc, sched, window)
	}
	if sched == 0 {
		t.Errorf("expected nonzero scheduler-wait attribution under contention")
	}
}

// TestSamplerNoGoroutineLeak starts and stops samplers and verifies the
// goroutine count returns to baseline (run with -race in CI).
func TestSamplerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s := NewSampler(Config{Interval: time.Millisecond})
		s.Start()
		s.Attribute(time.Now().Add(-time.Millisecond).UnixNano(), time.Now().UnixNano())
		s.Stop()
		s.Stop() // idempotent
	}
	// Allow scheduler cleanup before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestNilAndUnstartedSampler covers the disabled paths.
func TestNilAndUnstartedSampler(t *testing.T) {
	var nilS *Sampler
	if gc, sched := nilS.Attribute(0, 1e9); gc != 0 || sched != 0 {
		t.Errorf("nil sampler attributed gc=%g sched=%g", gc, sched)
	}
	nilS.Start()
	nilS.Stop()

	s := NewSampler(Config{})
	if gc, sched := s.Attribute(0, 1e9); gc != 0 || sched != 0 {
		t.Errorf("unstarted sampler attributed gc=%g sched=%g", gc, sched)
	}
	s.Stop() // never started: must not hang
}

// TestSamplerGauges verifies the rtprobe_* gauges are registered and
// populated when a registry is attached.
func TestSamplerGauges(t *testing.T) {
	reg := telemetry.New()
	s := NewSampler(Config{Interval: time.Millisecond, Registry: reg})
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	snap := reg.Snapshot()
	found := false
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "rtprobe_") {
			found = true
		}
		if name == "rtprobe_gomaxprocs" && v < 1 {
			t.Errorf("rtprobe_gomaxprocs = %d", v)
		}
	}
	if !found {
		t.Error("no rtprobe_* gauges registered")
	}
}

func stamps(arrival, send, first, complete int64) telemetry.Trace {
	return telemetry.Trace{ArrivalNs: arrival, SendNs: send, FirstByteNs: first, CompleteNs: complete}
}

// TestCorrelatePhaseSumInvariant: for a grid of trailers (including
// overlapping GC/sched and server sums exceeding the wire window) the
// resulting ledger must tile the measured latency within float tolerance,
// with all spans non-negative and the remainder in Other.
func TestCorrelatePhaseSumInvariant(t *testing.T) {
	cs := stamps(0, 10_000, 510_000, 520_000) // wire window 500us
	cases := []*protocol.ServerTiming{
		nil,
		{},
		{ParseNs: 20_000, StoreNs: 50_000, SerializeNs: 10_000, WriteNs: 30_000},
		{ParseNs: 20_000, StoreNs: 50_000, SerializeNs: 10_000, WriteNs: 30_000, GCNs: 40_000, SchedNs: 15_000},
		// Interference exceeding wall-clock spans (clamped proportionally).
		{ParseNs: 1_000, StoreNs: 1_000, SerializeNs: 1_000, WriteNs: 1_000, GCNs: 100_000, SchedNs: 100_000},
		// Server sum exceeding the wire window (clock skew; scaled down).
		{ParseNs: 300_000, StoreNs: 300_000, SerializeNs: 100_000, WriteNs: 100_000, GCNs: 50_000, SchedNs: 50_000},
	}
	for i, st := range cases {
		v, total, ok, _ := Correlate(cs, st)
		if !ok {
			t.Fatalf("case %d: not ok", i)
		}
		for p, d := range v {
			if d < 0 {
				t.Errorf("case %d: phase %s negative: %g", i, anatomy.Phase(p), d)
			}
		}
		if diff := math.Abs(v.Sum() - total); diff > 1e-12 {
			t.Errorf("case %d: phase sum %g != total %g (diff %g)", i, v.Sum(), total, diff)
		}
		if st != nil && v[anatomy.WireServer] != 0 {
			t.Errorf("case %d: WireServer not split: %g", i, v[anatomy.WireServer])
		}
	}
}

// TestCorrelateClamped verifies the clamp flag fires exactly when server
// spans exceed the client wire window.
func TestCorrelateClamped(t *testing.T) {
	cs := stamps(0, 10_000, 510_000, 520_000)
	if _, _, _, clamped := Correlate(cs, &protocol.ServerTiming{ParseNs: 10_000}); clamped {
		t.Error("clamped on in-window trailer")
	}
	if _, _, _, clamped := Correlate(cs, &protocol.ServerTiming{ParseNs: 900_000}); !clamped {
		t.Error("no clamp on out-of-window trailer")
	}
}

// TestCorrelateInvalidStamps mirrors anatomy.Coarse: bad stamps are
// rejected rather than producing a non-tiling ledger.
func TestCorrelateInvalidStamps(t *testing.T) {
	if _, _, ok, _ := Correlate(stamps(10, 5, 20, 30), &protocol.ServerTiming{}); ok {
		t.Error("accepted non-monotone stamps")
	}
}

// TestCorrelateAssignsPhases checks the span routing: wall spans land in the
// Srv* phases, sched in ServerQueue, and the residual in Other.
func TestCorrelateAssignsPhases(t *testing.T) {
	cs := stamps(0, 0, 1_000_000, 1_000_000) // 1ms wire window, no client spans
	st := &protocol.ServerTiming{ParseNs: 100_000, StoreNs: 200_000, SerializeNs: 50_000, WriteNs: 150_000}
	v, total, ok, clamped := Correlate(cs, st)
	if !ok || clamped {
		t.Fatalf("ok=%v clamped=%v", ok, clamped)
	}
	if total != 1e-3 {
		t.Fatalf("total = %g", total)
	}
	if v[anatomy.SrvParse] != 100e-6 || v[anatomy.SrvStore] != 200e-6 ||
		v[anatomy.SrvSerialize] != 50e-6 || v[anatomy.SrvWrite] != 150e-6 {
		t.Errorf("wall spans misrouted: %+v", v)
	}
	if math.Abs(v[anatomy.Other]-500e-6) > 1e-12 {
		t.Errorf("Other = %g, want 500us", v[anatomy.Other])
	}
}
