package sim

import (
	"runtime"
	"testing"
)

// TestEngineScheduleZeroAlloc proves the schedule/dispatch hot path does not
// allocate per event once the heap's backing store has grown — including
// through the func() adapter, whose conversion to the handler interface must
// not box: a recurring event chain that keeps a steady pending count must run
// at 0 allocs per event.
func TestEngineScheduleZeroAlloc(t *testing.T) {
	eng := &Engine{}
	var tick func()
	tick = func() { eng.Schedule(1e-6, tick) }
	// Warm the heap to its high-water size.
	for i := 0; i < 64; i++ {
		eng.Schedule(1e-6, tick)
	}
	eng.Run(1e-3)

	const events = 1000
	allocs := testing.AllocsPerRun(10, func() {
		horizon := eng.Now() + events*1e-6/64
		eng.Run(horizon)
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/dispatch allocated %.1f times per Run, want 0", allocs)
	}
}

// TestEngineArenaReuse verifies popped slots are reused: popping and
// re-scheduling one event at a time must not grow the event storage.
func TestEngineArenaReuse(t *testing.T) {
	eng := &Engine{}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			eng.Schedule(1e-6, tick)
		}
	}
	eng.Schedule(1e-6, tick)
	eng.Run(1)
	if n != 10000 {
		t.Fatalf("ran %d events", n)
	}
	if got := len(eng.arena); got > 2 {
		t.Errorf("event storage grew to %d slots for a 1-deep event chain; popped slots not reused", got)
	}
}

// TestEngineHeapStressOrdering cross-checks the 4-ary heap against a
// reference sort under a deterministic pseudo-random schedule, including
// same-time FIFO ties.
func TestEngineHeapStressOrdering(t *testing.T) {
	eng := &Engine{}
	const n = 5000
	var got []float64
	x := uint64(12345)
	for i := 0; i < n; i++ {
		// xorshift: cheap deterministic times over a small grid to force ties.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tm := float64(x%97) * 1e-4
		eng.At(tm, func() { got = append(got, eng.Now()) })
	}
	eng.Run(1)
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d ran at %g after %g", i, got[i], got[i-1])
		}
	}
	if eng.Pending() != 0 {
		t.Errorf("pending = %d after drain", eng.Pending())
	}
}

// TestClusterRequestAllocs is the request path's allocation budget: once a
// cluster's event arena and run queues have grown to their working size, a
// simulated request allocates its Request and nothing else — no closure per
// hop. The bound of 2 leaves room for amortised queue growth under bursts;
// before the typed continuations the figure was 20.
func TestClusterRequestAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		server ServerConfig
		rate   float64
	}{
		{"default", DefaultServerConfig(), 600000},
		{"fanout-8", FanoutServerConfig(8), 200000},
	} {
		cfg := DefaultClusterConfig(8)
		cfg.Server = tc.server
		cfg.Server.CPU.Governor = Performance
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for _, c := range cl.Clients {
			c.OnComplete = func(*Request) { done++ }
			if err := c.StartOpenLoop(tc.rate/8, 8); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.02) // warm: grow the arena, the heap and every run queue
		warm := done
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cl.Run(0.07)
		runtime.ReadMemStats(&m1)
		n := done - warm
		if n < 5000 {
			t.Fatalf("%s: only %d requests completed", tc.name, n)
		}
		if per := float64(m1.Mallocs-m0.Mallocs) / float64(n); per > 2.0 {
			t.Errorf("%s: %.2f allocations per simulated request, want <= 2", tc.name, per)
		} else {
			t.Logf("%s: %.3f allocations per simulated request", tc.name, per)
		}
	}
}
