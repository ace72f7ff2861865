package sim

import (
	"cmp"
	"runtime"
	"slices"
	"testing"

	"treadmill/internal/dist"
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

// refEvent is one pending event of the reference queue. seq is the order of
// the At calls, which is what the engine's own tie-break counter records.
type refEvent struct {
	time float64
	seq  int
}

// engineDiff drives an Engine and a reference — a slice kept sorted by
// (time, seq) — through one schedule in which handlers schedule successors,
// and checks every executed event and every Pending() against the reference.
type engineDiff struct {
	t      *testing.T
	eng    Engine
	ref    []refEvent
	rng    *dist.RNG
	seq    int  // At calls so far
	budget int  // successors handlers may still schedule
	nested bool // handlers may call Step and Run themselves
	depth  int
	ran    int
	sole   int // events run while they were the heap's only entry
}

func (d *engineDiff) at(tm float64) {
	d.seq++
	ev := refEvent{tm, d.seq}
	d.eng.At(tm, func() { d.run(ev) })
	i, _ := slices.BinarySearchFunc(d.ref, ev, func(a, b refEvent) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	d.ref = slices.Insert(d.ref, i, ev)
}

func (d *engineDiff) checkPending() {
	d.t.Helper()
	if got := d.eng.Pending(); got != len(d.ref) {
		d.t.Fatalf("after %d events: Pending() = %d, reference holds %d", d.ran, got, len(d.ref))
	}
}

// run is the handler of ev.
func (d *engineDiff) run(ev refEvent) {
	if len(d.ref) == 0 || d.ref[0] != ev || d.eng.Now() != ev.time {
		d.t.Fatalf("event %d ran %+v at %g, reference expects %+v", d.ran, ev, d.eng.Now(), d.ref[:min(1, len(d.ref))])
	}
	d.ref = d.ref[1:]
	d.ran++
	d.checkPending()
	if len(d.ref) == 0 {
		d.sole++
	}
	successors := d.rng.Intn(4)
	if len(d.ref) == 0 && successors == 0 {
		successors = 1 // keep the chain alive until the budget is spent
	}
	for ; successors > 0 && d.budget > 0; successors-- {
		d.budget--
		now := d.eng.Now()
		tm := now // a tie with whatever else is pending at this instant
		if n := len(d.ref); n > 0 {
			switch d.rng.Intn(4) {
			case 1: // the new earliest, ahead of the current second-earliest
				tm = now + (d.ref[0].time-now)/2
			case 2: // mid-queue, tying with an entry already there
				tm = d.ref[n/2].time
			case 3: // past everything
				tm = d.ref[n-1].time + 1e-4
			}
		}
		d.at(tm)
		d.checkPending()
	}
	if d.nested && d.depth < 3 && d.rng.Intn(8) == 0 {
		d.depth++
		if d.rng.Intn(2) == 0 {
			d.eng.Step()
		} else {
			d.eng.Run(d.eng.Now()) // everything else due at this instant
		}
		d.depth--
		d.checkPending()
	}
}

// TestEngineDifferential runs the engine against the reference order with
// scheduling from inside handlers, the path that refills the root in place
// (TestEngineHeapStressOrdering only preloads, so it never takes it):
// successors at Now(), ahead of every pending entry, mid-queue and past
// everything, interleaved with preloaded events on a coarse grid of tying
// times; a chain that starts as the heap's only entry, so the hole is the whole
// heap; and handlers that call Step and Run themselves.
func TestEngineDifferential(t *testing.T) {
	for _, tc := range []struct {
		name            string
		preload, budget int
		nested          bool
	}{
		{"sole-entry-chain", 1, 200, false},
		{"preloaded", 1500, 3000, false},
		{"nested-step-run", 1500, 3000, true},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			d := &engineDiff{t: t, rng: dist.NewRNG(seed), budget: tc.budget, nested: tc.nested}
			for i := 0; i < tc.preload; i++ {
				d.at(float64(d.rng.Intn(97)) * 1e-4)
			}
			d.checkPending()
			d.eng.Run(1e9)
			want := tc.preload + tc.budget
			if d.ran != want || len(d.ref) != 0 || d.eng.Pending() != 0 || d.eng.Processed() != uint64(want) {
				t.Fatalf("%s seed %d: ran %d of %d events (Processed %d), reference holds %d, Pending %d",
					tc.name, seed, d.ran, want, d.eng.Processed(), len(d.ref), d.eng.Pending())
			}
			if d.sole == 0 || tc.preload == 1 && d.sole < 2 {
				t.Errorf("%s seed %d: %d events ran as the heap's only entry; the case is not exercised", tc.name, seed, d.sole)
			}
		}
	}
}

// clusterLoads are the load shapes the allocation and recycling tests cover:
// every way a client-issued request can end (inline or at the poll, open loop
// or handing over to a closed-loop successor, at once or after a think timer).
type clusterLoad struct {
	name   string
	mutate func(*ClusterConfig)
	start  func(*Client) error
	// conns is a closed loop's connections per client; 0 for an open loop.
	conns int
}

// begin builds the load's 8-client cluster, has every completion call
// onComplete with the client's index, and starts the load.
func (l clusterLoad) begin(t *testing.T, onComplete func(i int, c *Client, r *Request)) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig(8)
	l.mutate(&cfg)
	cfg.Server.CPU.Governor = Performance
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cl.Clients {
		c.OnComplete = func(r *Request) { onComplete(i, c, r) }
		if err := l.start(c); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

var clusterLoads = []clusterLoad{
	{"default", func(*ClusterConfig) {},
		func(c *Client) error { return c.StartOpenLoop(600000.0/8, 8) }, 0},
	{"fanout-8", func(c *ClusterConfig) { c.Server = FanoutServerConfig(8) },
		func(c *Client) error { return c.StartOpenLoop(200000.0/8, 8) }, 0},
	{"batched-callback", func(c *ClusterConfig) {
		for i := range c.Clients {
			c.Clients[i].Config.Callback = BatchedCallback
		}
	}, func(c *Client) error { return c.StartOpenLoop(300000.0/8, 8) }, 0},
	{"closed-loop", func(*ClusterConfig) {},
		func(c *Client) error { return c.StartClosedLoop(8, 0) }, 8},
	{"closed-loop-think", func(*ClusterConfig) {},
		func(c *Client) error { return c.StartClosedLoop(8, 40e-6) }, 8},
}

// TestClusterRequestAllocs is the request path's allocation budget: once a
// cluster's event arena, run queues and Request free lists have grown to
// their working size, a simulated request allocates nothing — no closure per
// hop, and its Request is a recycled one. The bound of 0.05 leaves room for
// amortised queue growth under bursts; before the typed continuations the
// figure was 20, before recycling 1.
func TestClusterRequestAllocs(t *testing.T) {
	for _, tc := range clusterLoads {
		done := 0
		cl := tc.begin(t, func(int, *Client, *Request) { done++ })
		cl.Run(0.02) // warm: grow the arena, the heap, every run queue and free list
		warm := done
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cl.Run(0.07)
		runtime.ReadMemStats(&m1)
		n := done - warm
		if n < 5000 {
			t.Fatalf("%s: only %d requests completed", tc.name, n)
		}
		if per := float64(m1.Mallocs-m0.Mallocs) / float64(n); per > 0.05 {
			t.Errorf("%s: %.3f allocations per simulated request, want <= 0.05", tc.name, per)
		} else {
			t.Logf("%s: %.3f allocations per simulated request", tc.name, per)
		}
	}
}

// TestRequestRecycling: records really are reused. Over tens of thousands of
// completions OnComplete sees no more distinct *Request than the clients ever
// had in flight at once: per open-loop client, the peak Outstanding() a
// callback observed plus the request completing; per closed-loop client, one
// per connection (plus one of slack), whether or not a think timer holds the
// record between uses. After StopAll and a drain nothing is in flight and
// every record is back on its client's free list exactly once.
func TestRequestRecycling(t *testing.T) {
	for _, tc := range clusterLoads {
		seen := make(map[*Request]bool)
		var peak [8]int
		done := 0
		cl := tc.begin(t, func(i int, c *Client, r *Request) {
			done++
			seen[r] = true
			peak[i] = max(peak[i], c.Outstanding())
		})
		for horizon := 0.01; done < 50000; horizon += 0.01 {
			cl.Run(horizon)
		}
		cl.StopAll()
		cl.Run(cl.Eng.Now() + 0.01)
		if n := cl.TotalOutstanding(); n != 0 {
			t.Fatalf("%s: %d requests still in flight after the drain window", tc.name, n)
		}
		bound := 0
		for _, p := range peak {
			if tc.conns > 0 {
				p = tc.conns
			}
			bound += p + 1
		}
		if len(seen) > bound {
			t.Errorf("%s: %d completions used %d distinct records, want <= %d", tc.name, done, len(seen), bound)
		} else {
			t.Logf("%s: %d completions on %d distinct records (bound %d)", tc.name, done, len(seen), bound)
		}
		free := 0
		for _, c := range cl.Clients {
			for _, r := range c.free {
				if !seen[r] {
					t.Fatalf("%s: client %d's free list holds a record twice, or one OnComplete never saw", tc.name, c.ID)
				}
				delete(seen, r)
				free++
			}
		}
		if len(seen) != 0 {
			t.Errorf("%s: %d completed records are on no free list after the drain (%d are)", tc.name, len(seen), free)
		}
	}
}
