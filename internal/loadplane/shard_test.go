package loadplane

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"treadmill/internal/client"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// TestShardFireOrder drives the real dealer over a Schedule into sink
// connections and steps each shard's fire loop at chosen clock values:
// nothing fires before it is due, everything due fires — across chunk
// boundaries when the wake is several chunks late — in exactly the
// per-shard schedule order, and exhausted chunks go back to the pool.
func TestShardFireOrder(t *testing.T) {
	const conns, nshards = 6, 2
	p := newBenchPlane(t, conns, nshards, 8192)
	p.cfg.Rate = 20000
	// About 3.5 chunks per shard.
	durNs := int64(float64(7*chunkArrivals*nshards/2) / p.cfg.Rate * 1e9)
	for _, pc := range p.conns {
		pc.nc.(*sinkConn).record = true
	}

	// The per-shard schedules. The dealer runs synchronously below, so
	// each shard's share must fit its runway; the late wake skips three
	// whole chunks.
	want := make([][]int64, nshards)
	wantConn := make([][]int32, nshards)
	Schedule(p.cfg.Seed, p.cfg.Rate, conns, durNs, func(off int64, conn int32) bool {
		si := int(conn) % nshards
		want[si] = append(want[si], off)
		wantConn[si] = append(wantConn[si], conn)
		return true
	})
	const lateIdx = 3*chunkArrivals + 50
	for si := range want {
		if n := len(want[si]); n <= lateIdx || n > dealerRunway*chunkArrivals {
			t.Fatalf("shard %d has %d arrivals; the test needs (%d, %d]", si, n, lateIdx, dealerRunway*chunkArrivals)
		}
	}
	p.deal(context.Background(), durNs)

	pooled := 0
	for si, s := range p.shards {
		e := want[si]
		fired := make([][]int64, len(s.conns)) // per local conn, in fire order
		step := func(nowNs int64) {
			t.Helper()
			s.fireDue(nowNs)
			s.flushDirty()
			for li, pc := range s.conns {
				for h := pc.head.Load(); h != pc.tail.Load(); h++ {
					when := pc.slot(h).arrivalNs
					if when > nowNs {
						t.Fatalf("shard %d: arrival at %d fired at clock %d", si, when, nowNs)
					}
					fired[li] = append(fired[li], when)
				}
				pc.head.Store(pc.tail.Load())
			}
			due := 0
			for due < len(e) && e[due] <= nowNs {
				due++
			}
			if s.sent != uint64(due) {
				t.Fatalf("shard %d at clock %d: fired %d, %d due", si, nowNs, s.sent, due)
			}
		}

		step(e[0] - 1)
		if s.cur == nil || s.next != 0 {
			t.Fatalf("shard %d took no chunk on an early wake", si)
		}
		step(e[100])
		step(e[lateIdx])
		if got := len(p.chunkPool) - pooled; got != 3 {
			t.Fatalf("shard %d: %d chunks back in the pool after crossing 3 boundaries", si, got)
		}
		step(math.MaxInt64)
		if got := len(p.chunkPool) - pooled; got != 4 || s.cur != nil {
			t.Fatalf("shard %d: %d of 4 chunks pooled after the last arrival (cur %v)", si, got, s.cur)
		}
		pooled += 4
		step(math.MaxInt64) // the dealer is done: nothing left to take
		if s.errs != 0 {
			t.Fatalf("shard %d: %d send errors", si, s.errs)
		}

		// Replay the shard's schedule through a fresh generator on the
		// same stream: every connection must have received exactly the
		// requests drawn in schedule order, stamped with their arrivals.
		ref := newBenchPlane(t, conns, nshards, 8192).shards[si]
		for _, pc := range ref.conns {
			pc.nc.(*sinkConn).record = true
		}
		wantFired := make([][]int64, len(s.conns))
		for i, off := range e {
			li := int(wantConn[si][i]) / nshards
			ref.gen.NextLean(&ref.lean)
			ref.conns[li].encode(ref.gen, &ref.lean, ref.p.maxKey)
			wantFired[li] = append(wantFired[li], off)
		}
		for li, pc := range s.conns {
			ref.conns[li].flush()
			if len(fired[li]) != len(wantFired[li]) {
				t.Fatalf("shard %d conn %d: %d fired, %d scheduled", si, li, len(fired[li]), len(wantFired[li]))
			}
			for i := range fired[li] {
				if fired[li][i] != wantFired[li][i] {
					t.Fatalf("shard %d conn %d send %d: arrival %d, schedule says %d", si, li, i, fired[li][i], wantFired[li][i])
				}
			}
			if got, exp := pc.nc.(*sinkConn).bytes, ref.conns[li].nc.(*sinkConn).bytes; !bytes.Equal(got, exp) {
				t.Fatalf("shard %d conn %d: wire bytes differ from the schedule-order replay (%d vs %d bytes)", si, li, len(got), len(exp))
			}
		}
	}
}

// TestRunHeapBounded is the plane's footprint guard: New and Run together
// allocate the dealt chunks once — at most dealerRunway+2 per shard are
// ever live, and exhausted ones are reused — plus the rings of the deepest
// pipeline the run reached and a fixed slack for the connection, its
// buffers and the generator, however long the schedule and however deep
// MaxInflight would let the pipeline go (1<<14 slots here: 384 KB, were the
// ring sized by the bound). The run deals more chunks than are live so
// reuse is exercised. One P keeps the shard from spinning, so the test
// holds at most one CPU; a kernel sleep can then hold that P for
// milliseconds, which is why the pipeline may deepen at all.
func TestRunHeapBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	addr, ready := startEndResponder(t, 1)
	const nshards, rate = 1, 25000
	const dur = 1200 * time.Millisecond
	wl := workload.Config{
		Name:        "heap-get",
		GetFraction: 1,
		Keys:        1000,
		ValueSize:   workload.SizeDist{Kind: "constant", Value: 64},
		KeyPrefix:   "hg",
	}
	dealt := 0
	Schedule(1, rate, 1, dur.Nanoseconds(), func(int64, int32) bool { dealt++; return true })
	if live := nshards * (dealerRunway + 2) * chunkArrivals; dealt <= live {
		t.Fatalf("schedule has %d arrivals; the guard needs more than the %d live chunks hold", dealt, live)
	}

	// depth is the deepest pipeline seen at a completion, counting the
	// request just completed: no shallower than the deepest the ring held.
	var conn atomic.Pointer[pconn]
	depth := 0
	onResult := func(*client.Result) {
		if pc := conn.Load(); pc != nil {
			depth = max(depth, int(pc.inflight())+1)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := New(Config{
		Addr: addr, Rate: rate, Conns: 1, Shards: nshards, Workload: wl, Seed: 1,
		MaxInflight: 1 << 14,
		OnResult:    onResult,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn.Store(p.conns[0])
	ready.Wait()
	stats, err := p.Run(context.Background(), dur)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent+stats.Errors == 0 || stats.Completed != stats.Sent {
		t.Fatalf("stats = %+v", stats)
	}
	const chunkBytes = chunkArrivals * (8 + 4)
	const slack = 64 << 10
	// A ring grown to n slots was allocated at 64, 128, ..., n: under 2n.
	ring := initialRing
	for ring < depth {
		ring <<= 1
	}
	ringBytes := 2 * ring * int(unsafe.Sizeof(pslot{}))
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(nshards*(dealerRunway+2)*chunkBytes + ringBytes + slack)
	t.Logf("%d arrivals, pipeline depth %d, %d bytes allocated by New and Run (budget %d)", dealt, depth, got, budget)
	if got > budget {
		t.Errorf("New and Run allocated %d bytes; want <= %d (%d chunks of %d B + %d B of rings for a %d-deep pipeline + %d slack)",
			got, budget, nshards*(dealerRunway+2), chunkBytes, ringBytes, depth, slack)
	}
}

// TestRingGrowth holds a connection's replies until its pipeline is deeper
// than the initial ring, then releases them. In "grow" (bound 1024) the
// first 40 are answered at once, so the ring grows around a moving head
// and copies wrapped slots; every request must complete, in FIFO order,
// with its own schedule instant and fire stamp, and nothing is refused. In
// "full" (bound 256) the replies are held until a send is refused: the
// pipeline must by then hold exactly the bound, every arrival before it
// must have gone out, and every refusal counts as pipeline_full.
func TestRingGrowth(t *testing.T) {
	const rate, seed = 10000, 3
	const dur = 200 * time.Millisecond
	wl := workload.Config{
		Name:        "grow-get",
		GetFraction: 1,
		Keys:        1000,
		ValueSize:   workload.SizeDist{Kind: "constant", Value: 64},
		KeyPrefix:   "gr",
	}
	var sched []int64
	Schedule(seed, rate, 1, dur.Nanoseconds(), func(off int64, _ int32) bool { sched = append(sched, off); return true })
	for _, tc := range []struct {
		name  string
		limit int // MaxInflight
		warm  int // requests answered at once before the hold
		hold  int // replies held before release; 0 holds until a send is refused
	}{
		{"grow", 1024, 40, 300},
		{"full", 256, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, r := startHoldResponder(t, tc.warm)
			reg := telemetry.New()
			tracer, err := telemetry.NewTracer(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			var starts []int64 // OnResult's fire stamps, in completion order
			p, err := New(Config{
				Addr: addr, Rate: rate, Conns: 1, Shards: 1, Workload: wl, Seed: seed,
				MaxInflight: tc.limit,
				Telemetry:   reg,
				Observers:   client.Observers{Tracer: tracer},
				OnResult:    func(res *client.Result) { starts = append(starts, res.Start.UnixNano()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			pipeFull := reg.Counter(metricsPrefix + ".pipeline_full")
			var stats Stats
			ran := make(chan error, 1)
			go func() {
				var err error
				stats, err = p.Run(context.Background(), dur)
				ran <- err
			}()

			want := tc.hold
			if want == 0 {
				want = tc.limit
			}
			deadline := time.Now().Add(10 * time.Second)
			for r.heldReplies() < want || (tc.hold == 0 && pipeFull.Value() == 0) {
				if time.Now().After(deadline) {
					r.release()
					t.Fatalf("holding %d replies, %d sends refused; want %d held", r.heldReplies(), pipeFull.Value(), want)
				}
				time.Sleep(200 * time.Microsecond)
			}
			held := r.release()
			if tc.hold == 0 && held != tc.limit {
				t.Errorf("%d replies held when a send was refused; want the bound, %d", held, tc.limit)
			}
			if err := <-ran; err != nil {
				t.Fatal(err)
			}

			if stats.Completed != stats.Sent || stats.Sent+stats.Errors != uint64(len(sched)) {
				t.Fatalf("stats = %+v for %d scheduled arrivals", stats, len(sched))
			}
			if stats.Errors != pipeFull.Value() || tc.hold > 0 && stats.Errors != 0 {
				t.Fatalf("%d errors, %d pipeline_full", stats.Errors, pipeFull.Value())
			}
			slots := len(p.conns[0].ring.Load().slots)
			if g := reg.Gauge(metricsPrefix + ".ring_slots").Value(); g != int64(slots) || slots < want || slots > tc.limit {
				t.Errorf("ring of %d slots (gauge %d) after holding %d; bound %d", slots, g, want, tc.limit)
			}

			// Completions in FIFO order: the scheduled arrivals that went
			// out, in schedule order, each with the fire stamp its
			// OnResult saw. Before the first refusal none may be skipped.
			recs := tracer.Records()
			if uint64(len(recs)) != stats.Completed || len(starts) != len(recs) {
				t.Fatalf("%d traces, %d results for %d completions", len(recs), len(starts), stats.Completed)
			}
			j := 0
			for i, tr := range recs {
				off := tr.ArrivalNs - p.startUnixNs
				for j < len(sched) && sched[j] != off && (tc.hold == 0 && i >= tc.limit) {
					j++
				}
				if j == len(sched) || sched[j] != off {
					t.Fatalf("completion %d: arrival offset %d is not the next scheduled one", i, off)
				}
				j++
				if tr.EnqueueNs != starts[i] || tr.SendNs != tr.EnqueueNs {
					t.Fatalf("completion %d: fire stamp %d, send %d, OnResult start %d", i, tr.EnqueueNs, tr.SendNs, starts[i])
				}
				if tr.EnqueueNs < tr.ArrivalNs || tr.FirstByteNs < tr.EnqueueNs {
					t.Fatalf("completion %d: stamps out of order: %+v", i, tr)
				}
			}
		})
	}
}

// holdResponder answers one connection's request lines with "END\r\n" (a
// GET miss): the first warm at once, then none until release, then every
// held reply and each later one at once.
type holdResponder struct {
	mu       sync.Mutex
	bw       *bufio.Writer
	held     int
	released bool
}

func startHoldResponder(t *testing.T, warm int) (string, *holdResponder) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &holdResponder{}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReaderSize(c, 4096)
		r.mu.Lock()
		r.bw = bufio.NewWriterSize(c, 4096)
		r.mu.Unlock()
		for n := 1; ; n++ {
			if _, err := br.ReadSlice('\n'); err != nil {
				return
			}
			r.mu.Lock()
			if n > warm && !r.released {
				r.held++
			} else if _, err := r.bw.WriteString("END\r\n"); err != nil || br.Buffered() == 0 && r.bw.Flush() != nil {
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()
		}
	}()
	return ln.Addr().String(), r
}

func (r *holdResponder) heldReplies() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held
}

// release sends every held reply and answers at once from then on; it
// returns how many replies it held.
func (r *holdResponder) release() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.released && r.bw != nil {
		r.released = true
		for i := 0; i < r.held; i++ {
			r.bw.WriteString("END\r\n")
		}
		r.bw.Flush()
	}
	return r.held
}

// startEndResponder answers every request line with "END\r\n" (a GET
// miss), allocating nothing once a connection is being served; ready is
// done when conns connections are. Its goroutines end when the client
// closes its connections.
func startEndResponder(t *testing.T, conns int) (addr string, ready *sync.WaitGroup) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ready = new(sync.WaitGroup)
	ready.Add(conns)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReaderSize(c, 4096)
				bw := bufio.NewWriterSize(c, 4096)
				ready.Done()
				for {
					if _, err := br.ReadSlice('\n'); err != nil {
						return
					}
					if _, err := bw.WriteString("END\r\n"); err != nil {
						return
					}
					if br.Buffered() == 0 && bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), ready
}
