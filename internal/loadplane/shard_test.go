package loadplane

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

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
	durNs := int64(1400 * time.Millisecond)
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
					when := pc.slots[h&pc.mask].arrivalNs
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

// TestRunHeapBounded: a run allocates its dealt chunks once — at most
// dealerRunway+2 per shard are ever live, and exhausted ones are reused —
// plus a fixed slack, however long the schedule. The run deals more
// chunks than that so reuse is exercised. One P keeps the shard from
// spinning, so the test holds at most one CPU.
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
	p, err := New(Config{
		Addr: addr, Rate: rate, Conns: 1, Shards: nshards, Workload: wl, Seed: 1,
		MaxInflight: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dealt := 0
	Schedule(1, rate, 1, dur.Nanoseconds(), func(int64, int32) bool { dealt++; return true })
	if live := nshards * (dealerRunway + 2) * chunkArrivals; dealt <= live {
		t.Fatalf("schedule has %d arrivals; the guard needs more than the %d live chunks hold", dealt, live)
	}

	ready.Wait()
	time.Sleep(20 * time.Millisecond) // let the readers allocate their buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
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
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(nshards*(dealerRunway+2)*chunkBytes + slack)
	t.Logf("%d arrivals, %d bytes allocated in Run (budget %d)", dealt, got, budget)
	if got > budget {
		t.Errorf("Run allocated %d bytes; want <= %d (%d chunks of %d B + %d slack)",
			got, budget, nshards*(dealerRunway+2), chunkBytes, slack)
	}
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
