package loadplane

import (
	"net"
	"runtime"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/dist"
	"treadmill/internal/protocol"
	"treadmill/internal/workload"
)

// discardConn is a sink net.Conn for exercising the send path without a
// server: writes succeed instantly, reads report EOF.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// newBenchShard builds a minimal one-shard plane over sink connections,
// bypassing dialing — the unit under test is the fire path: timer fire →
// workload draw → wire encode → ring publish → coalesced flush.
func newBenchShard(tb testing.TB, conns int) *shard {
	tb.Helper()
	cfg := workload.Default()
	cfg.Keys = 10000
	cfg.ValueSize = workload.SizeDist{Kind: "constant", Value: 128}
	gen, err := workload.NewGenerator(cfg, dist.NewRNG(dist.StreamSeed(11, 0)))
	if err != nil {
		tb.Fatal(err)
	}
	p := &Plane{cfg: Config{Rate: 1000, Conns: conns}, nshards: 1, maxKey: gen.MaxKeyLen()}
	s := &shard{
		p:        p,
		gen:      gen,
		start:    time.Now(),
		periodNs: int64(time.Millisecond),
	}
	s.wheel.init(0)
	for i := 0; i < conns; i++ {
		pc := &pconn{
			nc:    discardConn{},
			slots: make([]pslot, 256),
			mask:  255,
			wbuf:  make([]byte, 0, 8<<10),
		}
		p.conns = append(p.conns, pc)
		s.conns = append(s.conns, pc)
	}
	s.dirty = make([]*pconn, 0, conns)
	return s
}

// TestSendPathZeroAlloc is the acceptance guard for the plane's hot path:
// steady-state sends must not touch the heap. Everything per-request is
// drawn from the wheel arena, the per-conn ring, and the encode buffer.
func TestSendPathZeroAlloc(t *testing.T) {
	s := newBenchShard(t, 8)
	const batch = 64
	base := int64(0)
	round := func() {
		for i := 0; i < batch; i++ {
			s.wheel.insert(base+int64(i)*1000, int32(i%len(s.conns)))
		}
		base += 100_000
		s.wheel.advance(base, s.fire)
		s.flushDirty()
		for _, pc := range s.conns {
			pc.head.Store(pc.tail.Load()) // consume the ring like a reader
		}
	}
	// Warm: grow the wheel arena and encode buffers to steady state.
	for i := 0; i < 4; i++ {
		round()
	}
	sentBefore := s.sent
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Errorf("send path allocated %.2f objects per %d-arrival batch; want 0", allocs, batch)
	}
	if s.sent == sentBefore {
		t.Fatal("no sends fired; the measurement exercised nothing")
	}
	if s.errs != 0 {
		t.Fatalf("%d send errors on sink connections", s.errs)
	}
}

// TestCompletePathZeroAlloc is the reader-side twin of TestSendPathZeroAlloc
// (which stops at the ring): a completion must not touch the heap, neither
// bare nor with the anatomy ledger and a per-request OnVec attached.
func TestCompletePathZeroAlloc(t *testing.T) {
	acfg := anatomy.DefaultConfig()
	acfg.Source = anatomy.SourceLive
	agg, err := anatomy.NewAggregator(acfg)
	if err != nil {
		t.Fatal(err)
	}
	var vecs int
	st := &protocol.ServerTiming{ParseNs: 1000, StoreNs: 1000, SerializeNs: 1000, WriteNs: 1000}
	for _, arm := range []struct {
		name string
		obs  client.Observers
	}{
		{"bare", client.Observers{}},
		{"anatomy+onvec", client.Observers{
			Anatomy: agg,
			OnVec:   func(string, anatomy.ClientStamps, float64, anatomy.Vec) { vecs++ },
		}},
	} {
		p := &Plane{cfg: Config{Observers: arm.obs, OnResult: func(*client.Result) {}}}
		pc := &pconn{slots: make([]pslot, 64), mask: 63}
		round := func() {
			nowNs := time.Now().UnixNano()
			for i := 0; i < 64; i++ {
				tail := pc.tail.Load()
				pc.slots[tail&pc.mask] = pslot{op: protocol.OpGet, arrivalNs: nowNs - 2e6, startNs: nowNs - 1e6, sendNs: nowNs - 1e6}
				pc.tail.Store(tail + 1)
				if !p.complete(pc, st) {
					t.Fatal("ring desync")
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s: completion path allocated %.2f objects per 64 completions; want 0", arm.name, allocs)
		}
		if p.completed.Load() == 0 {
			t.Fatalf("%s: nothing completed", arm.name)
		}
	}
	if vecs == 0 || agg.Count() == 0 {
		t.Fatalf("observers never ran: %d vecs, %d anatomy records", vecs, agg.Count())
	}
}

// BenchmarkShardSend measures the per-request cost of the full fire path
// and reports allocs/op — CI asserts the report says 0 allocs/op.
func BenchmarkShardSend(b *testing.B) {
	s := newBenchShard(b, 64)
	when := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		when += 1000
		s.wheel.insert(when, int32(i&63))
		s.wheel.advance(when, s.fire)
		if i&63 == 63 {
			s.flushDirty()
			for _, pc := range s.conns {
				pc.head.Store(pc.tail.Load())
			}
		}
	}
	b.StopTimer()
	if s.errs != 0 {
		b.Fatalf("%d send errors", s.errs)
	}
	b.ReportMetric(float64(s.sent)/b.Elapsed().Seconds(), "req/s")
}

// TestSpinWaitTracksGOMAXPROCS is the regression test for the stale
// spin-wait decision: it used to be captured at package init, so a
// harness lowering GOMAXPROCS to 1 mid-process (runner.LiveStudy does,
// per factorial cell) kept spinning on the only CPU.
func TestSpinWaitTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(1)
	if SpinWaitNow() {
		t.Error("SpinWaitNow() = true with GOMAXPROCS=1; would spin on the only CPU")
	}
	runtime.GOMAXPROCS(2)
	if !SpinWaitNow() {
		t.Error("SpinWaitNow() = false with GOMAXPROCS=2; gives up affordable precision")
	}
}
