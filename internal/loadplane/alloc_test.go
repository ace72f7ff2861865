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
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// sinkConn is a net.Conn for exercising the send path without a server:
// writes succeed instantly (kept only when record is set), reads report
// EOF.
type sinkConn struct {
	record bool
	bytes  []byte
}

func (c *sinkConn) Write(b []byte) (int, error) {
	if c.record {
		c.bytes = append(c.bytes, b...)
	}
	return len(b), nil
}

func (*sinkConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (*sinkConn) Close() error                     { return nil }
func (*sinkConn) LocalAddr() net.Addr              { return nil }
func (*sinkConn) RemoteAddr() net.Addr             { return nil }
func (*sinkConn) SetDeadline(time.Time) error      { return nil }
func (*sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (*sinkConn) SetWriteDeadline(time.Time) error { return nil }

// newBenchPlane builds a plane over sink connections, bypassing dialing —
// the unit under test is the fire path: dealt chunk → workload draw → wire
// encode → ring publish → coalesced flush. A connection's ring may grow to
// ring slots. Connection c belongs to shard c%nshards, as in New; every
// shard draws from the same workload stream.
func newBenchPlane(tb testing.TB, conns, nshards, ring int) *Plane {
	tb.Helper()
	cfg := workload.Default()
	cfg.Keys = 10000
	cfg.ValueSize = workload.SizeDist{Kind: "constant", Value: 128}
	p := &Plane{
		cfg:       Config{Rate: 1000, Conns: conns, Seed: 11},
		nshards:   nshards,
		chunkPool: make(chan *chunk, nshards*(dealerRunway+2)),
	}
	start := time.Now()
	for i := 0; i < nshards; i++ {
		gen, err := workload.NewGenerator(cfg, dist.NewRNG(dist.StreamSeed(11, 0)))
		if err != nil {
			tb.Fatal(err)
		}
		p.maxKey = gen.MaxKeyLen()
		p.shards = append(p.shards, &shard{
			p:        p,
			gen:      gen,
			chunks:   make(chan *chunk, dealerRunway),
			start:    start,
			periodNs: int64(time.Millisecond),
		})
	}
	for c := 0; c < conns; c++ {
		pc := newPconn(&sinkConn{}, ring)
		p.conns = append(p.conns, pc)
		s := p.shards[c%nshards]
		s.conns = append(s.conns, pc)
		s.dirty = make([]*pconn, 0, len(s.conns))
	}
	return p
}

// newBenchShard is newBenchPlane's single shard with rings bounded at 256.
func newBenchShard(tb testing.TB, conns int) *shard {
	return newBenchPlane(tb, conns, 1, 256).shards[0]
}

// consume empties every ring like a reader would.
func consume(s *shard) {
	for _, pc := range s.conns {
		pc.head.Store(pc.tail.Load())
	}
}

// TestSendPathZeroAlloc is the acceptance guard for the plane's hot path:
// steady-state sends must not touch the heap. Everything per-request is
// drawn from recycled chunks, the per-conn ring, and the encode buffer.
func TestSendPathZeroAlloc(t *testing.T) {
	s := newBenchShard(t, 8)
	const batch = 64
	base := int64(0)
	round := func() {
		c := s.p.getChunk() // dealt as the dealer does, in a recycled chunk
		for i := 0; i < batch; i++ {
			c.off = append(c.off, base+int64(i)*1000)
			c.conn = append(c.conn, int32(i%len(s.conns)))
		}
		s.chunks <- c
		base += 100_000
		s.fireDue(base)
		s.flushDirty()
		consume(s)
	}
	// Warm: fill the chunk pool and grow encode buffers to steady state.
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
			OnVec:   func(telemetry.Trace, float64, anatomy.Vec) { vecs++ },
		}},
	} {
		p := &Plane{cfg: Config{Observers: arm.obs, OnResult: func(*client.Result) {}}}
		pc := newPconn(nil, 64)
		round := func() {
			nowNs := time.Now().UnixNano()
			for i := 0; i < 64; i++ {
				tail := pc.tail.Load()
				*pc.slot(tail) = pslot{op: protocol.OpGet, arrivalNs: nowNs - 2e6, startNs: nowNs - 1e6}
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

// BenchmarkShardSend measures the per-request cost of the full send path —
// deal the arrival into a recycled chunk, fire it, flush — and reports
// allocs/op; CI asserts the report says 0 allocs/op.
func BenchmarkShardSend(b *testing.B) {
	s := newBenchShard(b, 64)
	when := int64(0)
	var c *chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		when += 1000
		if c == nil {
			c = s.p.getChunk()
		}
		c.off = append(c.off, when)
		c.conn = append(c.conn, int32(i&63))
		if i&63 == 63 || i == b.N-1 {
			s.chunks <- c
			c = nil
			s.fireDue(when)
			s.flushDirty()
			consume(s)
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
