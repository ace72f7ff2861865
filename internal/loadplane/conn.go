package loadplane

import (
	"bufio"
	"net"
	"sync/atomic"
	"time"

	"treadmill/internal/client"
	"treadmill/internal/protocol"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// pslot is one in-flight request's stamps, held in the connection's SPSC
// pending ring. The shard (single producer) fills a slot before publishing
// the tail; the reader (single consumer) copies it out before advancing
// the head — responses arrive in request order on a pipelined connection,
// so FIFO matching is exact.
type pslot struct {
	op        protocol.Op
	arrivalNs int64 // scheduled (intended) send instant
	startNs   int64 // actual fire instant
}

func (s *pslot) stamps(firstByteNs int64) telemetry.Trace {
	// The fire instant is also the send stamp: it is taken before encode,
	// so the coalesced flush syscall lands inside the wire+server span,
	// exactly like the classic client's write.
	return telemetry.Trace{ArrivalNs: s.arrivalNs, EnqueueNs: s.startNs, SendNs: s.startNs, FirstByteNs: firstByteNs}
}

// pring is one allocation of a connection's pending ring; its length is a
// power of two.
type pring struct {
	slots []pslot
	mask  uint32
}

func newPring(n uint32) *pring { return &pring{slots: make([]pslot, n), mask: n - 1} }

// initialRing is the slot count a pending ring starts with. The shard
// doubles a ring its in-flight requests fill, up to the connection's limit,
// so a connection holds slots for the deepest pipeline it reached, not for
// MaxInflight.
const initialRing = 64

// pconn is a multiplexed load-plane connection: no per-request heap
// allocations, no per-request goroutine handoff — a manual write buffer
// the shard coalesces co-due requests into, and a pending ring the reader
// drains.
type pconn struct {
	nc net.Conn
	// ring holds the pending slots. The shard (grow) replaces it with a
	// larger copy before publishing the tail that first needs the room and
	// never writes the old ring again, so a reader that loads the tail and
	// then the ring finds every slot below that tail in the ring it got.
	ring  atomic.Pointer[pring]
	limit uint32        // in-flight bound: MaxInflight rounded up to a power of two
	head  atomic.Uint32 // consumer (reader) position
	tail  atomic.Uint32 // producer (shard) position

	wbuf []byte // encode buffer; wlen bytes are pending flush
	wlen int

	dirty bool // queued in the shard's flush list this batch
	timed bool // server-timing trailers negotiated on this conn

	dead       atomic.Bool // no further sends; reader exiting
	readerDone atomic.Bool
	swept      bool // drain sweep already reclaimed this conn's ring

	// Reader-owned reusable state: one ServerTiming and one Result per
	// connection keep the completion path allocation-free.
	st     protocol.ServerTiming
	result client.Result
}

// newPconn wraps nc with a pending ring that may grow to limit slots (a
// power of two).
func newPconn(nc net.Conn, limit int) *pconn {
	pc := &pconn{nc: nc, limit: uint32(limit), wbuf: make([]byte, 0, writeBuf)}
	pc.ring.Store(newPring(uint32(min(initialRing, limit))))
	return pc
}

func (pc *pconn) inflight() uint32 { return pc.tail.Load() - pc.head.Load() }

func (pc *pconn) full() bool { return pc.inflight() >= pc.limit }

// slot returns request h's pending slot. The caller loaded a tail above h
// first (see pconn.ring).
func (pc *pconn) slot(h uint32) *pslot {
	r := pc.ring.Load()
	return &r.slots[h&r.mask]
}

// grow doubles a ring the in-flight requests [head, tail) fill, copying
// them to their positions in the new ring, and publishes it. Called by the
// owning shard only, before it publishes tail+1, and only below the limit
// (the caller checked full).
func (pc *pconn) grow(old *pring, tail uint32) *pring {
	r := newPring(2 * uint32(len(old.slots)))
	for h := pc.head.Load(); h != tail; h++ {
		r.slots[h&r.mask] = old.slots[h&old.mask]
	}
	pc.ring.Store(r)
	return r
}

// markDead stops future sends and unblocks the reader.
func (pc *pconn) markDead() {
	if pc.dead.CompareAndSwap(false, true) {
		pc.nc.Close()
	}
}

// flush writes the buffered requests. Called by the owning shard only.
func (pc *pconn) flush() {
	if pc.wlen == 0 {
		return
	}
	if !pc.dead.Load() {
		if _, err := pc.nc.Write(pc.wbuf[:pc.wlen]); err != nil {
			pc.markDead()
		}
	}
	pc.wlen = 0
}

// encode appends the wire form of r to the connection's write buffer,
// flushing first if the buffer cannot hold it. The request's bytes never
// reach the wire before its pending slot is published (the flush here only
// ships previously published requests), so the reader always finds the
// slot.
func (pc *pconn) encode(g *workload.Generator, r *workload.Lean, maxKey int) {
	// Conservative upper bound: verb + key + flags/exptime/len fields +
	// CRLFs + value.
	need := 32 + maxKey + r.ValueLen
	if pc.wlen+need > cap(pc.wbuf) {
		pc.flush()
		if need > cap(pc.wbuf) {
			// Oversized value (rare heavy-tail draw): grow once and keep
			// the larger buffer.
			pc.wbuf = make([]byte, 0, 2*need)
		}
	}
	pc.wlen = len(g.AppendLean(pc.wbuf[:pc.wlen], r))
}

// readLoop consumes responses and completes pending slots in FIFO order.
// Like the classic client's reader it waits in the socket for a reply's
// first byte, then frames that reply by its slot's op with the shared
// scanner (protocol.SkipResponse: ReadSlice views, Discard for value
// bodies, an in-place trailer parse), allocating nothing. Any framing error
// kills the connection; the drain sweep reclaims unanswered slots.
func (p *Plane) readLoop(pc *pconn) {
	defer p.readerWG.Done()
	defer func() {
		pc.markDead()
		pc.readerDone.Store(true)
	}()
	br := bufio.NewReaderSize(pc.nc, readBuf)
	for {
		if _, err := br.Peek(1); err != nil {
			return
		}
		// The shard publishes a slot before flushing its request, so a
		// reply with no slot in flight is a protocol violation.
		h := pc.head.Load()
		if h == pc.tail.Load() {
			p.desyncC.Inc()
			return
		}
		if protocol.SkipResponse(br, pc.slot(h).op) != nil {
			return
		}
		var st *protocol.ServerTiming
		if pc.timed {
			if protocol.ParseServerTimingInto(br, &pc.st) != nil {
				return
			}
			st = &pc.st
		}
		if !p.complete(pc, st) {
			return
		}
	}
}

// complete pops the head pending slot and feeds OnResult and the observers.
// Returns false on ring desync (a response with nothing in flight), which
// is a protocol violation worth killing the connection over.
func (p *Plane) complete(pc *pconn, st *protocol.ServerTiming) bool {
	h := pc.head.Load()
	if h == pc.tail.Load() {
		p.desyncC.Inc()
		return false
	}
	slot := *pc.slot(h)
	pc.head.Store(h + 1)
	now := time.Now()
	p.compC.Inc()
	if p.cfg.OnResult != nil {
		pc.result = client.Result{
			Start: time.Unix(0, slot.startNs),
			Done:  now,
		}
		p.cfg.OnResult(&pc.result)
	}
	p.cfg.Observers.Complete(slot.op, slot.stamps(now.UnixNano()), st, nil)
	// Counted last: drain returns once every request is counted, so Run
	// never returns ahead of a completion's observers.
	p.completed.Add(1)
	return true
}
