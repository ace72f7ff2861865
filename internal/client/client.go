// Package client is an asynchronous memcached-protocol client built for
// load generation: pipelined writes, strictly in-order response matching,
// and response callbacks executed inline on the reader goroutine — the
// wangle-style inline executor the paper credits for avoiding client-side
// callback queueing (§III-A).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/protocol"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("client: connection closed")

// Result is delivered to the request callback. A Result and its Resp are
// valid until the callback returns: the connection's reader reuses both for
// the next response, so a callback that keeps either must copy it
// (Resp.Clone).
type Result struct {
	// Resp is nil when Err is set or the request was noreply.
	Resp *protocol.Response
	Err  error
	// Start is when Do was called; Done when the callback fired. RTT is
	// their difference, the load tester's measured latency.
	Start, Done time.Time
}

// RTT returns the measured round-trip time.
func (r *Result) RTT() time.Duration { return r.Done.Sub(r.Start) }

// Callback receives the result of one request. It runs inline on the
// connection's reader goroutine: keep it short (record a sample, notify a
// channel) or the connection's other responses queue behind it. The
// *Result is valid only until the callback returns (see Result).
type Callback func(*Result)

type pending struct {
	op    protocol.Op
	cb    Callback
	start time.Time
	// arrivalNs is the intended (open-loop scheduled) issue instant, the
	// origin of the coarse phase decomposition.
	arrivalNs int64
	// sendNs is stamped (only when observers are attached) under c.mu
	// before the pending is queued, so the channel send orders it before the
	// reader takes the pending.
	sendNs int64
	// claimed arbitrates exactly-once outcome delivery between the reader
	// (response or connection error -> callback) and the writer (write
	// error -> error return from DoAt). The reader can pop a pending and
	// fail it while the writer's flush is still returning its own error;
	// without the CAS both sides would deliver and a WaitGroup-counting
	// caller would double-decrement.
	claimed atomic.Bool
	// next links the connection's free list (see Conn.free).
	next *pending
	// timed marks requests enqueued after the timing handshake was written:
	// their responses carry a server-timing trailer the reader must consume
	// to keep FIFO framing. Snapshotted under c.mu at enqueue time.
	timed bool
}

// stamps returns the request's record up to firstByteNs (0 when no
// response was parsed); Observers.Complete stamps the rest.
func (p *pending) stamps(firstByteNs int64) telemetry.Trace {
	return telemetry.Trace{ArrivalNs: p.arrivalNs, EnqueueNs: p.start.UnixNano(), SendNs: p.sendNs, FirstByteNs: firstByteNs}
}

// Conn is one pipelined client connection.
type Conn struct {
	nc net.Conn

	mu     sync.Mutex
	w      *bufio.Writer
	closed bool
	// timed (guarded by c.mu) reports that the timing handshake has been
	// written, so every later request's response will carry a trailer.
	timed bool

	// trailers is touched only on the reader goroutine: it starts true and
	// is cleared if the server rejects the timing handshake, downgrading the
	// connection to the coarse client-only decomposition.
	trailers bool

	// inflight queues the pendings in wire order. DoAt fills it under c.mu
	// before writing; the reader takes from it only once a reply has begun
	// to arrive, so it never parks here and a send never has to wake it.
	inflight chan *pending
	// free is a stack of pendings whose replies the reader delivered, taken
	// again by later sends, so it holds no more pendings than the pipeline
	// depth the connection reached. The reader is its only pusher and
	// sends, serialized by c.mu, its only popper: no pending can leave and
	// re-enter the stack during a pop's compare-and-swap. A pending that a
	// failure delivered (failConn, the write-error path) is never pushed.
	free atomic.Pointer[pending]

	readerErr error
	readerEnd sync.Once

	obs Observers
	// settling counts the callbacks started whose observers have not yet
	// returned (see deliver and Settle).
	settling atomic.Int32
	// Telemetry handles; all nil-safe, so a connection without a registry
	// pays only inlined nil checks on the hot path.
	reqs      *telemetry.Counter
	resps     *telemetry.Counter
	fails     *telemetry.Counter
	inflightG *telemetry.Gauge
}

// ConnConfig tunes a connection.
type ConnConfig struct {
	// MaxInflight bounds pipelined requests awaiting responses; Do blocks
	// when the pipeline is full (backpressure instead of unbounded memory).
	MaxInflight int
	// BufferSize sizes the read and write buffers.
	BufferSize int
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// Telemetry, when non-nil, receives connection-pool metrics
	// (client.conns_opened, client.requests, client.responses,
	// client.errors, client.inflight, client.timing_clamped).
	Telemetry *telemetry.Registry
	// Observers receive every finished request (traces, the anatomy
	// ledger, per-request decompositions); see Observers.
	Observers Observers
	// ServerTiming requests per-response server-timing trailers (a treadmill
	// protocol extension; see protocol.OpTiming): the connection sends
	// "timing on" before any user request and the read loop consumes one ST
	// line behind every response, which Observers.Complete uses to split
	// the coarse wire+server span into server-derived phases. A server that
	// rejects the handshake (pre-extension builds answer ERROR) downgrades
	// the connection back to the coarse decomposition.
	ServerTiming bool
}

// DefaultConnConfig returns sensible load-test defaults.
func DefaultConnConfig() ConnConfig {
	return ConnConfig{MaxInflight: 4096, BufferSize: 16 << 10, DialTimeout: 5 * time.Second}
}

// Observers are a live load path's per-request consumers. Both send paths —
// Conn and the sharded load plane — hand every finished request to Complete
// exactly once: the one place the live stack samples traces, correlates
// server timing and feeds the anatomy ledger.
type Observers struct {
	// Tracer, when non-nil, samples 1-in-N finished requests (failures
	// included) into lifecycle traces.
	Tracer *telemetry.Tracer
	// Anatomy, when non-nil, receives every successful request's phase
	// decomposition, independent of trace sampling: client send /
	// wire+server / client receive, with wire+server split into
	// server-derived phases when a timing trailer came back.
	Anatomy *anatomy.Aggregator
	// OnVec, when non-nil, receives the same decomposition per request with
	// the request's record, so a flight recorder can keep individual tail
	// requests. Runs inline on reader goroutines: keep it short.
	OnVec func(rec telemetry.Trace, total float64, vec anatomy.Vec)

	clamped *telemetry.Counter // see CountClamps
}

// active reports whether any observer is attached; paths skip their
// observer-only clock reads when it is false.
func (o *Observers) active() bool {
	return o.Tracer != nil || o.Anatomy != nil || o.OnVec != nil
}

// CountClamps counts on c the trailers whose server spans overran the
// client's wire window.
func (o *Observers) CountClamps(c *telemetry.Counter) { o.clamped = c }

// Complete fans one finished request out to the observers. rec is the
// request's record stamped up to FirstByte, alike on both send paths (see
// telemetry.Trace); Complete adds the op and the completion stamp, taken
// after the request's callback returned, and hands the same record to the
// tracer (with an ID and err when sampled) and to OnVec. err is the
// request's failure, if any. The timing handshake is control traffic, not
// workload: it may be traced but stays out of the ledger.
func (o *Observers) Complete(op protocol.Op, rec telemetry.Trace, st *protocol.ServerTiming, err error) {
	if !o.active() {
		return
	}
	rec.Op = op.String()
	rec.CompleteNs = time.Now().UnixNano()
	if o.Tracer.Sample() {
		rec.ID = o.Tracer.NextID()
		if err != nil {
			rec.Err = err.Error()
		}
		o.Tracer.Emit(rec)
	}
	if err != nil || op == protocol.OpTiming || (o.Anatomy == nil && o.OnVec == nil) {
		return
	}
	v, total, ok, clamped := rtprobe.Correlate(rec, st)
	if !ok {
		return
	}
	if clamped {
		o.clamped.Inc()
	}
	o.Anatomy.Record(total, v)
	if o.OnVec != nil {
		o.OnVec(rec, total, v)
	}
}

// Dial connects to a memcached-protocol server.
func Dial(addr string, cfg ConnConfig) (*Conn, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return NewConn(nc, cfg), nil
}

// NewConn wraps an established connection (a socket, a net.Pipe end in
// tests, ...) in a pipelined client connection. It takes ownership of nc.
func NewConn(nc net.Conn, cfg ConnConfig) *Conn {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 4096
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = 16 << 10
	}
	c := &Conn{
		nc:       nc,
		w:        bufio.NewWriterSize(nc, cfg.BufferSize),
		inflight: make(chan *pending, cfg.MaxInflight),
		obs:      cfg.Observers,
		trailers: true,
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.Counter("client.conns_opened").Inc()
		c.reqs = reg.Counter("client.requests")
		c.resps = reg.Counter("client.responses")
		c.fails = reg.Counter("client.errors")
		c.inflightG = reg.Gauge("client.inflight")
		c.obs.CountClamps(reg.Counter("client.timing_clamped"))
	}
	go c.readLoop(bufio.NewReaderSize(nc, cfg.BufferSize))
	if cfg.ServerTiming {
		// Handshake before any user request. Its callback runs on the
		// reader goroutine ahead of every later response (FIFO), so the
		// downgrade takes effect before the first trailer would be parsed.
		_ = c.Do(&protocol.Request{Op: protocol.OpTiming, TimingOn: true}, func(r *Result) {
			if r.Err != nil || r.Resp == nil || r.Resp.Status != "TIMING_ON" {
				c.trailers = false
			}
		})
		c.mu.Lock()
		c.timed = true
		c.mu.Unlock()
	}
	return c
}

// errUnsolicited reports a reply that arrived with no request in flight:
// the peer broke FIFO framing, so no later reply can be trusted either.
var errUnsolicited = errors.New("client: unsolicited reply with no request in flight")

// readLoop matches responses to pipelined requests in FIFO order and runs
// callbacks inline. It waits in the socket for the next reply's first byte,
// then takes that reply's pending and parses by its op, decoding into one
// Response, ServerTiming and Result reused for every reply on the
// connection.
func (c *Conn) readLoop(r *bufio.Reader) {
	var (
		resp      protocol.Response
		srvTiming protocol.ServerTiming
		res       Result
	)
	for {
		if _, err := r.Peek(1); err != nil {
			c.failConn(readError(err))
			return
		}
		// DoAt queues a pending under c.mu before writing its request, so
		// a reply's pending is always queued by the time the reply arrives.
		var p *pending
		select {
		case p = <-c.inflight:
		default:
			c.failConn(errUnsolicited)
			return
		}
		err := protocol.ParseResponseInto(r, p.op, &resp)
		now := time.Now()
		var st *protocol.ServerTiming
		if err == nil && p.timed && c.trailers {
			// The trailer belongs to this response; it must be consumed
			// before the next pending's response to keep FIFO framing.
			err = protocol.ParseServerTimingInto(r, &srvTiming)
			st = &srvTiming
		}
		if err != nil {
			// The in-hand pending is owned by this goroutine: fail it
			// directly, then tear down and drain the rest. failConn is
			// once-guarded, so if the writer's error path got there first
			// this only delivers p's callback.
			err = readError(err)
			c.deliverErr(p, err, now)
			c.failConn(err)
			return
		}
		c.inflightG.Add(-1)
		if !p.claimed.CompareAndSwap(false, true) {
			// The writer already reported this request's outcome as a
			// write error; the response (from a partially successful
			// flush) is consumed to keep FIFO matching but not delivered.
			continue
		}
		// Counted before the callback, which may read the counters.
		c.resps.Inc()
		res = Result{Resp: &resp, Start: p.start, Done: now}
		c.deliver(p.cb, &res, p.op, p.stamps(now.UnixNano()), st, nil)
		c.recycle(p)
	}
}

// recycle pushes a pending the reader delivered onto the free list. Only
// the reader calls it, after its claim succeeded, and touches p no more.
func (c *Conn) recycle(p *pending) {
	p.cb = nil
	for {
		head := c.free.Load()
		p.next = head
		if c.free.CompareAndSwap(head, p) {
			return
		}
	}
}

// takePending pops a recycled pending, or allocates one when the free list
// is empty. The caller holds c.mu. The claim is reset here, not at
// recycling: the write-error path claims its pending before releasing
// c.mu, so a pending the reader delivered and recycled meanwhile still
// reads as claimed to it.
func (c *Conn) takePending() *pending {
	for {
		p := c.free.Load()
		if p == nil {
			return new(pending)
		}
		if c.free.CompareAndSwap(p, p.next) {
			p.claimed.Store(false)
			return p
		}
	}
}

// readError maps the read failure a local Close causes to ErrClosed, so
// pendings failed by it say so.
func readError(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return err
}

// deliverErr fires q's callback with err and updates the failure
// telemetry. The caller must own q (have popped it from the pipeline);
// the claim CAS skips pendings whose outcome the writer already reported
// as a DoAt error return.
func (c *Conn) deliverErr(q *pending, err error, now time.Time) {
	c.inflightG.Add(-1)
	if !q.claimed.CompareAndSwap(false, true) {
		return
	}
	c.fails.Inc()
	c.deliver(q.cb, &Result{Err: err, Start: q.start, Done: now}, q.op, q.stamps(0), nil, err)
}

// deliver runs a request's callback with res, then its observers, which
// stamp the completion after the callback returned.
func (c *Conn) deliver(cb Callback, res *Result, op protocol.Op, rec telemetry.Trace, st *protocol.ServerTiming, err error) {
	c.settling.Add(1)
	cb(res)
	c.obs.Complete(op, rec, st, err)
	c.settling.Add(-1)
}

// Settle waits until every callback the connection has started has also
// run its request's observers. A caller that counts requests in their
// callbacks calls it once the count is complete, so that every counted
// request's trace, anatomy record and OnVec call exist when it reads them.
func (c *Conn) Settle() {
	for c.settling.Load() != 0 {
		runtime.Gosched()
	}
}

// failConn tears the connection down exactly once: it records the error,
// closes the socket (marking the connection closed so no new pending can be
// reserved), and then fails every pending still in the pipeline. Closing
// BEFORE draining is what makes the drain complete: Do reserves slots under
// c.mu and checks closed first, and Close takes c.mu, so once Close returns
// no further pending can enter the channel.
//
// Two paths converge here — the reader hitting a parse/socket error (a
// local Close, a peer close and an unsolicited reply among them) and the
// writer hitting a write error (its failed request already holds a pipeline
// slot, so FIFO matching is broken and the connection is unusable). The
// sync.Once arbitrates; a reader holding a popped pending fails it itself
// via deliverErr.
func (c *Conn) failConn(err error) {
	c.readerEnd.Do(func() {
		c.readerErr = err
		c.Close()
		now := time.Now()
		for {
			select {
			case q := <-c.inflight:
				c.deliverErr(q, err, now)
			default:
				return
			}
		}
	})
}

// Do sends req; cb runs when its response arrives (or immediately after
// the write for noreply requests). Do is safe for concurrent use. It
// blocks when the pipeline is full.
func (c *Conn) Do(req *protocol.Request, cb Callback) error {
	return c.DoAt(req, time.Time{}, cb)
}

// DoAt is Do with the request's intended (open-loop scheduled) issue
// instant, so sampled traces can attribute generator slippage. A zero
// arrival means "now" (untimed callers). A request protocol.WriteRequest
// would reject is refused before the connection commits to it: DoAt
// returns the protocol.ErrProtocol error and the connection stays usable.
func (c *Conn) DoAt(req *protocol.Request, arrival time.Time, cb Callback) error {
	if cb == nil {
		return errNilCallback
	}
	return c.send(req.Op, req, nil, arrival, cb)
}

// DoEncodedAt is DoAt for a request the caller already encoded: wire holds
// exactly one complete request of op that expects a reply (as
// workload.Generator.AppendLean writes one). The bytes are copied into the
// connection's write buffer before DoEncodedAt returns, so the caller may
// reuse wire; the connection cannot check them.
func (c *Conn) DoEncodedAt(op protocol.Op, wire []byte, arrival time.Time, cb Callback) error {
	if cb == nil {
		return errNilCallback
	}
	return c.send(op, nil, wire, arrival, cb)
}

var errNilCallback = errors.New("client: nil callback")

// send writes one request, req encoded or wire as is (exactly one of them
// is set), behind a pipeline slot reserved under c.mu.
func (c *Conn) send(op protocol.Op, req *protocol.Request, wire []byte, arrival time.Time, cb Callback) error {
	start := time.Now()
	if arrival.IsZero() {
		arrival = start
	}
	refused := telemetry.Trace{ArrivalNs: arrival.UnixNano(), EnqueueNs: start.UnixNano()}
	noreply := false
	if req != nil {
		if err := protocol.ValidateRequest(req); err != nil {
			return c.refuse(op, refused, err)
		}
		noreply = req.NoReply
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.refuse(op, refused, ErrClosed)
	}
	p := c.takePending()
	p.op, p.cb, p.start, p.arrivalNs, p.sendNs = op, cb, start, refused.ArrivalNs, 0
	if c.obs.active() {
		// Before the bytes can reach the socket: the encode and flush land
		// in the wire span, as on the load plane, and the reader can never
		// complete the request ahead of its send stamp.
		p.sendNs = time.Now().UnixNano()
	}
	if !noreply {
		// Snapshot the timing flag under c.mu: the handshake is also written
		// under c.mu, so every request ordered after it on the wire sees
		// timed=true and its reader-side trailer parse stays in lockstep
		// with what the server actually sends.
		p.timed = c.timed
		// Reserve the pipeline slot before writing so the reader can
		// always match responses FIFO.
		select {
		case c.inflight <- p:
		default:
			c.mu.Unlock()
			return c.refuse(op, p.stamps(0), fmt.Errorf("client: pipeline full (%d inflight)", cap(c.inflight)))
		}
		c.inflightG.Add(1)
	}
	var err error
	if req != nil {
		err = protocol.WriteRequest(c.w, req)
	} else {
		_, err = c.w.Write(wire)
	}
	if err == nil {
		err = c.w.Flush()
	}
	// The reserved pipeline slot holds a request that (at best) partially
	// went out: response matching is desynchronized and the connection is
	// unusable. Claim the outcome first, still under c.mu — the reader may
	// concurrently pop p and race to deliver a connection error to its
	// callback, and once it delivered p, a send after c.mu is released
	// may take p for another request.
	claimed := err != nil && !noreply && p.claimed.CompareAndSwap(false, true)
	c.mu.Unlock()
	if err != nil {
		werr := fmt.Errorf("client: write: %w", err)
		// failConn drains the pipeline and fails every unclaimed pending.
		c.failConn(werr)
		if noreply || claimed {
			c.fails.Inc()
			return c.refuse(op, p.stamps(0), werr)
		}
		// The reader delivered p's outcome to the callback before we could
		// claim it; reporting the write error too would double-count.
		return nil
	}
	c.reqs.Inc()
	if noreply {
		c.deliver(cb, &Result{Start: start, Done: time.Now()}, op, p.stamps(0), nil, nil)
	}
	return nil
}

// refuse reports a request DoAt fails before the reader can own it — an
// invalid request, a closed connection, a full pipeline, a write error — to
// the observers, so sampled traces include every failure, and returns err
// for DoAt to return.
func (c *Conn) refuse(op protocol.Op, rec telemetry.Trace, err error) error {
	c.obs.Complete(op, rec, nil, err)
	return err
}

// Get fetches key synchronously (convenience for examples and tools).
func (c *Conn) Get(key string) (*protocol.Response, error) {
	return c.roundTrip(&protocol.Request{Op: protocol.OpGet, Key: key})
}

// Set stores key synchronously.
func (c *Conn) Set(key string, flags uint32, value []byte) error {
	resp, err := c.roundTrip(&protocol.Request{Op: protocol.OpSet, Key: key, Flags: flags, Value: value})
	if err != nil {
		return err
	}
	if resp.Status != "STORED" {
		return fmt.Errorf("client: set %q: %s", key, resp.Status)
	}
	return nil
}

// Delete removes key synchronously, reporting whether it existed.
func (c *Conn) Delete(key string) (bool, error) {
	resp, err := c.roundTrip(&protocol.Request{Op: protocol.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == "DELETED", nil
}

// Version fetches the server version string.
func (c *Conn) Version() (string, error) {
	resp, err := c.roundTrip(&protocol.Request{Op: protocol.OpVersion})
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

func (c *Conn) roundTrip(req *protocol.Request) (*protocol.Response, error) {
	type outcome struct {
		resp *protocol.Response
		err  error
	}
	ch := make(chan outcome, 1)
	if err := c.Do(req, func(r *Result) {
		// The reader reuses r.Resp for the next reply: keep a copy.
		ch <- outcome{r.Resp.Clone(), r.Err}
	}); err != nil {
		return nil, err
	}
	o := <-ch
	return o.resp, o.err
}

// Close shuts the connection down. Outstanding callbacks receive errors.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.nc.Close()
}

// Pool is a set of connections to one server with round-robin dispatch,
// letting a load generator spread pipelines over several sockets the way
// Treadmill instances do.
type Pool struct {
	conns []*Conn
	mu    sync.Mutex
	next  int
}

// DialPool opens n connections to addr.
func DialPool(addr string, n int, cfg ConnConfig) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("client: pool size %d must be >= 1", n)
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		c, err := Dial(addr, cfg)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Do dispatches req on the next connection round-robin.
func (p *Pool) Do(req *protocol.Request, cb Callback) error {
	return p.DoAt(req, time.Time{}, cb)
}

// DoAt dispatches req round-robin, carrying its intended issue instant for
// trace attribution (see Conn.DoAt).
func (p *Pool) DoAt(req *protocol.Request, arrival time.Time, cb Callback) error {
	return p.pick().DoAt(req, arrival, cb)
}

// DoEncodedAt dispatches an encoded request round-robin (see
// Conn.DoEncodedAt).
func (p *Pool) DoEncodedAt(op protocol.Op, wire []byte, arrival time.Time, cb Callback) error {
	return p.pick().DoEncodedAt(op, wire, arrival, cb)
}

// pick returns the next connection round-robin.
func (p *Pool) pick() *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.conns[p.next%len(p.conns)]
	p.next++
	return c
}

// Size returns the number of connections.
func (p *Pool) Size() int { return len(p.conns) }

// Conn returns the i-th connection (for per-connection load patterns).
func (p *Pool) Conn(i int) *Conn { return p.conns[i%len(p.conns)] }

// Settle is Conn.Settle on every connection.
func (p *Pool) Settle() {
	for _, c := range p.conns {
		c.Settle()
	}
}

// Close closes every connection.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
