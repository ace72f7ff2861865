package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/infersim"
	"treadmill/internal/protocol"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
)

// Version is reported to the protocol's version command.
const Version = "treadmill-kv/1.0"

// Config controls the TCP server.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Shards and CapacityBytes size the store.
	Shards        int
	CapacityBytes int64
	// ReadBufferSize / WriteBufferSize size per-connection bufio buffers.
	ReadBufferSize, WriteBufferSize int
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Telemetry, when non-nil, receives server metrics
	// (server.connections, server.active_conns, server.requests).
	Telemetry *telemetry.Registry
	// Probe, when non-nil, attributes GC-pause and scheduler-wait time to
	// each request's residence window in the server-timing trailer (see
	// protocol.OpTiming). The server does not own the sampler's lifecycle;
	// the caller starts and stops it. A nil probe reports zero GC/sched in
	// trailers, which remain otherwise functional.
	Probe *rtprobe.Sampler
	// Inference, when non-nil, enables the infer op: requests run through
	// a wall-clock iteration batcher with these cost/batching parameters
	// and answer with an INFER span report (see protocol.OpInfer). Nil
	// servers answer infer with ERROR.
	Inference *infersim.Config
	// FlushDelay, when positive, makes the server wait this long before
	// flushing a response when no further pipelined request is buffered —
	// a server-side batching knob: it coalesces responses that arrive
	// within the window at the cost of per-response latency. On the timed
	// path the wait lands between serialize and flush, so the cost is
	// measured in the trailer's WriteNs and attributed to srv_write.
	FlushDelay time.Duration
}

// DefaultConfig returns a production-shaped configuration listening on an
// ephemeral localhost port.
func DefaultConfig() Config {
	return Config{
		Addr:            "127.0.0.1:0",
		Shards:          64,
		CapacityBytes:   256 << 20,
		ReadBufferSize:  16 << 10,
		WriteBufferSize: 16 << 10,
	}
}

// Server is the TCP memcached-compatible server. Each connection is owned
// by one goroutine, reading pipelined requests and writing responses in
// order — the same threading structure memcached's worker model presents
// to a single connection.
type Server struct {
	cfg   Config
	store *Store

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	requests atomic.Uint64

	infer *infersim.Batcher

	connsC  *telemetry.Counter
	activeG *telemetry.Gauge
	reqsC   *telemetry.Counter
	shedC   *telemetry.Counter
}

// New creates a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 64
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 256 << 20
	}
	if cfg.ReadBufferSize == 0 {
		cfg.ReadBufferSize = 16 << 10
	}
	if cfg.WriteBufferSize == 0 {
		cfg.WriteBufferSize = 16 << 10
	}
	st, err := NewStore(cfg.Shards, cfg.CapacityBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, store: st, conns: make(map[net.Conn]struct{})}
	if cfg.Inference != nil {
		s.infer, err = infersim.NewBatcher(*cfg.Inference, infersim.NewRealClock())
		if err != nil {
			return nil, err
		}
	}
	if cfg.FlushDelay < 0 {
		return nil, fmt.Errorf("server: FlushDelay %v invalid: want >= 0", cfg.FlushDelay)
	}
	if reg := cfg.Telemetry; reg != nil {
		s.connsC = reg.Counter("server.connections")
		s.activeG = reg.Gauge("server.active_conns")
		s.reqsC = reg.Counter("server.requests")
		s.shedC = reg.Counter("server.infer_shed")
	}
	return s, nil
}

// InferBatcher exposes the inference batcher (nil when not configured).
func (s *Server) InferBatcher() *infersim.Batcher { return s.infer }

// Store exposes the underlying store (examples preload data through it).
func (s *Server) Store() *Store { return s.store }

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Addr returns the bound listen address; empty before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Start begins listening and serving in background goroutines. Use Close
// to stop. The returned error covers listen failures only; per-connection
// errors go to the configured logger.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			// Latency measurement demands immediate segments.
			_ = tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	s.connsC.Inc()
	s.activeG.Add(1)
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.activeG.Add(-1)
	}()
	sc := &stampConn{Conn: conn}
	r := bufio.NewReaderSize(sc, s.cfg.ReadBufferSize)
	w := bufio.NewWriterSize(conn, s.cfg.WriteBufferSize)
	timed := false
	// One request and one value scratch per connection, reused by every
	// request on it: a GET costs no allocation beyond its key string.
	req := &protocol.Request{}
	var val []byte
	for {
		var markNs int64
		if timed {
			// Arrival stamp: wall time of the first read that delivered this
			// request's bytes, or — when the request was already buffered
			// behind a pipelined batch — the instant the server turned to it.
			sc.mark()
			markNs = time.Now().UnixNano()
		}
		if cap(val) > maxValueScratch {
			val = nil // a heavy-tail value is not kept per connection
		}
		if err := protocol.ParseRequestInto(r, req); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && s.cfg.Logger != nil {
				s.cfg.Logger.Printf("conn %s: %v", conn.RemoteAddr(), err)
			}
			if errors.Is(err, protocol.ErrProtocol) {
				_ = protocol.WriteStatusResponse(w, "ERROR")
				_ = w.Flush()
			}
			return
		}
		s.requests.Add(1)
		s.reqsC.Inc()
		if req.Op == protocol.OpTiming {
			// The toggle's own response never carries a trailer; trailers
			// start with the next response once timing is on.
			timed = req.TimingOn
			status := "TIMING_OFF"
			if timed {
				status = "TIMING_ON"
			}
			if err := protocol.WriteStatusResponse(w, status); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
			continue
		}
		if !timed {
			if err := s.handle(w, req, &val, nil); err != nil {
				if s.cfg.Logger != nil {
					s.cfg.Logger.Printf("conn %s write: %v", conn.RemoteAddr(), err)
				}
				return
			}
			// Flush when no further pipelined request is buffered, batching
			// responses under pipelining without adding latency otherwise.
			if r.Buffered() == 0 {
				s.flushDelay()
				if err := w.Flush(); err != nil {
					return
				}
			}
			continue
		}
		// Timed path: stamp each stage boundary, flush the response to
		// measure the write span, then append and flush the trailer. The
		// pipelining flush batch is deliberately given up here — the trailer
		// must reach the client right behind its response, and the measured
		// WriteNs should cover a real syscall, not a buffer append.
		var tm reqTiming
		tm.arrivalNs = sc.firstReadNs
		if tm.arrivalNs == 0 {
			tm.arrivalNs = markNs
		}
		tm.parsedNs = time.Now().UnixNano()
		if err := s.handle(w, req, &val, &tm); err != nil {
			if s.cfg.Logger != nil {
				s.cfg.Logger.Printf("conn %s write: %v", conn.RemoteAddr(), err)
			}
			return
		}
		tm.serializedNs = time.Now().UnixNano()
		if r.Buffered() == 0 {
			// The batching wait sits between the serialize stamp and the
			// flush stamp, so the trailer prices it as WriteNs (srv_write).
			s.flushDelay()
		}
		if err := w.Flush(); err != nil {
			return
		}
		flushedNs := time.Now().UnixNano()
		if req.NoReply {
			continue // no response on the wire, so no trailer either
		}
		gcSec, schedSec := s.cfg.Probe.Attribute(tm.arrivalNs, flushedNs)
		st := protocol.ServerTiming{
			ParseNs:     clampNs(tm.parsedNs - tm.arrivalNs),
			StoreNs:     clampNs(tm.storedNs - tm.parsedNs),
			SerializeNs: clampNs(tm.serializedNs - tm.storedNs),
			WriteNs:     clampNs(flushedNs - tm.serializedNs),
			GCNs:        clampNs(int64(gcSec * 1e9)),
			SchedNs:     clampNs(int64(schedSec * 1e9)),
		}
		if err := protocol.WriteServerTiming(w, &st); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// flushDelay applies the server-side batching knob before a flush.
func (s *Server) flushDelay() {
	if d := s.cfg.FlushDelay; d > 0 {
		time.Sleep(d)
	}
}

// reqTiming holds the per-request stage-boundary stamps of the timed path,
// all UnixNano: arrival (first request byte), parse done, store op done,
// response serialized into the buffer. The flush stamp is taken inline.
type reqTiming struct {
	arrivalNs, parsedNs, storedNs, serializedNs int64
}

func clampNs(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// stampConn wraps the accepted connection to record the wall-clock instant
// of the first Read that returns data after each mark — the closest
// observable proxy for "request bytes arrived" without kernel timestamping.
// Reads happen only on the connection goroutine, so plain fields suffice.
type stampConn struct {
	net.Conn
	firstReadNs int64
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.firstReadNs == 0 {
		c.firstReadNs = time.Now().UnixNano()
	}
	return n, err
}

func (c *stampConn) mark() { c.firstReadNs = 0 }

// maxValueScratch bounds the value scratch a connection keeps between
// requests.
const maxValueScratch = 64 << 10

// handle executes req against the store and serializes the response into w.
// Values read for a GET are copied into *val, the connection's scratch.
// When tm is non-nil (timed path) the store/serialize boundary is stamped
// into tm.storedNs; the parse and flush boundaries are stamped by the
// caller, which owns the surrounding I/O.
func (s *Server) handle(w *bufio.Writer, req *protocol.Request, val *[]byte, tm *reqTiming) error {
	switch req.Op {
	case protocol.OpGet:
		if len(req.Keys) == 0 {
			value, flags, ok := s.store.getInto((*val)[:0], req.Key)
			*val = value
			tm.stampStored()
			return protocol.WriteGetResponse(w, req.Key, flags, value, ok)
		}
		var items []protocol.Item
		buf := (*val)[:0]
		for _, key := range req.Keys {
			off := len(buf)
			value, flags, ok := s.store.getInto(buf, key)
			if ok {
				items = append(items, protocol.Item{Key: key, Flags: flags, Value: value[off:]})
			}
			buf = value
		}
		*val = buf
		tm.stampStored()
		return protocol.WriteItemsResponse(w, items)
	case protocol.OpSet:
		err := s.store.Set(req.Key, req.Flags, req.Value)
		tm.stampStored()
		if req.NoReply {
			return nil
		}
		if err != nil {
			return protocol.WriteStatusResponse(w, "SERVER_ERROR object too large for cache")
		}
		return protocol.WriteStatusResponse(w, "STORED")
	case protocol.OpDelete:
		ok := s.store.Delete(req.Key)
		tm.stampStored()
		if req.NoReply {
			return nil
		}
		if ok {
			return protocol.WriteStatusResponse(w, "DELETED")
		}
		return protocol.WriteStatusResponse(w, "NOT_FOUND")
	case protocol.OpVersion:
		tm.stampStored()
		return protocol.WriteStatusResponse(w, "VERSION "+Version)
	case protocol.OpInfer:
		if s.infer == nil {
			tm.stampStored()
			return protocol.WriteStatusResponse(w, "ERROR")
		}
		// The connection goroutine blocks until the batcher completes the
		// request — inference responses are inherently unpipelined from
		// this connection's perspective, exactly like the modeled service.
		done := make(chan infersim.Report, 1)
		if err := s.infer.Submit(req.InTokens, req.OutTokens, func(rep infersim.Report) { done <- rep }); err != nil {
			s.shedC.Inc()
			tm.stampStored()
			return protocol.WriteStatusResponse(w, "BUSY")
		}
		rep := <-done
		tm.stampStored()
		it := protocol.InferTiming{
			OutTokens: rep.OutTokens,
			QueueNs:   clampNs(int64(rep.QueueWait * 1e9)),
			PrefillNs: clampNs(int64(rep.Prefill * 1e9)),
			DecodeNs:  clampNs(int64(rep.Decode * 1e9)),
			BatchNs:   clampNs(int64(rep.BatchExtra * 1e9)),
		}
		return protocol.WriteStatusResponse(w, protocol.FormatInferStatus(&it))
	case protocol.OpStats:
		st := s.store.Stats()
		tm.stampStored()
		for _, line := range []string{
			fmt.Sprintf("STAT curr_items %d", st.Items),
			fmt.Sprintf("STAT bytes %d", st.Bytes),
			fmt.Sprintf("STAT cmd_get %d", st.Gets),
			fmt.Sprintf("STAT get_hits %d", st.Hits),
			fmt.Sprintf("STAT cmd_set %d", st.Sets),
			fmt.Sprintf("STAT evictions %d", st.Evictions),
		} {
			if err := protocol.WriteStatusResponse(w, line); err != nil {
				return err
			}
		}
		return protocol.WriteStatusResponse(w, "END")
	default:
		tm.stampStored()
		return protocol.WriteStatusResponse(w, "ERROR")
	}
}

// stampStored records the execute→serialize boundary; a nil receiver (the
// untimed fast path) is a no-op, keeping one handle implementation for both.
func (tm *reqTiming) stampStored() {
	if tm != nil {
		tm.storedNs = time.Now().UnixNano()
	}
}

// Close stops listening, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Serve runs the server until ctx is cancelled (convenience for cmd/).
func (s *Server) Serve(ctx context.Context) error {
	if err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	return s.Close()
}
