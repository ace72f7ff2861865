// Package router implements an mcrouter-style memcached protocol router:
// it terminates client connections, routes each request to a backend
// chosen by consistent hashing over the key, proxies the response back in
// request order, and pools backend connections. This is the second
// workload the paper evaluates (§V-C): CPU-bound request deserialization
// and routing in front of a cache pool.
package router

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/client"
	"treadmill/internal/protocol"
	"treadmill/internal/telemetry"
)

// hashRing is a consistent-hash ring with virtual nodes, the standard
// mcrouter/ketama placement scheme: adding or removing a backend remaps
// only ~1/n of the keyspace.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend int
}

func fnv1a(data string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= prime
	}
	// FNV of short, similar strings (vnode labels, sequential keys)
	// clusters on the ring; a splitmix64-style avalanche spreads it.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func newHashRing(backends []string, vnodes int) *hashRing {
	r := &hashRing{}
	for i, b := range backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(fmt.Sprintf("%s#%d", b, v)), backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// pick returns the backend index owning key.
func (r *hashRing) pick(key string) int {
	h := fnv1a(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	return r.points[idx].backend
}

// Config controls the router.
type Config struct {
	// Addr is the listen address.
	Addr string
	// Backends are the memcached-protocol servers behind the router.
	Backends []string
	// ConnsPerBackend sizes each backend connection pool.
	ConnsPerBackend int
	// VirtualNodes per backend on the hash ring.
	VirtualNodes int
	// Logger receives connection errors; nil discards.
	Logger *log.Logger
	// Telemetry, when non-nil, receives fan-out metrics: counters
	// router.multigets and router.fanout_legs, and the
	// router.straggler_seconds recorder — the spread between a multi-get's
	// fastest and slowest backend leg, the quantity that gates the merged
	// response's latency.
	Telemetry *telemetry.Registry
}

// DefaultConfig routes on an ephemeral localhost port.
func DefaultConfig(backends []string) Config {
	return Config{Addr: "127.0.0.1:0", Backends: backends, ConnsPerBackend: 4, VirtualNodes: 64}
}

// Router is a running mcrouter-lite instance.
type Router struct {
	cfg   Config
	ring  *hashRing
	pools []*client.Pool

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	requests atomic.Uint64

	multigetsC *telemetry.Counter
	legsC      *telemetry.Counter
	stragglerR *telemetry.Recorder
}

// New validates the configuration and connects the backend pools.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend required")
	}
	if cfg.ConnsPerBackend == 0 {
		cfg.ConnsPerBackend = 4
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = 64
	}
	r := &Router{
		cfg:   cfg,
		ring:  newHashRing(cfg.Backends, cfg.VirtualNodes),
		conns: make(map[net.Conn]struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		r.multigetsC = reg.Counter("router.multigets")
		r.legsC = reg.Counter("router.fanout_legs")
		r.stragglerR = reg.Recorder("router.straggler_seconds")
	}
	for _, b := range cfg.Backends {
		p, err := client.DialPool(b, cfg.ConnsPerBackend, client.DefaultConnConfig())
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("router: backend %s: %w", b, err)
		}
		r.pools = append(r.pools, p)
	}
	return r, nil
}

// Addr returns the bound listen address; empty before Start.
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Requests returns the number of proxied requests.
func (r *Router) Requests() uint64 { return r.requests.Load() }

// PickBackend exposes the routing decision (tests verify stability).
func (r *Router) PickBackend(key string) int { return r.ring.pick(key) }

// Start begins listening.
func (r *Router) Start() error {
	ln, err := net.Listen("tcp", r.cfg.Addr)
	if err != nil {
		return fmt.Errorf("router: listen %s: %w", r.cfg.Addr, err)
	}
	r.ln = ln
	r.wg.Add(1)
	go r.acceptLoop()
	return nil
}

func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

// reply is one ordered response slot for a client connection.
type reply struct {
	ready chan struct{}
	write func(*bufio.Writer) error
	fail  error
}

func (r *Router) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	// Responses must return in request order even though backends complete
	// out of order; order carries per-request slots the writer drains
	// sequentially.
	order := make(chan *reply, 1024)
	writerDone := make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(writerDone)
		for rep := range order {
			<-rep.ready
			if rep.fail != nil {
				return // backend error: drop the client connection
			}
			if err := rep.write(bw); err != nil {
				return
			}
			if len(order) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}
		bw.Flush()
	}()
	defer close(order)

	for {
		req, err := protocol.ParseRequest(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && r.cfg.Logger != nil {
				r.cfg.Logger.Printf("router conn %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		r.requests.Add(1)
		if done := r.dispatch(req, order); done {
			return
		}
		select {
		case <-writerDone:
			return
		default:
		}
	}
}

// dispatch routes one request; it returns true when the connection should
// close.
func (r *Router) dispatch(req *protocol.Request, order chan *reply) bool {
	switch req.Op {
	case protocol.OpVersion:
		rep := &reply{ready: make(chan struct{})}
		rep.write = func(w *bufio.Writer) error {
			return protocol.WriteStatusResponse(w, "VERSION treadmill-mcrouter/1.0")
		}
		close(rep.ready)
		order <- rep
		return false
	case protocol.OpStats:
		n := r.requests.Load()
		rep := &reply{ready: make(chan struct{})}
		rep.write = func(w *bufio.Writer) error {
			if err := protocol.WriteStatusResponse(w, fmt.Sprintf("STAT proxied %d", n)); err != nil {
				return err
			}
			if err := protocol.WriteStatusResponse(w, fmt.Sprintf("STAT backends %d", len(r.pools))); err != nil {
				return err
			}
			return protocol.WriteStatusResponse(w, "END")
		}
		close(rep.ready)
		order <- rep
		return false
	case protocol.OpGet, protocol.OpSet, protocol.OpDelete:
		if req.Op == protocol.OpGet && len(req.Keys) > 1 {
			return r.dispatchMultiGet(req, order)
		}
		backend := r.ring.pick(req.Key)
		pool := r.pools[backend]
		if req.NoReply {
			// Fire and forget; nothing enters the ordered stream.
			return pool.Do(req, func(*client.Result) {}) != nil
		}
		rep := &reply{ready: make(chan struct{})}
		order <- rep
		op := req.Op
		err := pool.Do(req, func(res *client.Result) {
			if res.Err != nil {
				rep.fail = res.Err
			} else {
				// The pool's reader reuses res.Resp once this callback
				// returns; the reply is written later, so it keeps a copy.
				resp := res.Resp
				status, key, flags, hit, value := resp.Status, strings.Clone(resp.Key), resp.Flags, resp.Hit, bytes.Clone(resp.Value)
				rep.write = func(w *bufio.Writer) error {
					switch op {
					case protocol.OpGet:
						return protocol.WriteGetResponse(w, key, flags, value, hit)
					default:
						return protocol.WriteStatusResponse(w, status)
					}
				}
			}
			close(rep.ready)
		})
		if err != nil {
			rep.fail = err
			close(rep.ready)
			return true
		}
		return false
	default:
		rep := &reply{ready: make(chan struct{})}
		rep.write = func(w *bufio.Writer) error { return protocol.WriteStatusResponse(w, "ERROR") }
		close(rep.ready)
		order <- rep
		return false
	}
}

// dispatchMultiGet splits a multi-key get across the owning backends,
// issues the sub-gets concurrently, and merges the returned items back
// into the order the client requested — mcrouter's signature fan-out. It
// returns true when the connection should close.
func (r *Router) dispatchMultiGet(req *protocol.Request, order chan *reply) bool {
	groups := make(map[int][]string)
	for _, key := range req.Keys {
		b := r.ring.pick(key)
		groups[b] = append(groups[b], key)
	}
	rep := &reply{ready: make(chan struct{})}
	order <- rep
	r.multigetsC.Inc()
	r.legsC.Add(uint64(len(groups)))

	var mu sync.Mutex
	found := make(map[string]protocol.Item, len(req.Keys))
	var firstErr error
	remaining := len(groups)
	keysInOrder := append([]string(nil), req.Keys...)
	start := time.Now()
	fastLeg, slowLeg := time.Duration(-1), time.Duration(0)
	finish := func() {
		// mu held.
		el := time.Since(start)
		if fastLeg < 0 || el < fastLeg {
			fastLeg = el
		}
		if el > slowLeg {
			slowLeg = el
		}
		remaining--
		if remaining != 0 {
			return
		}
		// The merged response is gated on the slowest leg; the straggler
		// spread (slowest minus fastest) is the tail cost fan-out added on
		// top of a single lookup.
		if slowLeg > fastLeg {
			r.stragglerR.Record((slowLeg - fastLeg).Seconds())
		} else {
			r.stragglerR.Record(0)
		}
		if firstErr != nil {
			rep.fail = firstErr
		} else {
			items := make([]protocol.Item, 0, len(found))
			for _, key := range keysInOrder {
				if it, ok := found[key]; ok {
					items = append(items, it)
				}
			}
			rep.write = func(w *bufio.Writer) error {
				return protocol.WriteItemsResponse(w, items)
			}
		}
		close(rep.ready)
	}
	for backend, keys := range groups {
		sub := &protocol.Request{Op: protocol.OpGet, Key: keys[0]}
		if len(keys) > 1 {
			sub.Keys = keys
		}
		err := r.pools[backend].Do(sub, func(res *client.Result) {
			mu.Lock()
			defer mu.Unlock()
			if res.Err != nil {
				if firstErr == nil {
					firstErr = res.Err
				}
			} else {
				// Copied: the pool's reader reuses the keys' and values'
				// storage.
				for _, it := range res.Resp.Items {
					it.Key, it.Value = strings.Clone(it.Key), bytes.Clone(it.Value)
					found[it.Key] = it
				}
			}
			finish()
		})
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			finish()
			mu.Unlock()
		}
	}
	return false
}

// Close stops the router and its backend pools.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	var err error
	if r.ln != nil {
		err = r.ln.Close()
	}
	r.wg.Wait()
	for _, p := range r.pools {
		p.Close()
	}
	return err
}
