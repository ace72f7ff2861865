package sim

import (
	"fmt"
	"math"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
)

// pool is a fixed-frequency multi-core FIFO resource used to model client
// machines (DVFS is a server-side factor; clients stay simple).
type pool struct {
	eng    *Engine
	freq   float64
	free   int
	queue  ring[poolTask]
	busySz int // total servers
	busyT  float64
}

// poolTask is cycles of client work on behalf of req; when it completes the
// request's owner is resumed at op.
type poolTask struct {
	cycles float64
	req    *Request
	op     op
}

func newPool(eng *Engine, servers int, freq float64) *pool {
	return &pool{eng: eng, freq: freq, free: servers, busySz: servers}
}

func (p *pool) submit(cycles float64, op op, req *Request) {
	p.queue.push(poolTask{cycles: cycles, req: req, op: op})
	p.dispatch()
}

func (p *pool) dispatch() {
	for p.free > 0 && p.queue.len() > 0 {
		t := p.queue.pop()
		p.free--
		dur := t.cycles / p.freq
		p.busyT += dur
		p.eng.after(dur, p, t.op, t.req)
	}
}

// handle completes one task: free its server, resume the request's owner,
// then start whatever was waiting (including work the owner just queued).
func (p *pool) handle(op op, req *Request) {
	p.free++
	req.owner.handle(op, req)
	p.dispatch()
}

func (p *pool) utilization() float64 {
	if p.eng.Now() == 0 {
		return 0
	}
	u := p.busyT / (float64(p.busySz) * p.eng.Now())
	if u > 1 {
		u = 1
	}
	return u
}

// CallbackStyle models how a load tester's client executes response
// callbacks — the design axis behind the paper's client-side bias findings.
type CallbackStyle int

const (
	// InlineCallback executes the response callback immediately when the
	// response is processed, as Treadmill does via wangle (§III-A).
	InlineCallback CallbackStyle = iota
	// BatchedCallback defers completions to a periodic event-loop poll, as
	// simpler load testers do. It adds uniform latency noise of up to one
	// poll period and distorts the measured distribution's shape.
	BatchedCallback
)

// ClientConfig describes one load-generating machine.
type ClientConfig struct {
	// Cores and FreqHz size the client CPU pool.
	Cores  int
	FreqHz float64
	// SendCycles is client work to build+send one request.
	SendCycles float64
	// RecvCycles is client work to process one response and run its
	// callback.
	RecvCycles float64
	// KernelDelay is the fixed in-kernel interrupt-handling time per
	// response before user code sees it — the paper's constant ~30µs gap
	// between tcpdump and Treadmill curves (§III-C1).
	KernelDelay float64
	// Callback selects inline vs batched completion.
	Callback CallbackStyle
	// PollPeriod is the event-loop period for BatchedCallback.
	PollPeriod float64
	// ReqBytes / RespBytes are wire sizes.
	ReqBytes, RespBytes int
	// Arrival, when non-nil, builds the inter-arrival gap process for the
	// requested open-loop rate instead of the default Poisson stream —
	// bursty MMPP or flash-crowd arrivals at matched long-run load. Called
	// once per StartOpenLoop, so stateful samplers are per-client.
	Arrival func(rate float64) dist.Sampler
	// ConnSkew is the Zipf exponent of per-connection load (0 = uniform).
	// Real multiplexed connections never carry identical traffic; this
	// mild inequality is what makes connection-to-core placement matter
	// across restarts (performance hysteresis). Keep it small: a skew
	// that lets one core exceed its service capacity turns hysteresis
	// into divergence.
	ConnSkew float64
}

// DefaultClientConfig returns a well-provisioned Treadmill-style client.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Cores:       4,
		FreqHz:      2.4e9,
		SendCycles:  2600,
		RecvCycles:  4200,
		KernelDelay: 30e-6,
		Callback:    InlineCallback,
		PollPeriod:  50e-6,
		ReqBytes:    120,
		RespBytes:   1100,
		ConnSkew:    0.15,
	}
}

func (c ClientConfig) validate() error {
	if c.Cores < 1 || c.FreqHz <= 0 {
		return fmt.Errorf("sim: client needs cores >= 1 and positive freq")
	}
	if c.SendCycles < 0 || c.RecvCycles < 0 || c.KernelDelay < 0 {
		return fmt.Errorf("sim: client costs must be >= 0")
	}
	if c.Callback == BatchedCallback && c.PollPeriod <= 0 {
		return fmt.Errorf("sim: batched callbacks need a positive poll period")
	}
	if c.ReqBytes <= 0 || c.RespBytes <= 0 {
		return fmt.Errorf("sim: packet sizes must be positive")
	}
	if c.ConnSkew < 0 {
		return fmt.Errorf("sim: ConnSkew %g must be >= 0", c.ConnSkew)
	}
	return nil
}

// Client is one simulated load-generating machine connected to a server
// through a pair of links.
type Client struct {
	ID  int
	cfg ClientConfig

	eng    *Engine
	rng    *dist.RNG
	cpu    *pool
	toSrv  *Link
	fromSr *Link
	server *Server

	// OnComplete receives every finished request. The experiment layer
	// decides what to record. The pointer is valid until the callback
	// returns — the client then reuses the record for a later request — so
	// copy (*r) to keep it.
	OnComplete func(*Request)

	// free is a LIFO of this client's finished Requests, for issue to reuse:
	// the working set is the peak number outstanding, not one per request.
	free []*Request

	nextID      uint64
	outstanding int
	sent        uint64
	done        uint64

	stopped bool
}

// NewClient wires a client to a server via the given directional links.
func NewClient(id int, eng *Engine, cfg ClientConfig, rng *dist.RNG, server *Server, toServer, fromServer *Link) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Client{
		ID:     id,
		cfg:    cfg,
		eng:    eng,
		rng:    rng,
		cpu:    newPool(eng, cfg.Cores, cfg.FreqHz),
		toSrv:  toServer,
		fromSr: fromServer,
		server: server,
	}, nil
}

// Outstanding returns the number of this client's in-flight requests.
func (c *Client) Outstanding() int { return c.outstanding }

// Sent and Done report request counters.
func (c *Client) Sent() uint64 { return c.sent }

// Done returns the number of completed requests.
func (c *Client) Done() uint64 { return c.done }

// Utilization returns the client CPU utilization — the quantity that must
// stay low to avoid client-side queueing bias (paper §II-C).
func (c *Client) Utilization() float64 { return c.cpu.utilization() }

// Stop halts load generation after in-flight work drains.
func (c *Client) Stop() { c.stopped = true }

// Stopped reports whether Stop has been called (telemetry probes use it to
// decide when to stop self-rescheduling).
func (c *Client) Stopped() bool { return c.stopped }

// StartOpenLoop generates requests with exponential inter-arrival times at
// the given rate across conns connections, the paper's required open-loop
// design (§II-A). Generation continues until Stop or the engine horizon.
func (c *Client) StartOpenLoop(rate float64, conns int) error {
	if rate <= 0 || math.IsNaN(rate) {
		return fmt.Errorf("sim: open-loop rate %g must be positive", rate)
	}
	if conns < 1 {
		return fmt.Errorf("sim: need >= 1 connection")
	}
	base := c.ID * 1000
	for k := 0; k < conns; k++ {
		c.server.Connect(base + k)
	}
	// Per-connection load is unequal per ConnSkew, over a
	// per-client-shuffled connection order (paper §II-D hysteresis).
	zipf, err := dist.NewZipf(conns, c.cfg.ConnSkew)
	if err != nil {
		return err
	}
	order := c.rng.Perm(conns)
	var inter dist.Sampler = dist.Exponential{Rate: rate}
	if c.cfg.Arrival != nil {
		if inter = c.cfg.Arrival(rate); inter == nil {
			return fmt.Errorf("sim: Arrival factory returned nil sampler")
		}
	}
	gen := &arrivals{c: c, base: base, order: order, zipf: zipf, inter: inter}
	c.eng.after(inter.Sample(c.rng), gen, opArrival, nil)
	return nil
}

// arrivals is one open-loop generator: the state of a StartOpenLoop call,
// resumed once per arrival.
type arrivals struct {
	c     *Client
	base  int
	order []int
	zipf  *dist.Zipf
	inter dist.Sampler
}

// handle issues the request that is due and schedules the next arrival.
func (a *arrivals) handle(op, *Request) {
	c := a.c
	if c.stopped {
		return
	}
	conn := a.base + a.order[a.zipf.Rank(c.rng)]
	c.issue(conn, false, 0)
	c.eng.after(a.inter.Sample(c.rng), a, opArrival, nil)
}

// StartClosedLoop runs conns concurrent connections that each wait for the
// previous response (plus thinkTime) before sending again — the flawed
// worker-thread pattern of prior load testers (§II-A).
func (c *Client) StartClosedLoop(conns int, thinkTime float64) error {
	if conns < 1 {
		return fmt.Errorf("sim: need >= 1 connection")
	}
	if thinkTime < 0 {
		return fmt.Errorf("sim: negative think time")
	}
	base := c.ID * 1000
	for k := 0; k < conns; k++ {
		conn := base + k
		c.server.Connect(conn)
		c.issue(conn, true, thinkTime)
	}
	return nil
}

// issue creates and sends one request, on a recycled record when there is
// one: the whole struct is overwritten, so nothing of its last use survives.
// A closed-loop request sends its successor on the same connection think
// seconds after it completes.
func (c *Client) issue(connID int, closed bool, think float64) {
	var req *Request
	if n := len(c.free); n > 0 {
		req, c.free = c.free[n-1], c.free[:n-1]
	} else {
		req = new(Request)
	}
	*req = Request{
		ID:       c.nextID,
		ConnID:   connID,
		SizeReq:  c.cfg.ReqBytes,
		SizeResp: c.cfg.RespBytes,
		Created:  c.eng.Now(),
		owner:    c,
		closed:   closed,
		think:    think,
	}
	c.nextID++
	c.sent++
	c.outstanding++
	// Send path: client CPU work, then the wire (opSendDone onwards).
	c.cpu.submit(c.cfg.SendCycles, opSendDone, req)
}

// handle advances one of this client's requests a hop. Each hop charges its
// span to the request's phase vector (client pool queue+work, NIC
// serialization queues, wire transit, kernel and receive work) so the spans
// tile [Created, ClientDone] exactly.
func (c *Client) handle(op op, req *Request) {
	switch op {
	case opSendDone:
		req.ReqAtClientNIC = c.eng.Now()
		req.Phases.Add(anatomy.ClientSend, req.ReqAtClientNIC-req.Created)
		c.send(c.toSrv, req.SizeReq, c.server, opAtServer, req)
	case opServerDone:
		c.send(c.fromSr, req.SizeResp, c, opAtClient, req)
	case opAtClient:
		// Response path: kernel interrupt handling, then user-space
		// processing, then the callback (inline or at the next poll
		// boundary).
		req.RespAtClientNIC = c.eng.Now()
		c.eng.after(c.cfg.KernelDelay, c, opKernelDone, req)
	case opKernelDone:
		c.cpu.submit(c.cfg.RecvCycles, opRecvDone, req)
	case opRecvDone:
		if c.cfg.Callback != BatchedCallback {
			c.complete(req)
			return
		}
		now := c.eng.Now()
		boundary := math.Ceil(now/c.cfg.PollPeriod) * c.cfg.PollPeriod
		if boundary < now {
			// One ulp above k·PollPeriod the quotient rounds down to k and
			// the product lands just below now: the poll is happening now.
			boundary = now
		}
		c.eng.at(boundary, c, opPollBoundary, req)
	case opPollBoundary:
		c.complete(req)
	case opThinkDone:
		// req is the finished predecessor, carried only to name the
		// connection and the think time.
		c.reissue(req)
	default:
		panic(fmt.Sprintf("sim: client cannot handle op %d", op))
	}
}

// send puts one packet of req on link l, charging its network spans, and
// resumes h at op when it arrives.
func (c *Client) send(l *Link, sizeBytes int, h handler, op op, req *Request) {
	queueWait, transit, arrival := l.transmit(sizeBytes)
	req.Phases.Add(anatomy.NetQueue, queueWait)
	req.Phases.Add(anatomy.Wire, transit)
	c.eng.at(arrival, h, op, req)
}

// complete runs the load tester's callback for req — the one place a
// client-issued request ends — then recycles the record and, on a closed-loop
// connection, sends the next request.
func (c *Client) complete(req *Request) {
	req.ClientDone = c.eng.Now()
	req.Phases.Add(anatomy.ClientRecv, req.ClientDone-req.RespAtClientNIC)
	c.outstanding--
	c.done++
	if c.OnComplete != nil {
		c.OnComplete(req)
	}
	switch {
	case !req.closed || c.stopped:
		c.free = append(c.free, req)
	case req.think > 0:
		c.eng.after(req.think, c, opThinkDone, req)
	default:
		c.reissue(req)
	}
}

// reissue recycles the finished closed-loop req and sends its successor on
// the same connection.
func (c *Client) reissue(req *Request) {
	connID, think := req.ConnID, req.think
	c.free = append(c.free, req)
	c.issue(connID, true, think)
}
