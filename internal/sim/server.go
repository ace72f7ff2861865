package sim

import (
	"fmt"
	"math"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/infersim"
)

// NUMAPolicy is the memory-placement policy for connection buffers (paper
// Table III: "numa" factor; low level = same-node, high = interleave).
type NUMAPolicy int

const (
	// NUMASameNode allocates each connection's buffers on node 0 until it
	// fills. Workers on socket 0 access locally; workers on socket 1 pay
	// the full remote penalty — so half the connections are fast and half
	// slow (paper Finding 6 explains the same mechanism).
	NUMASameNode NUMAPolicy = iota
	// NUMAInterleave round-robins pages across nodes, so every worker
	// pays a partial remote penalty on most requests and loses spatial
	// locality; on average it is worse than same-node.
	NUMAInterleave
)

// String returns the policy name as used in the paper.
func (p NUMAPolicy) String() string {
	if p == NUMASameNode {
		return "same-node"
	}
	return "interleave"
}

// NICAffinity is the mapping of RSS interrupt queues to cores (paper Table
// III: "nic" factor; low = same-node, high = all-nodes).
type NICAffinity int

const (
	// NICSameNode maps all interrupt queues to cores on socket 0,
	// concentrating kernel work there.
	NICSameNode NICAffinity = iota
	// NICAllNodes spreads interrupt queues across every core.
	NICAllNodes
)

// String returns the affinity name as used in the paper.
func (a NICAffinity) String() string {
	if a == NICSameNode {
		return "same-node"
	}
	return "all-nodes"
}

// ServerConfig describes the simulated server under test.
type ServerConfig struct {
	CPU CPUConfig
	// RSSQueues is the number of NIC interrupt queues (the paper's NIC
	// exposes a 4-bit hash = 16 queues).
	RSSQueues   int
	NICAffinity NICAffinity
	NUMA        NUMAPolicy
	// IRQCycles is kernel interrupt-handling work per incoming request.
	IRQCycles float64
	// UserCycles samples the user-space service demand per request.
	UserCycles dist.Sampler
	// RemotePenaltyCycles is the extra per-request cost of fully remote
	// buffer access.
	RemotePenaltyCycles float64
	// InterleaveFraction is the effective fraction of the remote penalty
	// paid per request under NUMAInterleave (spatial locality loss makes
	// it exceed the naive 0.5 for two nodes).
	InterleaveFraction float64
	// Forward, when non-nil, turns the server into an mcrouter-style
	// proxy: after user-space work (parse + route) the request waits a
	// backend round trip sampled from Forward before the response departs.
	Forward dist.Sampler
	// Inference, when non-nil, replaces the user-space service stage with
	// the two-phase LLM-inference model: after interrupt handling the
	// request enters an iteration batcher (bounded admission queue,
	// prefill linear in input tokens, decode linear in output tokens).
	// Latency then decomposes into the Infer* anatomy phases instead of
	// Service, and UserCycles is unused.
	Inference *InferenceConfig
	// FanDegree, when > 1 with Forward set, scatter-gathers each request
	// over this many backend legs sampled independently from Forward; the
	// response departs when the slowest leg returns. The fastest leg is
	// accounted as Backend, the slowest-minus-fastest gap as FanStraggler.
	FanDegree int
	// FanMergeCost is fixed response-reassembly time paid after the
	// slowest leg of a fan-out (FanMerge phase).
	FanMergeCost float64
	// RandomPlacement assigns connections round-robin over a randomly
	// shuffled core order instead of core-ID order. Per-core connection
	// counts stay balanced (as memcached's round-robin guarantees), but
	// WHICH connections share a core with the interrupt-heavy cores and
	// which land on the remote NUMA socket is re-rolled on every server
	// (re)start. Combined with unequal per-connection load this models
	// the run-to-run thread/connection-to-resource remapping behind
	// performance hysteresis (paper §II-D).
	RandomPlacement bool
}

// DefaultServerConfig models the memcached testbed: ~16µs mean total
// demand per request at 2.2GHz, so 100k RPS ≈ 10% utilization and 800k ≈
// 80%, matching the paper's §III-C setup.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		CPU:                 DefaultCPUConfig(),
		RSSQueues:           16,
		NICAffinity:         NICSameNode,
		NUMA:                NUMASameNode,
		IRQCycles:           3500,
		UserCycles:          dist.LognormalFromMoments(31700, 0.35),
		RemotePenaltyCycles: 5200,
		InterleaveFraction:  0.75,
	}
}

// McrouterServerConfig models the protocol-router workload: heavier
// CPU-bound deserialization (which Turbo accelerates, paper Finding 8) and
// a fast local backend pool behind it.
func McrouterServerConfig() ServerConfig {
	cfg := DefaultServerConfig()
	cfg.UserCycles = dist.LognormalFromMoments(39000, 0.20)
	cfg.IRQCycles = 4000
	cfg.RemotePenaltyCycles = 2600
	// Backend round trip: lightly loaded memcacheds one hop away.
	cfg.Forward = dist.LognormalFromMoments(45e-6, 0.15)
	return cfg
}

// InferenceConfig attaches the two-phase inference service to a simulated
// server. Token counts are sampled server-side (they are properties of the
// request body the client sends; sampling here keeps client hot paths
// untouched).
type InferenceConfig struct {
	// Model is the batching/cost model shared with the real TCP server.
	Model infersim.Config
	// InTokens and OutTokens sample per-request prompt and generation
	// lengths. Samples are rounded and clamped to >= 1 token.
	InTokens, OutTokens dist.Sampler
}

// InferenceServerConfig models a single-accelerator LLM inference server:
// the default infersim cost model with lognormal prompt (~256 tokens) and
// generation (~64 tokens) lengths, ≈100µs own compute per request.
func InferenceServerConfig() ServerConfig {
	cfg := DefaultServerConfig()
	cfg.Inference = &InferenceConfig{
		Model:     infersim.DefaultConfig(),
		InTokens:  dist.LognormalFromMoments(256, 0.5),
		OutTokens: dist.LognormalFromMoments(64, 0.3),
	}
	return cfg
}

// FanoutServerConfig models a scatter-gather root over n shard backends:
// mcrouter-style parse/route work, then n independent backend legs with a
// wider per-leg spread so the slowest of n visibly inflates the tail.
func FanoutServerConfig(n int) ServerConfig {
	cfg := McrouterServerConfig()
	cfg.FanDegree = n
	cfg.FanMergeCost = 6e-6
	cfg.Forward = dist.LognormalFromMoments(45e-6, 0.5)
	return cfg
}

func (c ServerConfig) validate() error {
	if err := c.CPU.validate(); err != nil {
		return err
	}
	if c.Inference != nil {
		if err := c.Inference.Model.Validate(); err != nil {
			return err
		}
		if c.Inference.InTokens == nil || c.Inference.OutTokens == nil {
			return fmt.Errorf("sim: inference token samplers required")
		}
	}
	if c.FanDegree > 1 && c.Forward == nil {
		return fmt.Errorf("sim: FanDegree %d needs a Forward sampler", c.FanDegree)
	}
	if c.FanMergeCost < 0 || math.IsNaN(c.FanMergeCost) {
		return fmt.Errorf("sim: FanMergeCost %g invalid: want >= 0", c.FanMergeCost)
	}
	if c.RSSQueues < 1 {
		return fmt.Errorf("sim: need >= 1 RSS queue, got %d", c.RSSQueues)
	}
	if c.IRQCycles < 0 || c.RemotePenaltyCycles < 0 {
		return fmt.Errorf("sim: cycle costs must be >= 0")
	}
	if c.UserCycles == nil {
		return fmt.Errorf("sim: UserCycles sampler required")
	}
	if c.InterleaveFraction < 0 || c.InterleaveFraction > 1 {
		return fmt.Errorf("sim: InterleaveFraction %g out of [0,1]", c.InterleaveFraction)
	}
	return nil
}

// Server is the simulated machine under test.
type Server struct {
	cfg ServerConfig
	eng *Engine
	cpu *CPU
	rng *dist.RNG

	rssMap []int // interrupt queue -> core ID

	nextWorker int
	placement  []int       // core assignment order (shuffled when RandomPlacement)
	workerOf   map[int]int // connID -> worker core ID

	infer *infersim.Batcher

	inflight  int
	completed uint64
	shed      uint64
}

// engineClock adapts the discrete-event engine to infersim.Clock, so the
// same batcher mechanics run in virtual time.
type engineClock struct{ eng *Engine }

func (c engineClock) Now() float64                   { return c.eng.Now() }
func (c engineClock) After(delay float64, fn func()) { c.eng.Schedule(delay, fn) }

// NewServer builds a server on the engine. rng drives service-time draws.
func NewServer(eng *Engine, cfg ServerConfig, rng *dist.RNG) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cpu, err := NewCPU(eng, cfg.CPU)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, eng: eng, cpu: cpu, rng: rng, workerOf: make(map[int]int)}
	if cfg.Inference != nil {
		s.infer, err = infersim.NewBatcher(cfg.Inference.Model, engineClock{eng})
		if err != nil {
			return nil, err
		}
	}
	s.rssMap = make([]int, cfg.RSSQueues)
	perSocket := cfg.CPU.Cores / cfg.CPU.Sockets
	for q := range s.rssMap {
		switch cfg.NICAffinity {
		case NICSameNode:
			s.rssMap[q] = q % perSocket // socket-0 cores only
		default:
			s.rssMap[q] = q % cfg.CPU.Cores
		}
	}
	return s, nil
}

// CPU exposes the processor model (for utilization and transition probes).
func (s *Server) CPU() *CPU { return s.cpu }

// Inflight returns the number of requests currently inside the server.
func (s *Server) Inflight() int { return s.inflight }

// Completed returns the number of requests fully served.
func (s *Server) Completed() uint64 { return s.completed }

// Shed returns the number of requests rejected at the inference admission
// queue (they still receive an immediate error response).
func (s *Server) Shed() uint64 { return s.shed }

// InferBatcher exposes the inference batcher for occupancy probes; nil
// when the server is not an inference server.
func (s *Server) InferBatcher() *infersim.Batcher { return s.infer }

// Connect registers a connection: it is assigned a worker core round-robin
// (as memcached distributes connections over its threads) and its buffer
// placement is fixed by the NUMA policy for the connection's lifetime.
func (s *Server) Connect(connID int) {
	if _, ok := s.workerOf[connID]; ok {
		return
	}
	if s.placement == nil {
		s.placement = make([]int, s.cfg.CPU.Cores)
		for i := range s.placement {
			s.placement[i] = i
		}
		if s.cfg.RandomPlacement {
			s.rng.Shuffle(len(s.placement), func(i, j int) {
				s.placement[i], s.placement[j] = s.placement[j], s.placement[i]
			})
		}
	}
	core := s.placement[s.nextWorker%len(s.placement)]
	s.nextWorker++
	s.workerOf[connID] = core
}

// rssHash mixes a connection ID the way a NIC's receive-side-scaling hash
// mixes the flow tuple, so queues spread uniformly regardless of the ID
// pattern (a plain modulo aliases structured IDs onto few queues).
func rssHash(connID int) int {
	x := uint64(connID)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x & 0x7fffffff)
}

// numaPenalty returns the extra cycles a request pays for memory placement,
// given the worker core that will serve it.
func (s *Server) numaPenalty(worker *Core) float64 {
	switch s.cfg.NUMA {
	case NUMASameNode:
		if worker.Socket == 0 {
			return 0
		}
		return s.cfg.RemotePenaltyCycles
	default: // interleave
		return s.cfg.RemotePenaltyCycles * s.cfg.InterleaveFraction
	}
}

// arrive starts the server side of req's path; req.owner is resumed at
// opServerDone when the response is ready to leave.
func (s *Server) arrive(req *Request) {
	s.inflight++
	req.ArriveServer = s.eng.Now()
	queue := rssHash(req.ConnID) % s.cfg.RSSQueues
	workerCore, ok := s.workerOf[req.ConnID]
	if !ok {
		// Auto-connect keeps simple experiments terse.
		s.Connect(req.ConnID)
		workerCore = s.workerOf[req.ConnID]
	}
	req.worker = s.cpu.Cores[workerCore]
	// Kernel interrupt handling on the RSS-mapped core, then user-space
	// service on the connection's worker core. Both executions are
	// profiled so every span lands in the request's phase vector: queue
	// wait, C-state exit, ramp deficit, NUMA penalty, pure service.
	req.core = s.cpu.Cores[s.rssMap[queue]]
	req.core.submit(s.cfg.IRQCycles, s, 0, opIRQDone, req)
}

// handle advances req one hop through the server.
func (s *Server) handle(op op, req *Request) {
	switch op {
	case opAtServer:
		s.arrive(req)
	case opIRQDone:
		s.account(req, &req.core.prof, s.cfg.IRQCycles, 0, anatomy.RSSQueue)
		if s.infer != nil {
			s.arriveInference(req)
			return
		}
		req.userCycles = s.cfg.UserCycles.Sample(s.rng)
		req.numaCycles = s.numaPenalty(req.worker)
		req.core = req.worker
		req.core.submit(req.userCycles+req.numaCycles, s, opServiceStart, opServiceDone, req)
	case opServiceStart:
		req.ServiceStart = s.eng.Now()
	case opServiceDone:
		s.account(req, &req.core.prof, req.userCycles, req.numaCycles, anatomy.ServerQueue)
		switch {
		case s.cfg.Forward == nil:
			s.finish(req)
		case s.cfg.FanDegree > 1:
			s.fanout(req)
		default:
			// mcrouter: wait for the backend round trip.
			backend := s.cfg.Forward.Sample(s.rng)
			req.Phases.Add(anatomy.Backend, backend)
			s.eng.after(backend, s, opBackendDone, req)
		}
	case opBackendDone:
		s.finish(req)
	default:
		panic(fmt.Sprintf("sim: server cannot handle op %d", op))
	}
}

// arriveInference hands the request to the iteration batcher. The span
// report tiles the batcher residence exactly, so together with the
// interrupt-stage accounting the phase-sum invariant holds unchanged. The
// report callback is the request path's one remaining closure: the batcher
// is shared with the real TCP server and keeps its func-based interface.
func (s *Server) arriveInference(req *Request) {
	in := tokenRound(s.cfg.Inference.InTokens.Sample(s.rng))
	out := tokenRound(s.cfg.Inference.OutTokens.Sample(s.rng))
	submitAt := s.eng.Now()
	err := s.infer.Submit(in, out, func(rep infersim.Report) {
		req.ServiceStart = submitAt + rep.QueueWait
		req.Phases.Add(anatomy.InferQueue, rep.QueueWait)
		req.Phases.Add(anatomy.InferPrefill, rep.Prefill)
		req.Phases.Add(anatomy.InferDecode, rep.Decode)
		req.Phases.Add(anatomy.InferBatch, rep.BatchExtra)
		s.finish(req)
	})
	if err != nil {
		// Admission queue full: shed with an immediate error response.
		s.shed++
		req.ServiceStart = submitAt
		s.finish(req)
	}
}

// tokenRound converts a sampled token count to a valid integer length.
func tokenRound(v float64) int {
	n := int(v + 0.5)
	if n < 1 {
		return 1
	}
	return n
}

// fanout scatter-gathers over FanDegree backend legs: the response can
// only leave when the slowest leg is back, then pays the merge cost. The
// fastest leg is the unavoidable backend time; the rest of the wait is
// pure straggler inflation (the tail-at-scale effect).
func (s *Server) fanout(req *Request) {
	fastest, slowest := math.Inf(1), 0.0
	for i := 0; i < s.cfg.FanDegree; i++ {
		leg := s.cfg.Forward.Sample(s.rng)
		if leg < fastest {
			fastest = leg
		}
		if leg > slowest {
			slowest = leg
		}
	}
	req.Phases.Add(anatomy.Backend, fastest)
	req.Phases.Add(anatomy.FanStraggler, slowest-fastest)
	if s.cfg.FanMergeCost > 0 {
		req.Phases.Add(anatomy.FanMerge, s.cfg.FanMergeCost)
	}
	s.eng.after(slowest+s.cfg.FanMergeCost, s, opBackendDone, req)
}

// account attributes one profiled core execution to req's phases. The
// service and NUMA cycles are valued at the reference (maximum turbo)
// frequency; everything the execution cost beyond that — running below max
// frequency plus any transition stalls — is P-state/turbo ramp deficit.
// The four spans sum exactly to the profile's submit→complete interval.
func (s *Server) account(req *Request, p *ExecProfile, serviceCycles, numaCycles float64, queuePhase anatomy.Phase) {
	ref := s.cpu.RefHz()
	req.Phases.Add(queuePhase, p.QueueWait)
	req.Phases.Add(anatomy.CStateWake, p.WakeStall)
	req.Phases.Add(anatomy.Service, serviceCycles/ref)
	if numaCycles > 0 {
		req.Phases.Add(anatomy.NUMAPenalty, numaCycles/ref)
	}
	req.Phases.Add(anatomy.PStateRamp, p.TransStall+p.ExecTime-(serviceCycles+numaCycles)/ref)
}

// finish stamps the response ready and hands it back to the request's owner.
func (s *Server) finish(req *Request) {
	req.ServerDone = s.eng.Now()
	s.inflight--
	s.completed++
	req.owner.handle(opServerDone, req)
}
