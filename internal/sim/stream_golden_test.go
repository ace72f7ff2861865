package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"treadmill/internal/dist"
)

// streamHash is an FNV-1a 64 fingerprint of a run's request stream: every
// completed request, in completion order, contributes its identity, its
// seven timestamps and its phase vector as raw bit patterns; the run's
// executed-event count closes the hash. Any change to the order of
// Engine.At calls, to an RNG draw or to one floating-point expression on the
// request path moves it.
type streamHash struct {
	h hash.Hash64
	n int
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (s *streamHash) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.h.Write(b[:])
}

func (s *streamHash) request(r *Request) {
	s.n++
	s.word(r.ID)
	s.word(uint64(r.ConnID))
	for _, t := range [...]float64{
		r.Created, r.ReqAtClientNIC, r.ArriveServer, r.ServiceStart,
		r.ServerDone, r.RespAtClientNIC, r.ClientDone,
	} {
		s.word(math.Float64bits(t))
	}
	for _, span := range r.Phases {
		s.word(math.Float64bits(span))
	}
}

// fingerprint instantiates cfg, starts load on every client, runs to the
// horizon and returns the stream's hash, the number of completed requests
// and the cluster (for post-run assertions).
func fingerprint(t *testing.T, cfg ClusterConfig, start func(*Client) error, horizon float64) (uint64, int, *Cluster) {
	t.Helper()
	return fingerprintThen(t, cfg, start, horizon, func(*Request) {})
}

// fingerprintThen is fingerprint with a hook that gets each request after it
// has been hashed, still inside OnComplete.
func fingerprintThen(t *testing.T, cfg ClusterConfig, start func(*Client) error, horizon float64, then func(*Request)) (uint64, int, *Cluster) {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := newStreamHash()
	for _, c := range cl.Clients {
		c.OnComplete = func(r *Request) {
			fp.request(r)
			then(r)
		}
		if err := start(c); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(horizon)
	fp.word(cl.Eng.Processed())
	return fp.h.Sum64(), fp.n, cl
}

// streamCase is one branch of the request state machine.
type streamCase struct {
	name   string
	mutate func(*ClusterConfig)
	// start begins load generation on one client.
	start   func(*Client) error
	horizon float64
	// check, when set, asserts the run actually took the branch it is named
	// for.
	check func(*testing.T, *Cluster)
}

// openLoop starts an 8-connection open-loop generator carrying one client's
// share of total on a 4-client cluster.
func openLoop(total float64) func(*Client) error {
	return func(c *Client) error { return c.StartOpenLoop(total/4, 8) }
}

func mmpp2(rate float64) dist.Sampler {
	m, err := dist.NewMMPP2FromRate(rate, 4, 0.2, 0.02)
	if err != nil {
		panic(err)
	}
	return m
}

func streamCases() []streamCase {
	none := func(*ClusterConfig) {}
	return []streamCase{
		{name: "default-ondemand", mutate: none, start: openLoop(150000), horizon: 0.04},
		{name: "performance-turbo", mutate: func(c *ClusterConfig) {
			c.Server.CPU.Governor = Performance
			c.Server.CPU.TurboEnabled = true
		}, start: openLoop(150000), horizon: 0.04},
		{name: "high-load-interleave-spread", mutate: func(c *ClusterConfig) {
			c.Server.CPU.Governor = Performance
			c.Server.NUMA = NUMAInterleave
			c.Server.NICAffinity = NICAllNodes
			c.Server.RandomPlacement = true
			c.Clients[3].Rack = RemoteRack
		}, start: openLoop(700000), horizon: 0.02},
		{name: "mcrouter", mutate: func(c *ClusterConfig) {
			c.Server = McrouterServerConfig()
		}, start: openLoop(120000), horizon: 0.04},
		{name: "fanout-8-mmpp2", mutate: func(c *ClusterConfig) {
			c.Server = FanoutServerConfig(8)
			for i := range c.Clients {
				c.Clients[i].Config.Arrival = mmpp2
			}
		}, start: openLoop(120000), horizon: 0.04},
		{name: "inference", mutate: func(c *ClusterConfig) {
			c.Server = InferenceServerConfig()
		}, start: openLoop(3200), horizon: 0.5},
		{name: "inference-shed", mutate: func(c *ClusterConfig) {
			c.Server = InferenceServerConfig()
			c.Server.Inference.Model.MaxBatch = 1
			c.Server.Inference.Model.QueueCap = 4
		}, start: openLoop(6000), horizon: 0.3, check: func(t *testing.T, cl *Cluster) {
			if cl.Server.Shed() == 0 {
				t.Error("inference-shed: admission queue never overflowed")
			}
		}},
		{name: "batched-callback", mutate: func(c *ClusterConfig) {
			for i := range c.Clients {
				c.Clients[i].Config.Callback = BatchedCallback
			}
		}, start: openLoop(100000), horizon: 0.04},
		{name: "closed-loop", mutate: none,
			start: func(c *Client) error { return c.StartClosedLoop(6, 0) }, horizon: 0.02},
		{name: "closed-loop-think", mutate: none,
			start: func(c *Client) error { return c.StartClosedLoop(6, 40e-6) }, horizon: 0.03},
	}
}

// runStream drives one case under one seed, handing every hashed request to
// then, and returns its fingerprint and the number of completed requests.
func runStream(t *testing.T, sc streamCase, seed uint64, then func(*Request)) (uint64, int) {
	t.Helper()
	cfg := DefaultClusterConfig(4)
	sc.mutate(&cfg)
	cfg.Seed = seed
	h, n, cl := fingerprintThen(t, cfg, sc.start, sc.horizon, then)
	if sc.check != nil {
		sc.check(t, cl)
	}
	return h, n
}

var streamSeeds = [3]uint64{1, 7, 42}

// streamGolden holds the fingerprints of streamCases × streamSeeds as
// produced by the closure-per-hop simulator this request path replaced
// (commit 9dfa063). They are not to be regenerated when the request path is
// restructured: the point of the test is that a restructuring leaves every
// timestamp of every request, and the event count, bit-identical.
var streamGolden = map[string][3]uint64{
	"default-ondemand":            {0x4e2c2f667af31b37, 0xcc3bf104b66bd225, 0x229dee6ef859d721},
	"performance-turbo":           {0x3d512c641a8af695, 0x073a45c82ade0d14, 0x7433b38e1de9a87f},
	"high-load-interleave-spread": {0xc3ca830d6aad0541, 0x8cc0689111042940, 0x7c449d0fc88d2dee},
	"mcrouter":                    {0x25b029fa8d8da2a8, 0x8c7cbb035528ec8a, 0xdb335eb9b1eb27dc},
	"fanout-8-mmpp2":              {0x9a7ba65cd922f199, 0x6b780dd50b86c3eb, 0x047060414f452ebe},
	"inference":                   {0xa1ebbaea3a7e3343, 0xbb7f7ec549a86fca, 0xa9e9ab72ba2ee67d},
	"inference-shed":              {0x5d4674351ead0656, 0xc9aa34452144d0b9, 0x78326155ce3ceae9},
	"batched-callback":            {0xcb1278e9eba05790, 0xf89866c0067e97ae, 0x0e1debca640cd9c5},
	"closed-loop":                 {0x9a1a2fc48416d8d3, 0xfa9df20e2f2fa7e9, 0x63e77053f5bc29ff},
	"closed-loop-think":           {0x4b52585d002c6f71, 0x3fdfbe6070943b7d, 0xfdda13217d2b108a},
}

// TestStreamGolden pins the complete request stream — not just quantile
// samples — of every branch the request state machine has: both governors,
// turbo, NUMA/RSS/placement variants under queueing load, a remote rack, the
// mcrouter backend hop, fan-out under bursty arrivals, the inference batcher
// with and without shedding, batched callbacks, and closed-loop clients with
// and without think time.
func TestStreamGolden(t *testing.T) {
	checkStreamGolden(t, func(*Request) {})
}

// TestDeadRequestStreamGolden: a completed request is dead to the simulator.
// Every measurement the callback was handed is overwritten with NaN before it
// returns, and every branch still produces its golden stream — so nothing on
// the path (closed-loop successor, think timer, batched poll, inference
// report, shed) reads a request's timestamps or phases after OnComplete, and
// a recycled record carries nothing of its last use into the next request.
func TestDeadRequestStreamGolden(t *testing.T) {
	nan := math.NaN()
	checkStreamGolden(t, func(r *Request) {
		r.Created, r.ReqAtClientNIC, r.ArriveServer, r.ServiceStart = nan, nan, nan, nan
		r.ServerDone, r.RespAtClientNIC, r.ClientDone = nan, nan, nan
		for i := range r.Phases {
			r.Phases[i] = nan
		}
	})
}

func checkStreamGolden(t *testing.T, then func(*Request)) {
	for _, sc := range streamCases() {
		want, ok := streamGolden[sc.name]
		for i, seed := range streamSeeds {
			got, n := runStream(t, sc, seed, then)
			if n < 500 {
				t.Errorf("%s seed %d: only %d requests completed; the case pins too little", sc.name, seed, n)
			}
			if !ok || got != want[i] {
				t.Errorf("%s seed %d: stream fingerprint %#016x over %d requests, want %#016x",
					sc.name, seed, got, n, want[i])
			}
		}
	}
}
