package sim

import (
	"fmt"

	"treadmill/internal/dist"
)

// Rack identifies a client's placement relative to the server. Cross-rack
// clients traverse an extra aggregation hop with higher propagation delay —
// the source of the per-client bias in the paper's Fig. 2.
type Rack int

const (
	// SameRack places the client behind the server's top-of-rack switch.
	SameRack Rack = iota
	// RemoteRack places the client one aggregation hop away.
	RemoteRack
)

// ClientSpec is one client machine in a cluster.
type ClientSpec struct {
	Config ClientConfig
	Rack   Rack
}

// ClusterConfig wires a full testbed: one server and a set of clients.
type ClusterConfig struct {
	Server ServerConfig
	// Clients lists the load-generating machines.
	Clients []ClientSpec
	// LinkBandwidthBps is the NIC line rate (default models 10GbE).
	LinkBandwidthBps float64
	// IntraRackDelay / CrossRackDelay are one-way propagation+switching
	// delays.
	IntraRackDelay float64
	CrossRackDelay float64
	// Seed makes the whole cluster deterministic.
	Seed uint64
}

// DefaultClusterConfig builds the paper's §III-C testbed shape: one server
// and n identical same-rack Treadmill-style clients over 10GbE.
func DefaultClusterConfig(nClients int) ClusterConfig {
	cfg := ClusterConfig{
		Server:           DefaultServerConfig(),
		LinkBandwidthBps: 10e9,
		IntraRackDelay:   18e-6,
		CrossRackDelay:   85e-6,
		Seed:             1,
	}
	for i := 0; i < nClients; i++ {
		cfg.Clients = append(cfg.Clients, ClientSpec{Config: DefaultClientConfig(), Rack: SameRack})
	}
	return cfg
}

// Cluster is an instantiated testbed ready to generate load.
type Cluster struct {
	Eng     *Engine
	Server  *Server
	Clients []*Client

	cfg ClusterConfig
	// kit is the storage drawn from the store, kept for Release to refill.
	kit      *kit
	released bool
}

// NewCluster instantiates the testbed. Its load-sized buffers come from the
// last released cluster when there is one (see Release); nothing about the
// simulation depends on whether they do.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Clients) == 0 {
		return nil, fmt.Errorf("sim: cluster needs at least one client")
	}
	if cfg.LinkBandwidthBps <= 0 {
		return nil, fmt.Errorf("sim: link bandwidth must be positive")
	}
	if cfg.IntraRackDelay < 0 || cfg.CrossRackDelay < cfg.IntraRackDelay {
		return nil, fmt.Errorf("sim: need 0 <= intra-rack delay <= cross-rack delay")
	}
	eng := &Engine{}
	root := dist.NewRNG(cfg.Seed)
	srv, err := NewServer(eng, cfg.Server, root.Fork())
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Eng: eng, Server: srv, cfg: cfg}
	for i, spec := range cfg.Clients {
		delay := cfg.IntraRackDelay
		if spec.Rack == RemoteRack {
			delay = cfg.CrossRackDelay
		}
		to, err := NewLink(eng, cfg.LinkBandwidthBps, delay)
		if err != nil {
			return nil, err
		}
		from, err := NewLink(eng, cfg.LinkBandwidthBps, delay)
		if err != nil {
			return nil, err
		}
		c, err := NewClient(i, eng, spec.Config, root.Fork(), srv, to, from)
		if err != nil {
			return nil, fmt.Errorf("sim: client %d: %w", i, err)
		}
		cl.Clients = append(cl.Clients, c)
	}
	if k := drawKit(); k != nil {
		cl.adopt(k)
	}
	return cl, nil
}

// TotalOutstanding returns the number of requests in flight across all
// clients — the quantity whose distribution the paper's Fig. 1 compares
// between open- and closed-loop controllers.
func (c *Cluster) TotalOutstanding() int {
	n := 0
	for _, cl := range c.Clients {
		n += cl.Outstanding()
	}
	return n
}

// SampleOutstanding installs a periodic probe that appends
// TotalOutstanding to out every period seconds until the cluster drains
// (all clients stopped, nothing in flight).
func (c *Cluster) SampleOutstanding(period float64, out *[]int) {
	c.probeEvery(period, 0, func() {
		*out = append(*out, c.TotalOutstanding())
	})
}

// StopAll halts generation on every client.
func (c *Cluster) StopAll() {
	for _, cl := range c.Clients {
		cl.Stop()
	}
}

// Run advances simulated time to the given horizon.
func (c *Cluster) Run(until float64) { c.Eng.Run(until) }
