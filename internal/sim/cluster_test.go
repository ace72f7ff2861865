package sim

import (
	"math"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/oracle"
	"treadmill/internal/stats"
)

// mm1Cluster builds a degenerate cluster that is analytically an M/M/1
// queue: one fixed-frequency core, exponential service, free network, free
// clients.
func mm1Cluster(t *testing.T, lambda, mu float64) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig(1)
	cfg.Server.CPU = CPUConfig{
		Cores: 1, Sockets: 1, BaseHz: 1e9, MinHz: 1e9, TurboHz: 1e9, Steps: 1,
		Governor: Performance, GovernorTick: 1, UpThreshold: 0.5,
		Ambient: 40, TMax: 95, TTurbo: 65, ThermalC: 60, ThermalK: 2, CorePower: 8,
	}
	cfg.Server.IRQCycles = 0
	cfg.Server.RemotePenaltyCycles = 0
	cfg.Server.UserCycles = dist.Exponential{Rate: mu / 1e9} // cycles at 1GHz
	cfg.Clients[0].Config.SendCycles = 0
	cfg.Clients[0].Config.RecvCycles = 0
	cfg.Clients[0].Config.KernelDelay = 0
	cfg.LinkBandwidthBps = 1e15
	cfg.IntraRackDelay = 0
	cfg.CrossRackDelay = 0
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestOpenLoopMatchesMM1(t *testing.T) {
	const lambda, mu = 7000.0, 10000.0
	cl := mm1Cluster(t, lambda, mu)
	var lats []float64
	cl.Clients[0].OnComplete = func(r *Request) {
		if r.Created > 0.5 { // skip transient
			lats = append(lats, r.MeasuredLatency())
		}
	}
	if err := cl.Clients[0].StartOpenLoop(lambda, 4); err != nil {
		t.Fatal(err)
	}
	cl.Run(10)
	if len(lats) < 40000 {
		t.Fatalf("only %d samples", len(lats))
	}
	analytic := oracle.MM1{Lambda: lambda, Mu: mu}
	gotMean := stats.Mean(lats)
	if rel := math.Abs(gotMean-analytic.MeanSojourn()) / analytic.MeanSojourn(); rel > 0.08 {
		t.Errorf("mean latency %g vs M/M/1 %g (rel %.3f)", gotMean, analytic.MeanSojourn(), rel)
	}
	gotP99, _ := stats.Quantile(lats, 0.99)
	wantP99, _ := analytic.SojournQuantile(0.99)
	// Tail estimates from a correlated queueing process converge slowly;
	// 15% brackets the Monte-Carlo error at this sample size.
	if rel := math.Abs(gotP99-wantP99) / wantP99; rel > 0.15 {
		t.Errorf("p99 %g vs M/M/1 %g (rel %.3f)", gotP99, wantP99, rel)
	}
}

func TestClosedLoopCapsOutstanding(t *testing.T) {
	const conns = 6
	cl := mm1Cluster(t, 8000, 10000)
	var samples []int
	cl.SampleOutstanding(100e-6, &samples)
	if err := cl.Clients[0].StartClosedLoop(conns, 0); err != nil {
		t.Fatal(err)
	}
	cl.Run(2)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	maxOut := 0
	for _, s := range samples {
		if s > maxOut {
			maxOut = s
		}
	}
	if maxOut > conns {
		t.Fatalf("closed loop reached %d outstanding with %d connections", maxOut, conns)
	}
}

func TestOpenLoopExceedsClosedLoopOutstanding(t *testing.T) {
	// The paper's Fig. 1: at 80% utilization the open-loop controller's
	// outstanding-request distribution has a far longer tail than a
	// closed-loop controller with a fixed connection pool.
	open := mm1Cluster(t, 8000, 10000)
	var openSamples []int
	open.SampleOutstanding(100e-6, &openSamples)
	if err := open.Clients[0].StartOpenLoop(8000, 8); err != nil {
		t.Fatal(err)
	}
	open.Run(3)

	closed := mm1Cluster(t, 8000, 10000)
	var closedSamples []int
	closed.SampleOutstanding(100e-6, &closedSamples)
	if err := closed.Clients[0].StartClosedLoop(8, 0); err != nil {
		t.Fatal(err)
	}
	closed.Run(3)

	p99 := func(xs []int) float64 {
		f := make([]float64, len(xs))
		for i, v := range xs {
			f[i] = float64(v)
		}
		q, _ := stats.Quantile(f, 0.99)
		return q
	}
	if p99(openSamples) <= p99(closedSamples) {
		t.Errorf("open-loop p99 outstanding %g should exceed closed-loop %g",
			p99(openSamples), p99(closedSamples))
	}
}

func TestClusterValidation(t *testing.T) {
	cfg := DefaultClusterConfig(0)
	if _, err := NewCluster(cfg); err == nil {
		t.Error("no clients should error")
	}
	cfg = DefaultClusterConfig(1)
	cfg.LinkBandwidthBps = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Error("zero bandwidth should error")
	}
	cfg = DefaultClusterConfig(1)
	cfg.CrossRackDelay = cfg.IntraRackDelay / 2
	if _, err := NewCluster(cfg); err == nil {
		t.Error("cross < intra delay should error")
	}
	cfg = DefaultClusterConfig(1)
	cfg.Server.RSSQueues = 0
	if _, err := NewCluster(cfg); err == nil {
		t.Error("no RSS queues should error")
	}
	cfg = DefaultClusterConfig(1)
	cfg.Server.UserCycles = nil
	if _, err := NewCluster(cfg); err == nil {
		t.Error("nil service sampler should error")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultClusterConfig(2)
		cfg.Seed = 42
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []float64
		for _, c := range cl.Clients {
			c.OnComplete = func(r *Request) { lats = append(lats, r.MeasuredLatency()) }
			if err := c.StartOpenLoop(30000, 16); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.2)
		return lats
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRemoteRackClientSeesHigherLatency(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Clients[1].Rack = RemoteRack
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lats := make([][]float64, 2)
	for i, c := range cl.Clients {
		i, c := i, c
		c.OnComplete = func(r *Request) { lats[i] = append(lats[i], r.MeasuredLatency()) }
		if err := c.StartOpenLoop(40000, 16); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.5)
	m0, m1 := stats.Mean(lats[0]), stats.Mean(lats[1])
	// Remote rack adds 2×(cross−intra) ≈ 134µs of round trip.
	if m1-m0 < 100e-6 {
		t.Errorf("remote client mean %g not clearly above local %g", m1, m0)
	}
}

func TestSingleClientOverloadBiasesMeasurement(t *testing.T) {
	// Paper §II-C: a single client pushed hard develops client-side
	// queueing, so its measured latency diverges from the wire latency.
	cfg := DefaultClusterConfig(1)
	cfg.Clients[0].Config.Cores = 1 // starve the client CPU
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clientBias []float64
	cl.Clients[0].OnComplete = func(r *Request) {
		clientBias = append(clientBias, r.ClientLatency())
	}
	// 1 core at 2.4GHz with 6.8k cycles/req saturates near 350k RPS; drive
	// at 330k.
	if err := cl.Clients[0].StartOpenLoop(330000, 64); err != nil {
		t.Fatal(err)
	}
	cl.Run(0.4)
	if cl.Clients[0].Utilization() < 0.7 {
		t.Fatalf("client utilization %g too low for the scenario", cl.Clients[0].Utilization())
	}
	p99, _ := stats.Quantile(clientBias, 0.99)
	if p99 < 50e-6 {
		t.Errorf("client-side bias p99 = %g, expected large under overload", p99)
	}

	// Same aggregate load spread over 8 clients: bias shrinks to ~the
	// constant kernel delay.
	cfg8 := DefaultClusterConfig(8)
	cl8, err := NewCluster(cfg8)
	if err != nil {
		t.Fatal(err)
	}
	var bias8 []float64
	for _, c := range cl8.Clients {
		c.OnComplete = func(r *Request) { bias8 = append(bias8, r.ClientLatency()) }
		if err := c.StartOpenLoop(330000.0/8, 16); err != nil {
			t.Fatal(err)
		}
	}
	cl8.Run(0.4)
	p99m, _ := stats.Quantile(bias8, 0.99)
	if p99m >= p99/2 {
		t.Errorf("multi-client bias p99 %g not clearly below single-client %g", p99m, p99)
	}
}

func TestBatchedCallbackInflatesMeasurement(t *testing.T) {
	base := func(style CallbackStyle) (measured, wire float64) {
		cfg := DefaultClusterConfig(1)
		cfg.Clients[0].Config.Callback = style
		cfg.Clients[0].Config.PollPeriod = 50e-6
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m, w []float64
		cl.Clients[0].OnComplete = func(r *Request) {
			m = append(m, r.MeasuredLatency())
			w = append(w, r.WireLatency())
		}
		if err := cl.Clients[0].StartOpenLoop(50000, 16); err != nil {
			t.Fatal(err)
		}
		cl.Run(0.5)
		return stats.Mean(m), stats.Mean(w)
	}
	mi, wi := base(InlineCallback)
	mb, wb := base(BatchedCallback)
	gapInline, gapBatched := mi-wi, mb-wb
	// Batched polling adds ~half a poll period on average.
	if gapBatched-gapInline < 15e-6 {
		t.Errorf("batched gap %g not clearly above inline gap %g", gapBatched, gapInline)
	}
	_ = wb
}

func TestOndemandLowLoadLatencyPenalty(t *testing.T) {
	// Paper Finding 3: ondemand hurts median latency at LOW load because
	// requests hit downclocked cores and pay transition stalls.
	run := func(gov Governor) float64 {
		cfg := DefaultClusterConfig(4)
		cfg.Server.CPU.Governor = gov
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []float64
		for _, c := range cl.Clients {
			c.OnComplete = func(r *Request) {
				if r.Created > 0.1 {
					lats = append(lats, r.MeasuredLatency())
				}
			}
			if err := c.StartOpenLoop(150000.0/4, 16); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.6)
		med, _ := stats.Quantile(lats, 0.5)
		return med
	}
	od, perf := run(Ondemand), run(Performance)
	if od <= perf {
		t.Errorf("ondemand median %g should exceed performance median %g at low load", od, perf)
	}
}

func TestTurboReducesLatency(t *testing.T) {
	run := func(turbo bool) float64 {
		cfg := DefaultClusterConfig(4)
		cfg.Server.CPU.Governor = Performance
		cfg.Server.CPU.TurboEnabled = turbo
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []float64
		for _, c := range cl.Clients {
			c.OnComplete = func(r *Request) {
				if r.Created > 0.1 {
					lats = append(lats, r.MeasuredLatency())
				}
			}
			if err := c.StartOpenLoop(150000.0/4, 16); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.5)
		return stats.Mean(lats)
	}
	on, off := run(true), run(false)
	if on >= off {
		t.Errorf("turbo-on mean %g should beat turbo-off %g at low load", on, off)
	}
}

func TestNUMAInterleaveWorseAtHighLoad(t *testing.T) {
	run := func(policy NUMAPolicy) float64 {
		cfg := DefaultClusterConfig(8)
		cfg.Server.NUMA = policy
		cfg.Server.CPU.Governor = Performance
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lats []float64
		for _, c := range cl.Clients {
			c.OnComplete = func(r *Request) {
				if r.Created > 0.1 {
					lats = append(lats, r.MeasuredLatency())
				}
			}
			if err := c.StartOpenLoop(700000.0/8, 16); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.4)
		p99, _ := stats.Quantile(lats, 0.99)
		return p99
	}
	same, inter := run(NUMASameNode), run(NUMAInterleave)
	if inter <= same {
		t.Errorf("interleave p99 %g should exceed same-node %g at high load", inter, same)
	}
}

func TestMcrouterForwarding(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.Server = McrouterServerConfig()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lats []float64
	for _, c := range cl.Clients {
		c.OnComplete = func(r *Request) { lats = append(lats, r.ServerLatency()) }
		if err := c.StartOpenLoop(40000, 16); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.3)
	if len(lats) == 0 {
		t.Fatal("no requests completed")
	}
	// Every request must include at least the ~45µs backend round trip.
	mn := stats.Min(lats)
	if mn < 25e-6 {
		t.Errorf("min server latency %g too small to include backend hop", mn)
	}
}

func TestServerUtilizationTargets(t *testing.T) {
	// The calibrated service demand should put ~100k RPS near 10% and the
	// CPU utilization should scale roughly linearly.
	cfg := DefaultClusterConfig(4)
	cfg.Server.CPU.Governor = Performance
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.Clients {
		if err := c.StartOpenLoop(100000.0/4, 16); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.5)
	u := cl.Server.CPU().Utilization()
	if u < 0.06 || u > 0.16 {
		t.Errorf("utilization at 100k RPS = %g, want ~0.10", u)
	}
}

func TestClientConfigValidation(t *testing.T) {
	bad := []func(*ClientConfig){
		func(c *ClientConfig) { c.Cores = 0 },
		func(c *ClientConfig) { c.SendCycles = -1 },
		func(c *ClientConfig) { c.Callback = BatchedCallback; c.PollPeriod = 0 },
		func(c *ClientConfig) { c.ReqBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultClusterConfig(1)
		mut(&cfg.Clients[0].Config)
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("bad client config %d accepted", i)
		}
	}
}

func TestClientStartValidation(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	c := cl.Clients[0]
	if err := c.StartOpenLoop(0, 1); err == nil {
		t.Error("zero rate should error")
	}
	if err := c.StartOpenLoop(100, 0); err == nil {
		t.Error("zero conns should error")
	}
	if err := c.StartClosedLoop(0, 0); err == nil {
		t.Error("zero conns should error")
	}
	if err := c.StartClosedLoop(1, -1); err == nil {
		t.Error("negative think time should error")
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	cl, err := NewCluster(DefaultClusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Clients[0].StartOpenLoop(50000, 8); err != nil {
		t.Fatal(err)
	}
	cl.Run(0.1)
	sentAtStop := cl.Clients[0].Sent()
	cl.StopAll()
	cl.Run(0.3)
	// A few in-flight arrivals may land, but generation must cease.
	if cl.Clients[0].Sent() > sentAtStop+2 {
		t.Errorf("sent grew from %d to %d after Stop", sentAtStop, cl.Clients[0].Sent())
	}
	if cl.Clients[0].Outstanding() != 0 {
		t.Errorf("outstanding = %d after drain", cl.Clients[0].Outstanding())
	}
}

func TestFrequencyTransitionsCounted(t *testing.T) {
	// A load that puts per-core utilization near the governor threshold
	// makes ondemand oscillate between P-states.
	cfg := DefaultClusterConfig(4)
	cfg.Server.CPU.Governor = Ondemand
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.Clients {
		if err := c.StartOpenLoop(350000.0/4, 8); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.3)
	if cl.Server.CPU().Transitions() == 0 {
		t.Error("ondemand near the threshold should log frequency transitions")
	}

	cfgP := DefaultClusterConfig(2)
	cfgP.Server.CPU.Governor = Performance
	cfgP.Server.CPU.TurboEnabled = false
	clP, err := NewCluster(cfgP)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clP.Clients {
		if err := c.StartOpenLoop(75000, 8); err != nil {
			t.Fatal(err)
		}
	}
	clP.Run(0.3)
	if clP.Server.CPU().Transitions() != 0 {
		t.Errorf("performance governor made %d transitions, want 0", clP.Server.CPU().Transitions())
	}
}

func TestThermalModelHeatsUnderLoad(t *testing.T) {
	cfg := DefaultClusterConfig(8)
	cfg.Server.CPU.Governor = Performance
	cfg.Server.CPU.TurboEnabled = true
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.Clients {
		if err := c.StartOpenLoop(700000.0/8, 16); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.5)
	if temp := cl.Server.CPU().SocketTemp(0); temp <= cfg.Server.CPU.Ambient+1 {
		t.Errorf("socket temperature %g did not rise above ambient under high load", temp)
	}
}

// TestBatchedCallbackBoundaryOneUlpPastPoll: when user-space receive work
// finishes one ulp after a poll instant k·PollPeriod, now/PollPeriod rounds
// to exactly k and k·PollPeriod lands below now. The poll that observes the
// response is then happening now; before the clamp this scheduled into the
// past and panicked mid-campaign.
func TestBatchedCallbackBoundaryOneUlpPastPoll(t *testing.T) {
	const period = 50e-6
	for _, k := range []float64{19, 33, 35} {
		now := math.Nextafter(k*period, math.Inf(1))
		if b := math.Ceil(now/period) * period; !(b < now) {
			t.Fatalf("k=%g: boundary %v is not below now %v; the case does not exercise the clamp", k, b, now)
		}
		cfg := DefaultClusterConfig(1)
		cfg.Clients[0].Config.Callback = BatchedCallback
		cfg.Clients[0].Config.PollPeriod = period
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cl.Clients[0]
		var done *Request
		c.OnComplete = func(r *Request) { done = r }
		// A response whose user-space receive work completes exactly at now.
		req := &Request{owner: c, RespAtClientNIC: now - 40e-6}
		c.outstanding++
		cl.Eng.at(now, c, opRecvDone, req)
		cl.Run(now + period)
		if done != req {
			t.Fatalf("k=%g: request did not complete", k)
		}
		if done.ClientDone != now {
			t.Errorf("k=%g: completed at %v, want now = %v", k, done.ClientDone, now)
		}
	}
}
