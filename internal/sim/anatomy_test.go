package sim

import (
	"math"
	"testing"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
)

// collectRequests drives a cluster and returns a copy of every post-warmup
// completed request (the pointer OnComplete receives is only valid until the
// callback returns: the client reuses the record).
func collectRequests(t *testing.T, mutate func(*ClusterConfig), totalRate, warmup, dur float64) []*Request {
	t.Helper()
	cfg := DefaultClusterConfig(4)
	mutate(&cfg)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*Request
	for _, c := range cl.Clients {
		c.OnComplete = func(r *Request) {
			if r.Created > warmup {
				cp := *r
				reqs = append(reqs, &cp)
			}
		}
		if err := c.StartOpenLoop(totalRate/float64(len(cl.Clients)), 8); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(warmup + dur)
	return reqs
}

// TestPhaseSumInvariant is the anatomy ledger's ground-truth check: for every
// completed request, across seeds and across every mechanism the simulator
// models (DVFS governors, turbo, C-state wakes, NUMA penalties, RSS
// spreading, mcrouter backend forwarding, batched callbacks), the per-phase
// spans must tile [Created, ClientDone] exactly — the vector sums to
// MeasuredLatency() within 1e-9 and no span is negative. A violation means a
// span was double-counted or dropped as mechanisms evolved.
func TestPhaseSumInvariant(t *testing.T) {
	configs := []struct {
		name    string
		mutate  func(*ClusterConfig)
		rate    float64
		dur     float64 // 0 = default 0.06s; inference runs at ~1000x lower rates and needs longer
		minReqs int     // 0 = default 1000
	}{
		{"default-ondemand", func(c *ClusterConfig) {}, 150000, 0, 0},
		{"performance-turbo", func(c *ClusterConfig) {
			c.Server.CPU.Governor = Performance
			c.Server.CPU.TurboEnabled = true
		}, 150000, 0, 0},
		{"high-load", func(c *ClusterConfig) {
			c.Server.CPU.Governor = Performance
		}, 600000, 0, 0},
		{"numa-interleave-spread", func(c *ClusterConfig) {
			c.Server.NUMA = NUMAInterleave
			c.Server.NICAffinity = NICAllNodes
			c.Server.RandomPlacement = true
		}, 150000, 0, 0},
		{"mcrouter-backend", func(c *ClusterConfig) {
			c.Server = McrouterServerConfig()
		}, 120000, 0, 0},
		{"batched-callback", func(c *ClusterConfig) {
			for i := range c.Clients {
				c.Clients[i].Config.Callback = BatchedCallback
				c.Clients[i].Config.PollPeriod = 50e-6
			}
		}, 100000, 0, 0},
		{"fanout-8", func(c *ClusterConfig) {
			c.Server = FanoutServerConfig(8)
		}, 120000, 0, 0},
		{"inference-batched", func(c *ClusterConfig) {
			c.Server = InferenceServerConfig()
		}, 3200, 0.5, 1000},
		{"inference-serial-bursty", func(c *ClusterConfig) {
			c.Server = InferenceServerConfig()
			c.Server.Inference.Model.MaxBatch = 1
			for i := range c.Clients {
				c.Clients[i].Config.Arrival = func(rate float64) dist.Sampler {
					m, err := dist.NewMMPP2FromRate(rate, 4, 0.2, 0.02)
					if err != nil {
						panic(err)
					}
					return m
				}
			}
		}, 2400, 0.5, 800},
	}
	for _, tc := range configs {
		dur, minReqs := tc.dur, tc.minReqs
		if dur == 0 {
			dur = 0.06
		}
		if minReqs == 0 {
			minReqs = 1000
		}
		for _, seed := range []uint64{1, 7} {
			reqs := collectRequests(t, func(c *ClusterConfig) {
				tc.mutate(c)
				c.Seed = seed
			}, tc.rate, 0.02, dur)
			if len(reqs) < minReqs {
				t.Fatalf("%s seed %d: only %d requests", tc.name, seed, len(reqs))
			}
			for _, r := range reqs {
				got, want := r.Phases.Sum(), r.MeasuredLatency()
				if d := math.Abs(got - want); d > 1e-9 {
					t.Fatalf("%s seed %d: phase sum %.12g != measured %.12g (|diff| %g)\nphases: %+v",
						tc.name, seed, got, want, d, r.Phases)
				}
				for p, span := range r.Phases {
					if span < 0 {
						t.Fatalf("%s seed %d: negative span %g for phase %v",
							tc.name, seed, span, anatomy.Phase(p))
					}
				}
			}
		}
	}
}

// TestAnatomyFindingTurboOffRampDeficit cross-checks the factorial study's
// statistical attribution mechanistically: the regression says the turbo
// factor moves the tail, and the anatomy must show WHERE. At a load cool
// enough for sustained turbo (performance governor, ~4% utilization), the
// P99 gap between the turbo-off and turbo-on cells must be dominated by the
// pstate_ramp span — the extra execution time of running at BaseHz instead
// of TurboHz — not by queueing or service-demand differences.
func TestAnatomyFindingTurboOffRampDeficit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	run := func(turbo bool) *anatomy.Breakdown {
		agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultClusterConfig(8)
		cfg.Server.CPU.Governor = Performance
		cfg.Server.CPU.TurboEnabled = turbo
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cl.Clients {
			c.OnComplete = func(r *Request) {
				if r.Created > 0.05 {
					agg.Record(r.MeasuredLatency(), r.Phases)
				}
			}
			if err := c.StartOpenLoop(40000.0/8, 8); err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0.35)
		return agg.Finalize()
	}
	off, on := run(false), run(true)
	if off.LowConfidence || on.LowConfidence {
		t.Fatalf("breakdowns low-confidence: off=%q on=%q", off.Reason, on.Reason)
	}

	// Turbo-off must pay a visible ramp deficit at the tail that turbo-on
	// does not (sustained turbo executes at the reference frequency).
	offRamp := off.Tail.Mean[anatomy.PStateRamp]
	onRamp := on.Tail.Mean[anatomy.PStateRamp]
	if offRamp < 5e-6 {
		t.Fatalf("turbo-off tail ramp deficit %g too small to attribute", offRamp)
	}
	if onRamp > offRamp/3 {
		t.Errorf("turbo-on tail ramp %g not clearly below turbo-off %g", onRamp, offRamp)
	}

	// The turbo factor must move the P99, and the movement must land in the
	// ramp span: it is the largest phase of the tail-cut difference and
	// accounts for at least half the total gap.
	if off.P99 <= on.P99 {
		t.Fatalf("turbo-off P99 %g should exceed turbo-on P99 %g", off.P99, on.P99)
	}
	diff := off.Tail.Mean.Minus(on.Tail.Mean)
	if got := diff.ArgMax(); got != anatomy.PStateRamp {
		t.Errorf("largest tail-cut difference is %v, want pstate_ramp\ndiff: %+v", got, diff)
	}
	gap := off.Tail.MeanTotal - on.Tail.MeanTotal
	if gap <= 0 {
		t.Fatalf("tail-cut mean gap %g not positive", gap)
	}
	if diff[anatomy.PStateRamp] < 0.5*gap {
		t.Errorf("ramp deficit %g explains under half the %g tail gap", diff[anatomy.PStateRamp], gap)
	}

	// Within the turbo-off cell, the slowest requests pay more ramp deficit
	// than typical ones (tail excess is positive).
	if ex := off.TailExcess()[anatomy.PStateRamp]; ex <= 0 {
		t.Errorf("turbo-off ramp tail excess %g should be positive", ex)
	}
}
