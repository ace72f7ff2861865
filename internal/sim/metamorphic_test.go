package sim

import (
	"math"
	"testing"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
)

// Metamorphic checks of the simulator's causal structure: transformations of
// the configuration whose effect on every request is known in closed form.
// They catch what distribution-level oracles cannot — a hop charged twice, a
// delay applied on one direction only, a cost that bypasses the frequency
// model.

// reqKey identifies a request across two runs of the same arrival stream.
type reqKey struct {
	conn int
	id   uint64
}

// runToDrain generates open-loop load until stopAt, lets everything in
// flight finish, and returns a copy of every completed request (the pointer
// OnComplete receives is only valid until the callback returns: the client
// reuses the record).
func runToDrain(t *testing.T, cfg ClusterConfig, totalRate, stopAt float64) map[reqKey]*Request {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[reqKey]*Request)
	for _, c := range cl.Clients {
		base := c.ID * 1000
		c.OnComplete = func(r *Request) {
			cp := *r
			out[reqKey{base, r.ID}] = &cp
		}
		if err := c.StartOpenLoop(totalRate/float64(len(cl.Clients)), 4); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(stopAt)
	cl.StopAll()
	cl.Run(stopAt + 0.01)
	if n := cl.TotalOutstanding(); n != 0 {
		t.Fatalf("%d requests still in flight after the drain window", n)
	}
	return out
}

// TestMetamorphicLinkDelayShiftsLatency: with every frequency pinned
// (performance governor, turbo off: no tick ever changes a core's speed, and
// no C-state exits are charged) and a load so low that the client pool
// never queues, the server sees the same arrival stream L seconds later. So
// adding L to the one-way link delay moves every request's measured latency
// by exactly 2L and leaves its server residence alone.
func TestMetamorphicLinkDelayShiftsLatency(t *testing.T) {
	const L = 7e-6
	base := DefaultClusterConfig(2)
	base.Server.CPU.Governor = Performance
	base.Server.CPU.TurboEnabled = false
	base.Seed = 3
	shifted := base
	shifted.IntraRackDelay += L
	shifted.CrossRackDelay += L

	a := runToDrain(t, base, 4000, 0.25)
	b := runToDrain(t, shifted, 4000, 0.25)
	if len(a) < 800 || len(a) != len(b) {
		t.Fatalf("completed %d vs %d requests", len(a), len(b))
	}
	cc := base.Clients[0].Config
	send := cc.SendCycles / cc.FreqHz
	recv := cc.KernelDelay + cc.RecvCycles/cc.FreqHz
	for k, ra := range a {
		rb, ok := b[k]
		if !ok {
			t.Fatalf("request %v missing from the shifted run", k)
		}
		for _, r := range []*Request{ra, rb} {
			// Precondition: the client pool never queued, on either path.
			if d := math.Abs(r.Phases[anatomy.ClientSend] - send); d > 1e-12 {
				t.Fatalf("request %v: client send span %g != %g; pool queued, load too high for the test", k, r.Phases[anatomy.ClientSend], send)
			}
			if d := math.Abs(r.Phases[anatomy.ClientRecv] - recv); d > 1e-12 {
				t.Fatalf("request %v: client recv span %g != %g; pool queued, load too high for the test", k, r.Phases[anatomy.ClientRecv], recv)
			}
		}
		if d := math.Abs(rb.MeasuredLatency() - ra.MeasuredLatency() - 2*L); d > 1e-9 {
			t.Errorf("request %v: measured latency moved by %g, want 2L = %g", k, rb.MeasuredLatency()-ra.MeasuredLatency(), 2*L)
		}
		if d := math.Abs(rb.ServerLatency() - ra.ServerLatency()); d > 1e-9 {
			t.Errorf("request %v: server latency moved by %g, want 0", k, rb.ServerLatency()-ra.ServerLatency())
		}
		if d := math.Abs(rb.ArriveServer - ra.ArriveServer - L); d > 1e-9 {
			t.Errorf("request %v: server arrival moved by %g, want L = %g", k, rb.ArriveServer-ra.ArriveServer, L)
		}
	}
}

// scaled multiplies another sampler's draws by a constant, consuming the
// same random numbers.
type scaled struct {
	by    float64
	inner dist.Sampler
}

func (s scaled) Sample(rng *dist.RNG) float64 { return s.by * s.inner.Sample(rng) }
func (s scaled) Mean() float64                { return s.by * s.inner.Mean() }

// TestMetamorphicCycleFrequencyScaling: time on a core is cycles/frequency
// and nothing else, so doubling every cycle cost and every frequency changes
// nothing. Doubling is exact in binary floating point, which makes the
// assertion bit-identity of every timestamp and phase span, not a tolerance —
// under both governors, with the ondemand step ladder and the turbo derating
// curve scaling along.
func TestMetamorphicCycleFrequencyScaling(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gov   Governor
		turbo bool
		rate  float64
	}{
		{"ondemand", Ondemand, false, 150000},
		{"ondemand-turbo", Ondemand, true, 400000},
		{"performance", Performance, false, 400000},
		{"performance-turbo", Performance, true, 600000},
	} {
		base := DefaultClusterConfig(4)
		base.Server.CPU.Governor = tc.gov
		base.Server.CPU.TurboEnabled = tc.turbo
		base.Server.NUMA = NUMAInterleave // every request pays a NUMA share
		base.Seed = 11

		double := base
		double.Clients = append([]ClientSpec(nil), base.Clients...)
		for i := range double.Clients {
			c := &double.Clients[i].Config
			c.FreqHz *= 2
			c.SendCycles *= 2
			c.RecvCycles *= 2
		}
		s := &double.Server
		s.IRQCycles *= 2
		s.RemotePenaltyCycles *= 2
		s.UserCycles = scaled{2, s.UserCycles}
		s.CPU.MinHz *= 2
		s.CPU.BaseHz *= 2
		s.CPU.TurboHz *= 2

		fa, na, _ := fingerprint(t, base, openLoop(tc.rate), 0.03)
		fb, nb, _ := fingerprint(t, double, openLoop(tc.rate), 0.03)
		if na < 3000 {
			t.Fatalf("%s: only %d requests", tc.name, na)
		}
		if fa != fb || na != nb {
			t.Errorf("%s: doubling cycles and frequencies changed the stream: %#x (%d requests) vs %#x (%d)",
				tc.name, fa, na, fb, nb)
		}
	}
}

// TestMetamorphicSeedDeterminism: the seed is the only source of variation.
func TestMetamorphicSeedDeterminism(t *testing.T) {
	cfg := DefaultClusterConfig(4)
	cfg.Seed = 5
	a, na, _ := fingerprint(t, cfg, openLoop(300000), 0.03)
	b, nb, _ := fingerprint(t, cfg, openLoop(300000), 0.03)
	if a != b || na != nb {
		t.Errorf("same seed, different streams: %#x (%d requests) vs %#x (%d)", a, na, b, nb)
	}
	cfg.Seed = 6
	c, _, _ := fingerprint(t, cfg, openLoop(300000), 0.03)
	if c == a {
		t.Errorf("seeds 5 and 6 produced the same stream %#x", a)
	}
}
