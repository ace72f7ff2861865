package sim

import (
	"testing"
)

// BenchmarkEngineEvents measures raw event throughput of the simulator
// core (events/op is 1; ns/op is the per-event cost).
func BenchmarkEngineEvents(b *testing.B) {
	eng := &Engine{}
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(1e-6, tick)
		}
	}
	eng.Schedule(1e-6, tick)
	b.ResetTimer()
	eng.Run(1e18)
}

// BenchmarkEngineSchedule measures the steady-state schedule/dispatch path
// with a realistic pending-event depth (64 concurrent timer chains, the
// shape a loaded cluster produces — though its evenly spaced timers make
// every heap comparison predictable, which a cluster's random event times do
// not; BenchmarkClusterRequests is the judge of heap layout). The allocs/op
// report is the zero-allocation guarantee: after arena warm-up, scheduling
// and popping an event must not touch the garbage collector.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := &Engine{}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(1e-6, tick)
		}
	}
	// 64 interleaved chains keep the heap ~64 deep throughout.
	for i := 0; i < 64; i++ {
		eng.Schedule(float64(i)*1e-8, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(1e18)
}

// BenchmarkClusterRequests measures end-to-end simulated requests per
// second of wall time at the paper's high-load operating point.
func BenchmarkClusterRequests(b *testing.B) {
	cfg := DefaultClusterConfig(8)
	cfg.Server.CPU.Governor = Performance
	cluster, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	for _, c := range cluster.Clients {
		c.OnComplete = func(*Request) { done++ }
		if err := c.StartOpenLoop(700000.0/8, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Run until b.N requests complete (in chunks of simulated time).
	horizon := 0.0
	for done < b.N {
		horizon += 0.01
		cluster.Run(horizon)
	}
	b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "sim_req/s")
}

func BenchmarkCoreSubmit(b *testing.B) {
	eng := &Engine{}
	cpu, err := NewCPU(eng, DefaultCPUConfig())
	if err != nil {
		b.Fatal(err)
	}
	core := cpu.Cores[0]
	done := &probe{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.submit(1000, done, 0, opServiceDone, nil)
		if i%1024 == 0 {
			eng.Run(eng.Now() + 1)
		}
	}
	eng.Run(eng.Now() + 10)
}
