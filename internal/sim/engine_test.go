package sim

import (
	"math"
	"testing"
)

// probe lets a test drive a Core or a Link through the typed continuation:
// a core task submitted with startOp opServiceStart runs start when it
// begins executing, and done runs at any other op — the task's completion
// or a packet's arrival. Either may be nil.
type probe struct{ start, done func() }

func (p *probe) handle(op op, _ *Request) {
	f := p.done
	if op == opServiceStart {
		f = p.start
	}
	if f != nil {
		f()
	}
}

// submitProbe queues cycles of work on c; done (may be nil) runs when it
// completes.
func submitProbe(c *Core, cycles float64, done func()) {
	c.submit(cycles, &probe{done: done}, 0, opServiceDone, nil)
}

// sendProbe transmits a packet on l; deliver (may be nil) runs when it
// reaches the far end.
func sendProbe(l *Link, sizeBytes int, deliver func()) {
	_, _, arrival := l.transmit(sizeBytes)
	l.eng.at(arrival, &probe{done: deliver}, opAtClient, nil)
}

func TestEngineOrdering(t *testing.T) {
	eng := &Engine{}
	var order []int
	eng.Schedule(3e-3, func() { order = append(order, 3) })
	eng.Schedule(1e-3, func() { order = append(order, 1) })
	eng.Schedule(2e-3, func() { order = append(order, 2) })
	eng.Run(1)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if eng.Processed() != 3 {
		t.Errorf("processed = %d", eng.Processed())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	eng := &Engine{}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(1e-3, func() { order = append(order, i) })
	}
	eng.Run(1)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	eng := &Engine{}
	ran := false
	eng.Schedule(2.0, func() { ran = true })
	eng.Run(1.0)
	if ran {
		t.Error("event beyond horizon ran")
	}
	if eng.Now() != 1.0 {
		t.Errorf("now = %g, want 1.0 (advanced to horizon)", eng.Now())
	}
	if eng.Pending() != 1 {
		t.Errorf("pending = %d", eng.Pending())
	}
	eng.Run(3.0)
	if !ran {
		t.Error("event did not run on extended horizon")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := &Engine{}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			eng.Schedule(1e-3, tick)
		}
	}
	eng.Schedule(1e-3, tick)
	eng.Run(1)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if got := eng.Now(); got < 0.099 || got > 1.0 {
		t.Errorf("now = %g", got)
	}
}

func TestEngineStep(t *testing.T) {
	eng := &Engine{}
	n := 0
	eng.Schedule(1e-3, func() { n++ })
	eng.Schedule(2e-3, func() { n++ })
	if !eng.Step() || n != 1 {
		t.Fatal("first step failed")
	}
	if !eng.Step() || n != 2 {
		t.Fatal("second step failed")
	}
	if eng.Step() {
		t.Fatal("step on empty queue should return false")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := &Engine{}
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	eng.Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	eng := &Engine{}
	eng.Schedule(1, func() {})
	eng.Run(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	eng.At(0.5, func() {})
}

// TestAtNaNPanics: NaN passes every ordered comparison, so unchecked it would
// be queued behind +Inf, run under any horizon and turn the clock into NaN,
// after which no "in the past" check can fire. +Inf itself is a legal time
// that no finite horizon reaches. The NaN comes from inside a handler, so the
// panic unwinds through step: the engine must still be consistent after it.
func TestAtNaNPanics(t *testing.T) {
	eng := &Engine{}
	ran := 0
	eng.At(math.Inf(1), func() { ran = -1 })
	eng.Schedule(1, func() { eng.At(math.NaN(), func() {}) })
	eng.Schedule(2, func() { ran++ })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("At(NaN) did not panic")
			}
		}()
		eng.Run(3)
	}()
	if eng.Now() != 1 || eng.Pending() != 2 {
		t.Fatalf("after the rejected At(NaN): now=%g pending=%d, want 1 and 2", eng.Now(), eng.Pending())
	}
	eng.Run(1e300)
	if ran != 1 || eng.Pending() != 1 || eng.Now() != 1e300 {
		t.Fatalf("ran=%d pending=%d now=%g; want the t=2 event run once and the +Inf event queued forever", ran, eng.Pending(), eng.Now())
	}
}

func TestCoreExecutionTime(t *testing.T) {
	eng := &Engine{}
	cpu, err := NewCPU(eng, CPUConfig{
		Cores: 1, Sockets: 1, BaseHz: 2e9, MinHz: 2e9, TurboHz: 2e9, Steps: 1,
		Governor: Performance, GovernorTick: 1, UpThreshold: 0.5,
		Ambient: 40, TMax: 95, TTurbo: 65, ThermalC: 60, ThermalK: 2, CorePower: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.Cores[0]
	var doneAt float64
	submitProbe(core, 2e6, func() { doneAt = eng.Now() }) // 2M cycles @ 2GHz = 1ms
	eng.Run(1)
	if doneAt < 0.999e-3 || doneAt > 1.001e-3 {
		t.Fatalf("task finished at %g, want 1ms", doneAt)
	}
}

func TestCoreFIFO(t *testing.T) {
	eng := &Engine{}
	cpu, _ := NewCPU(eng, CPUConfig{
		Cores: 1, Sockets: 1, BaseHz: 1e9, MinHz: 1e9, TurboHz: 1e9, Steps: 1,
		Governor: Performance, GovernorTick: 1, UpThreshold: 0.5,
		Ambient: 40, TMax: 95, TTurbo: 65, ThermalC: 60, ThermalK: 2, CorePower: 8,
	})
	core := cpu.Cores[0]
	var finishes []float64
	for i := 0; i < 3; i++ {
		submitProbe(core, 1e6, func() { finishes = append(finishes, eng.Now()) }) // 1ms each
	}
	if core.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2", core.QueueLen())
	}
	eng.Run(1)
	want := []float64{1e-3, 2e-3, 3e-3}
	for i, w := range want {
		if diff := finishes[i] - w; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("task %d finished at %g, want %g", i, finishes[i], w)
		}
	}
}

func TestCoreNegativeWorkPanics(t *testing.T) {
	eng := &Engine{}
	cpu, _ := NewCPU(eng, DefaultCPUConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("negative cycles did not panic")
		}
	}()
	submitProbe(cpu.Cores[0], -5, nil)
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := &Engine{}
	// 1 Gbps, 100µs propagation: a 1250-byte packet serializes in 10µs.
	l, err := NewLink(eng, 1e9, 100e-6)
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 float64
	sendProbe(l, 1250, func() { t1 = eng.Now() })
	sendProbe(l, 1250, func() { t2 = eng.Now() })
	eng.Run(1)
	if diff := t1 - 110e-6; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("first delivery at %g, want 110µs", t1)
	}
	// Second packet waits for the first to serialize.
	if diff := t2 - 120e-6; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("second delivery at %g, want 120µs", t2)
	}
	if l.Sent() != 2 {
		t.Errorf("sent = %d", l.Sent())
	}
}

func TestLinkValidation(t *testing.T) {
	eng := &Engine{}
	if _, err := NewLink(eng, 0, 0); err == nil {
		t.Error("zero bandwidth should error")
	}
	if _, err := NewLink(eng, 1e9, -1); err == nil {
		t.Error("negative delay should error")
	}
	l, _ := NewLink(eng, 1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("zero-size packet should panic")
		}
	}()
	l.transmit(0)
}

func TestCPUConfigValidation(t *testing.T) {
	bad := []func(*CPUConfig){
		func(c *CPUConfig) { c.Cores = 3; c.Sockets = 2 },
		func(c *CPUConfig) { c.MinHz = 3e9 },
		func(c *CPUConfig) { c.Steps = 0 },
		func(c *CPUConfig) { c.GovernorTick = 0 },
		func(c *CPUConfig) { c.UpThreshold = 1.5 },
	}
	for i, mut := range bad {
		cfg := DefaultCPUConfig()
		mut(&cfg)
		if _, err := NewCPU(&Engine{}, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGovernorStrings(t *testing.T) {
	if Ondemand.String() != "ondemand" || Performance.String() != "performance" {
		t.Error("governor names wrong")
	}
	if NUMASameNode.String() != "same-node" || NUMAInterleave.String() != "interleave" {
		t.Error("numa names wrong")
	}
	if NICSameNode.String() != "same-node" || NICAllNodes.String() != "all-nodes" {
		t.Error("nic names wrong")
	}
}

func TestLinkQueueDelayAndUtilization(t *testing.T) {
	eng := &Engine{}
	l, err := NewLink(eng, 1e9, 10e-6)
	if err != nil {
		t.Fatal(err)
	}
	if l.QueueDelay() != 0 {
		t.Error("idle link should have zero backlog")
	}
	// Queue three 12.5KB packets: 100µs serialization each.
	for i := 0; i < 3; i++ {
		sendProbe(l, 12500, nil)
	}
	if d := l.QueueDelay(); d < 299e-6 || d > 301e-6 {
		t.Errorf("backlog = %g, want ~300µs", d)
	}
	eng.Run(1)
	if u := l.Utilization(); u > 0.001 {
		// Utilization over 1 second of sim time with 300µs busy.
		if u < 0.0002 || u > 0.0004 {
			t.Errorf("utilization = %g, want ~0.0003", u)
		}
	}
}

func TestCoreSubmitTimedStartHook(t *testing.T) {
	eng := &Engine{}
	cpu, _ := NewCPU(eng, CPUConfig{
		Cores: 1, Sockets: 1, BaseHz: 1e9, MinHz: 1e9, TurboHz: 1e9, Steps: 1,
		Governor: Performance, GovernorTick: 1, UpThreshold: 0.5,
		Ambient: 40, TMax: 95, TTurbo: 65, ThermalC: 60, ThermalK: 2, CorePower: 8,
	})
	core := cpu.Cores[0]
	var startAt, doneAt float64
	// First task occupies [0, 1ms); second task's start hook must fire at
	// 1ms, not at submission.
	submitProbe(core, 1e6, nil)
	core.submit(1e6, &probe{
		start: func() { startAt = eng.Now() },
		done:  func() { doneAt = eng.Now() },
	}, opServiceStart, opServiceDone, nil)
	eng.Run(1)
	if startAt < 0.999e-3 || startAt > 1.001e-3 {
		t.Errorf("start hook at %g, want ~1ms", startAt)
	}
	if doneAt < 1.999e-3 || doneAt > 2.001e-3 {
		t.Errorf("done hook at %g, want ~2ms", doneAt)
	}
}

func TestIdleWakePenaltyOnlyUnderOndemand(t *testing.T) {
	run := func(gov Governor) uint64 {
		eng := &Engine{}
		cfg := DefaultCPUConfig()
		cfg.Cores, cfg.Sockets = 1, 1
		cfg.Governor = gov
		cpu, err := NewCPU(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		core := cpu.Cores[0]
		// Two tasks separated by a gap longer than the sleep threshold.
		submitProbe(core, 1000, nil)
		eng.Run(0.001)
		eng.Schedule(0.01, func() { submitProbe(core, 1000, nil) })
		eng.Run(1)
		return cpu.WakeEvents()
	}
	if got := run(Ondemand); got == 0 {
		t.Error("ondemand core sleeping past the threshold should log a wake event")
	}
	if got := run(Performance); got != 0 {
		t.Errorf("performance governor logged %d wake events, want 0", got)
	}
}

func TestRSSHashSpreadsStructuredIDs(t *testing.T) {
	// Connection IDs come in strides of 1000 per client; the RSS hash must
	// still spread them over the queues.
	counts := make(map[int]int)
	for client := 0; client < 8; client++ {
		for k := 0; k < 8; k++ {
			counts[rssHash(client*1000+k)%16]++
		}
	}
	if len(counts) < 12 {
		t.Errorf("64 structured conn IDs hit only %d/16 RSS queues", len(counts))
	}
	for q, c := range counts {
		if c > 12 {
			t.Errorf("queue %d received %d/64 connections; hash clustering", q, c)
		}
	}
}
