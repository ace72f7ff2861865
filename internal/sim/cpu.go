package sim

import (
	"fmt"
	"math"
)

// Governor selects the DVFS policy for server cores (paper Table III:
// "dvfs" factor).
type Governor int

const (
	// Ondemand scales a core's frequency with its recent utilization, as
	// the Linux ondemand governor does. Requests that arrive on a
	// downclocked core execute slowly until the next governor tick and pay
	// frequency-transition stalls — the mechanism behind the paper's
	// Finding 3 (higher median latency at LOW load under ondemand).
	Ondemand Governor = iota
	// Performance pins every core at the maximum non-turbo frequency.
	Performance
)

// String returns the governor name as used in the paper.
func (g Governor) String() string {
	switch g {
	case Ondemand:
		return "ondemand"
	case Performance:
		return "performance"
	default:
		return fmt.Sprintf("Governor(%d)", int(g))
	}
}

// CPUConfig describes the server processor package(s).
type CPUConfig struct {
	Cores          int     // total cores, split evenly across Sockets
	Sockets        int     // NUMA nodes
	BaseHz         float64 // maximum non-turbo frequency
	MinHz          float64 // lowest ondemand step
	TurboHz        float64 // single-core max turbo frequency
	Steps          int     // number of P-states between MinHz and BaseHz
	Governor       Governor
	TurboEnabled   bool
	GovernorTick   float64 // governor sampling period (s)
	TransitionCost float64 // stall per frequency change (s)
	UpThreshold    float64 // ondemand: util above this jumps to BaseHz

	// Idle-state model. Under the ondemand policy the OS races to idle:
	// a core idle for longer than IdleSleepThreshold enters a deep
	// C-state, and the next task pays IdleWakeLatency to exit it. This is
	// the dominant low-load latency penalty of power-saving policies and
	// the mechanism behind the paper's Finding 3 (ondemand hurts the
	// median at LOW load) and Finding 4 (spreading NIC interrupts keeps
	// cores awake). The performance policy is modeled as production
	// deployments configure it: idle states capped (no wake penalty).
	IdleSleepThreshold float64
	IdleWakeLatency    float64

	// Thermal model (shared per socket): temperature follows
	// dT/dt = (P − K·(T − Ambient))/C. Turbo headroom shrinks linearly as
	// T approaches TMax, which is how Turbo and DVFS interact (they
	// compete for the same headroom — paper §I and Finding 8).
	Ambient   float64 // °C
	TMax      float64 // junction limit
	TTurbo    float64 // temperature where turbo starts derating
	ThermalC  float64 // heat capacity (J/°C)
	ThermalK  float64 // conductance to ambient (W/°C)
	CorePower float64 // W per busy core at BaseHz (scales with (f/Base)³)
}

// DefaultCPUConfig models a dual-socket 16-core server in the spirit of
// the paper's Xeon E5-2660 v2 testbed (Table II).
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		Cores:              16,
		Sockets:            2,
		BaseHz:             2.2e9,
		MinHz:              1.2e9,
		TurboHz:            3.0e9,
		Steps:              5,
		Governor:           Ondemand,
		TurboEnabled:       false,
		GovernorTick:       2e-3,
		TransitionCost:     25e-6,
		UpThreshold:        0.60,
		IdleSleepThreshold: 50e-6,
		IdleWakeLatency:    60e-6,
		Ambient:            40,
		TMax:               85,
		TTurbo:             55,
		ThermalC:           0.02, // die-scale heat capacity (τ≈11ms): all-core turbo derates within tens of ms, like PL2→PL1 on real parts
		ThermalK:           1.8,
		CorePower:          14,
	}
}

func (c CPUConfig) validate() error {
	if c.Cores < 1 || c.Sockets < 1 || c.Cores%c.Sockets != 0 {
		return fmt.Errorf("sim: %d cores not divisible across %d sockets", c.Cores, c.Sockets)
	}
	if !(c.MinHz > 0 && c.MinHz <= c.BaseHz && c.BaseHz <= c.TurboHz) {
		return fmt.Errorf("sim: need 0 < MinHz <= BaseHz <= TurboHz (%g, %g, %g)", c.MinHz, c.BaseHz, c.TurboHz)
	}
	if c.Steps < 1 {
		return fmt.Errorf("sim: need >= 1 P-state step, got %d", c.Steps)
	}
	if c.GovernorTick <= 0 {
		return fmt.Errorf("sim: GovernorTick must be positive")
	}
	if c.UpThreshold <= 0 || c.UpThreshold >= 1 {
		return fmt.Errorf("sim: UpThreshold %g out of (0,1)", c.UpThreshold)
	}
	return nil
}

// task is one unit of queued core work: cycles to execute, then resume h at
// op for req. startOp, when set, is delivered to h first, at the instant
// execution begins.
type task struct {
	cycles   float64
	submitAt float64
	h        handler
	req      *Request
	op       op
	startOp  op
}

// ExecProfile decomposes one task's time on a core, from submission to
// completion: QueueWait + WakeStall + TransStall + ExecTime spans the whole
// interval exactly. It is the raw material for per-request phase
// attribution (internal/anatomy).
type ExecProfile struct {
	// QueueWait is time spent in the core's run queue before execution.
	QueueWait float64
	// WakeStall is deep-idle (C-state) exit latency charged to this task.
	WakeStall float64
	// TransStall is frequency-transition stall charged to this task.
	TransStall float64
	// ExecTime is Cycles / Freq — execution at the core's current speed.
	ExecTime float64
	// Freq is the frequency the task ran at; Cycles its submitted work.
	Freq, Cycles float64
}

// Core is a single CPU core: a FIFO work queue executed at the core's
// current frequency. Work is expressed in cycles so frequency changes show
// up as execution-time changes.
type Core struct {
	ID     int
	Socket int

	eng  *Engine
	cpu  *CPU
	freq float64
	// stallWake / stallTrans are pending idle-exit and frequency-transition
	// costs charged to the next task, kept separate so profiled executions
	// can attribute them to distinct mechanisms.
	stallWake  float64
	stallTrans float64

	queue ring[task]
	// running is the task in execution (valid while busy) and prof its time
	// on the core. A core runs one task at a time, so the completion
	// continuation reads the profile here instead of having it captured.
	running task
	prof    ExecProfile

	busy    bool
	busySum float64 // accumulated busy seconds (for utilization)
	winBusy float64 // busy seconds within the current governor window
	// idleSince is when the core last went idle (valid while !busy).
	idleSince float64

	queuedCycles float64 // cycles waiting (including running task's remainder estimate)
}

// submit enqueues cycles of work. When execution begins h is resumed at
// startOp (if nonzero); when it completes h is resumed at op and can read
// the execution's decomposition from c.prof.
func (c *Core) submit(cycles float64, h handler, startOp, op op, req *Request) {
	if cycles < 0 || math.IsNaN(cycles) {
		panic(fmt.Sprintf("sim: negative work %g", cycles))
	}
	c.queue.push(task{cycles: cycles, submitAt: c.eng.Now(), h: h, req: req, op: op, startOp: startOp})
	c.queuedCycles += cycles
	if !c.busy {
		// Waking from a deep idle state costs exit latency under the
		// power-saving policy.
		cfg := &c.cpu.Config
		if cfg.Governor == Ondemand && cfg.IdleWakeLatency > 0 &&
			c.eng.Now()-c.idleSince > cfg.IdleSleepThreshold {
			c.stallWake += cfg.IdleWakeLatency
			c.cpu.wakeEvents++
		}
		c.runNext()
	}
}

func (c *Core) runNext() {
	if c.queue.len() == 0 {
		c.busy = false
		c.idleSince = c.eng.Now()
		return
	}
	c.busy = true
	c.running = c.queue.pop()
	t := &c.running
	if t.startOp != 0 {
		t.h.handle(t.startOp, t.req)
	}
	c.prof = ExecProfile{
		QueueWait:  c.eng.Now() - t.submitAt,
		WakeStall:  c.stallWake,
		TransStall: c.stallTrans,
		ExecTime:   t.cycles / c.freq,
		Freq:       c.freq,
		Cycles:     t.cycles,
	}
	dur := c.prof.ExecTime + c.prof.WakeStall + c.prof.TransStall
	c.stallWake, c.stallTrans = 0, 0
	c.busySum += dur
	c.winBusy += dur
	c.eng.after(dur, c, opTaskDone, nil)
}

// handle completes the running task: resume its continuation, then start
// the next queued task.
func (c *Core) handle(op, *Request) {
	t := &c.running
	c.queuedCycles -= t.cycles
	t.h.handle(t.op, t.req)
	c.runNext()
}

// QueueLen returns the number of tasks waiting (excluding the running one).
func (c *Core) QueueLen() int { return c.queue.len() }

// Freq returns the core's current frequency in Hz.
func (c *Core) Freq() float64 { return c.freq }

// setFreq applies a frequency change, charging the transition stall.
func (c *Core) setFreq(hz float64, transitionCost float64) {
	if hz == c.freq {
		return
	}
	c.freq = hz
	c.stallTrans += transitionCost
}

// CPU is the full processor complex: cores, the governor, and the
// per-socket thermal/turbo state.
type CPU struct {
	Config CPUConfig
	Cores  []*Core

	eng        *Engine
	socketTemp []float64
	lastTick   float64
	// turboNow is the per-socket turbo ceiling as of the last tick.
	turboNow []float64
	// transitions counts frequency changes and wakeEvents counts deep-idle
	// exits; both are exposed so experiments can verify the Finding-3/4
	// mechanisms directly.
	transitions uint64
	wakeEvents  uint64
}

// NewCPU builds the processor and starts its governor tick.
func NewCPU(eng *Engine, cfg CPUConfig) (*CPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cpu := &CPU{
		Config:     cfg,
		eng:        eng,
		socketTemp: make([]float64, cfg.Sockets),
		turboNow:   make([]float64, cfg.Sockets),
	}
	perSocket := cfg.Cores / cfg.Sockets
	initial := cfg.BaseHz
	if cfg.Governor == Ondemand {
		initial = cfg.MinHz
	}
	for i := 0; i < cfg.Cores; i++ {
		cpu.Cores = append(cpu.Cores, &Core{
			ID:     i,
			Socket: i / perSocket,
			eng:    eng,
			cpu:    cpu,
			freq:   initial,
		})
	}
	for s := range cpu.socketTemp {
		cpu.socketTemp[s] = cfg.Ambient
		cpu.turboNow[s] = cfg.TurboHz
	}
	eng.Schedule(cfg.GovernorTick, cpu.tick)
	return cpu, nil
}

// RefHz is the attribution reference frequency: the hardware's maximum
// (single-core turbo). Execution time beyond cycles/RefHz is P-state/turbo
// ramp deficit — time the request would not have spent on a fully ramped
// core — which makes turbo-off configurations show the deficit even under
// the performance governor.
func (c *CPU) RefHz() float64 { return c.Config.TurboHz }

// Transitions returns the cumulative number of core frequency changes.
func (c *CPU) Transitions() uint64 { return c.transitions }

// WakeEvents returns the cumulative number of deep-idle exits.
func (c *CPU) WakeEvents() uint64 { return c.wakeEvents }

// SocketTemp returns the current modeled temperature of socket s.
func (c *CPU) SocketTemp(s int) float64 { return c.socketTemp[s] }

// Utilization returns mean core utilization since the start of the run.
func (c *CPU) Utilization() float64 {
	if c.eng.Now() == 0 {
		return 0
	}
	sum := 0.0
	for _, core := range c.Cores {
		sum += core.busySum
	}
	return sum / (float64(len(c.Cores)) * c.eng.Now())
}

// tick is the periodic governor + thermal update.
func (c *CPU) tick() {
	cfg := c.Config
	window := cfg.GovernorTick

	// Thermal integration over the last window, per socket.
	for s := 0; s < cfg.Sockets; s++ {
		power := 0.0
		for _, core := range c.Cores {
			if core.Socket != s {
				continue
			}
			util := core.winBusy / window
			rel := core.freq / cfg.BaseHz
			power += util * cfg.CorePower * rel * rel * rel
		}
		t := c.socketTemp[s]
		dT := (power - cfg.ThermalK*(t-cfg.Ambient)) / cfg.ThermalC * window
		t += dT
		if t > cfg.TMax {
			t = cfg.TMax
		}
		if t < cfg.Ambient {
			t = cfg.Ambient
		}
		c.socketTemp[s] = t
		// Turbo derating: full turbo below TTurbo, linearly down to BaseHz
		// at TMax.
		switch {
		case t <= cfg.TTurbo:
			c.turboNow[s] = cfg.TurboHz
		case t >= cfg.TMax:
			c.turboNow[s] = cfg.BaseHz
		default:
			frac := (t - cfg.TTurbo) / (cfg.TMax - cfg.TTurbo)
			c.turboNow[s] = cfg.TurboHz - frac*(cfg.TurboHz-cfg.BaseHz)
		}
	}

	// Per-core frequency selection.
	for _, core := range c.Cores {
		util := core.winBusy / window
		core.winBusy = 0
		target := c.targetFreq(core, util)
		if target != core.freq {
			c.transitions++
			core.setFreq(target, cfg.TransitionCost)
		}
	}
	c.eng.Schedule(window, c.tick)
}

// targetFreq implements the governor policy for one core.
func (c *CPU) targetFreq(core *Core, util float64) float64 {
	cfg := c.Config
	ceiling := cfg.BaseHz
	if cfg.TurboEnabled {
		ceiling = c.turboNow[core.Socket]
	}
	switch cfg.Governor {
	case Performance:
		return ceiling
	case Ondemand:
		if util >= cfg.UpThreshold {
			return ceiling
		}
		// Scale down: pick the lowest step whose capacity keeps projected
		// utilization under the threshold (Linux ondemand's proportional
		// scaling), quantized to the configured P-states.
		need := util * core.freq / cfg.UpThreshold
		if need < cfg.MinHz {
			need = cfg.MinHz
		}
		stepSize := (cfg.BaseHz - cfg.MinHz) / float64(cfg.Steps)
		if stepSize <= 0 {
			return cfg.BaseHz
		}
		k := math.Ceil((need - cfg.MinHz) / stepSize)
		f := cfg.MinHz + k*stepSize
		if f > cfg.BaseHz {
			f = cfg.BaseHz
		}
		return f
	default:
		return cfg.BaseHz
	}
}
