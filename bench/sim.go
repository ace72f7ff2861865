package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"treadmill/internal/dist"
	"treadmill/internal/quantreg"
	"treadmill/internal/runner"
	"treadmill/internal/sim"
	"treadmill/internal/workload"
)

// Fixed work constants of the simulated workloads. They are never
// calibrated to the host: two commits must do identical work, so a change
// in time per repetition is a change in the program.
var (
	simQuantiles = []float64{0.5, 0.95, 0.99}
	simBootstrap = 200
)

const (
	simClients     = 8
	simConnsPerCli = 8
	factorialRate  = 700000.0
	fanoutRate     = 120000.0
)

// simShape sizes one repetition of a simulated workload.
type simShape struct {
	warmup, duration float64 // simulated seconds per experiment
	replicates       int
}

// shapeKind selects how much work a study does.
type shapeKind int

const (
	shapeFull  shapeKind = iota // one measured repetition, ~3 s on the reference host
	shapeWarm                   // the discarded warm-up campaign that is part of set-up, ~0.4 s
	shapeQuick                  // smoke run for tests
)

func simShapeFor(name string, kind shapeKind) simShape {
	fanout := name == "sim_fanout_burst"
	switch {
	case kind == shapeQuick:
		return simShape{warmup: 0.002, duration: 0.006, replicates: 2}
	case kind == shapeWarm && fanout:
		return simShape{warmup: 0.01, duration: 0.04, replicates: 4}
	case kind == shapeWarm:
		return simShape{warmup: 0.002, duration: 0.006, replicates: 2}
	case fanout:
		// 2² cells × 16 replicates = 64 experiments of 0.1 s at 120 k rps.
		return simShape{warmup: 0.02, duration: 0.08, replicates: 16}
	}
	// 2⁴ cells × 2 replicates = 32 experiments of 0.05 s at 700 k rps.
	return simShape{warmup: 0.01, duration: 0.04, replicates: 2}
}

// newStudy builds the campaign of a simulated workload. It is the fixture
// set-up of the sim workloads: cluster template, factor table, schedule
// seed.
func newStudy(name string, seed uint64, kind shapeKind) (*runner.Study, error) {
	sh := simShapeFor(name, kind)
	st := &runner.Study{
		ConnsPerClient: simConnsPerCli,
		Duration:       sh.duration,
		Warmup:         sh.warmup,
		Replicates:     sh.replicates,
		Quantiles:      simQuantiles,
		Seed:           seed,
		Workers:        1,
	}
	switch name {
	case "sim_factorial":
		st.Base = sim.DefaultClusterConfig(simClients)
		st.Base.Server.RandomPlacement = true
		st.Factors = runner.PaperFactors()
		st.TotalRate = factorialRate
	case "sim_fanout_burst":
		st.Base = sim.DefaultClusterConfig(simClients)
		st.Base.Server = sim.FanoutServerConfig(8)
		spec := workload.ArrivalSpec{Kind: "mmpp2", Burst: 4, BurstFrac: 0.2, Cycle: 0.02}
		if _, err := spec.Build(fanoutRate / simClients); err != nil {
			return nil, err
		}
		for i := range st.Base.Clients {
			st.Base.Clients[i].Config.Arrival = func(rate float64) dist.Sampler {
				s, err := spec.Build(rate)
				if err != nil {
					panic(err) // spec validated above; rate is the study's constant
				}
				return s
			}
		}
		st.Factors = fanoutFactors()
		st.TotalRate = fanoutRate
		st.CollectAnatomy = true
	default:
		return nil, fmt.Errorf("unknown sim workload %q", name)
	}
	st.Base.Seed = seed
	return st, nil
}

// fanoutFactors is the scatter-gather factorial: fan-out degree crossed
// with per-leg latency spread.
func fanoutFactors() []runner.Factor {
	return []runner.Factor{
		{
			Name: "fanout", Low: "1", High: "8",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				cfg.Server.FanDegree = 1 + 7*level
			},
		},
		{
			Name: "spread", Low: "cv0.15", High: "cv0.5",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				cfg.Server.Forward = dist.LognormalFromMoments(45e-6, 0.15+0.35*float64(level))
			},
		},
	}
}

// nominalRequests is the constant denominator of the per-request sim
// metrics: offered rate × simulated seconds × experiments.
func nominalRequests(st *runner.Study) float64 {
	experiments := float64(st.Replicates * (1 << len(st.Factors)))
	return st.TotalRate * (st.Warmup + st.Duration) * experiments
}

// simRep is one repetition of a simulated campaign.
type simRep struct {
	runS, fitS  float64
	cpuS        float64
	mallocs     uint64
	experiments []float64 // host seconds per experiment, schedule order
	fp          uint64
	fits        []*quantreg.Result
	res         *runner.Result
}

// runSimRep runs the study and the three fits once, timing each part.
func runSimRep(ctx context.Context, st *runner.Study) (*simRep, error) {
	rep := &simRep{experiments: make([]float64, 0, st.Replicates*(1<<len(st.Factors)))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()
	last := t0
	st.Progress = func(done, total int) {
		now := time.Now()
		rep.experiments = append(rep.experiments, now.Sub(last).Seconds())
		last = now
	}
	res, err := st.Run(ctx)
	st.Progress = nil
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	runtime.ReadMemStats(&ms1)
	for _, tau := range st.Quantiles {
		fit, err := res.Fit(tau, simBootstrap, st.Seed+uint64(tau*1000))
		if err != nil {
			return nil, fmt.Errorf("fit tau=%g: %w", tau, err)
		}
		rep.fits = append(rep.fits, fit)
	}
	t2 := time.Now()
	rep.runS = t1.Sub(t0).Seconds()
	rep.fitS = t2.Sub(t1).Seconds()
	rep.cpuS = processCPU() - cpu0
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	rep.fp = fingerprint(res.Samples, st.Quantiles)
	rep.res = res
	return rep, nil
}

// fitsFinite reports whether every coefficient estimate of every fit is a
// finite number.
func fitsFinite(fits []*quantreg.Result) bool {
	for _, f := range fits {
		if f == nil || len(f.Coefs) == 0 {
			return false
		}
		for _, c := range f.Coefs {
			if math.IsNaN(c.Est) || math.IsInf(c.Est, 0) {
				return false
			}
		}
	}
	return true
}
