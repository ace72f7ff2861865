package experiments

import (
	"fmt"
	"math"
	"strings"

	"treadmill/internal/report"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
)

// Finding is one of the paper's numbered observations, checked
// mechanistically on the simulator.
type Finding struct {
	ID      string
	Claim   string
	Detail  string
	Holds   bool
	Caveat  string
	Metrics map[string]float64
}

// runClusterLats drives a configured cluster and returns warm latencies.
func runClusterLats(mutate func(*sim.ClusterConfig), totalRate, warmup, dur float64, seed uint64) ([]float64, *sim.Cluster, error) {
	return runClusterLatsObserved(mutate, totalRate, warmup, dur, seed, nil)
}

// Findings evaluates the paper's findings 1, 3, 4, 6, and 8 on the
// simulator and reports whether each holds, with the measured evidence.
func Findings(s Scale) ([]Finding, error) {
	var out []Finding
	warm, dur := s.Warmup, s.Duration*2

	// Finding 1: variance grows with utilization.
	perf := func(c *sim.ClusterConfig) { c.Server.CPU.Governor = sim.Performance }
	low, _, err := runClusterLats(perf, lowRate, warm, dur, s.Seed)
	if err != nil {
		return nil, err
	}
	high, _, err := runClusterLats(perf, highRate, warm, dur, s.Seed)
	if err != nil {
		return nil, err
	}
	vLow, vHigh := stats.Variance(low), stats.Variance(high)
	out = append(out, Finding{
		ID:      "finding-1",
		Claim:   "Latency variance increases with server utilization",
		Detail:  "M/M/1-like amplification of outstanding-request variance",
		Holds:   vHigh > 4*vLow,
		Metrics: map[string]float64{"var_low": vLow, "var_high": vHigh},
	})

	// Finding 3: ondemand median worse at low load than at high load.
	od := func(c *sim.ClusterConfig) { c.Server.CPU.Governor = sim.Ondemand }
	odLow, _, err := runClusterLats(od, lowRate, warm, dur, s.Seed+1)
	if err != nil {
		return nil, err
	}
	odHigh, _, err := runClusterLats(od, highRate, warm, dur, s.Seed+1)
	if err != nil {
		return nil, err
	}
	p50Low, _ := stats.Quantile(odLow, 0.5)
	p50High, _ := stats.Quantile(odHigh, 0.5)
	out = append(out, Finding{
		ID:      "finding-3",
		Claim:   "Under ondemand, median latency is higher at LOW load than at high load",
		Detail:  "downclocked cores and deep-idle exits dominate when queues are empty",
		Holds:   p50Low > p50High,
		Metrics: map[string]float64{"p50_low_load": p50Low, "p50_high_load": p50High},
	})

	// Finding 4: nic affinity matters under ondemand, not under performance.
	nicEffect := func(gov sim.Governor, seed uint64) (float64, error) {
		same, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server.CPU.Governor = gov
			c.Server.NICAffinity = sim.NICSameNode
		}, lowRate, warm, dur, seed)
		if err != nil {
			return 0, err
		}
		all, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server.CPU.Governor = gov
			c.Server.NICAffinity = sim.NICAllNodes
		}, lowRate, warm, dur, seed)
		if err != nil {
			return 0, err
		}
		pSame, _ := stats.Quantile(same, 0.5)
		pAll, _ := stats.Quantile(all, 0.5)
		return math.Abs(pAll - pSame), nil
	}
	effOd, err := nicEffect(sim.Ondemand, s.Seed+2)
	if err != nil {
		return nil, err
	}
	effPerf, err := nicEffect(sim.Performance, s.Seed+2)
	if err != nil {
		return nil, err
	}
	out = append(out, Finding{
		ID:     "finding-4",
		Claim:  "NIC affinity interacts with the DVFS governor at low load",
		Detail: "interrupt placement decides which cores sleep/downclock under ondemand",
		Holds:  effOd > 2*effPerf && effOd > 1e-6,
		Caveat: "effect direction is hardware-specific; the interaction is the reproducible content",
		Metrics: map[string]float64{
			"nic_effect_ondemand": effOd, "nic_effect_performance": effPerf,
		},
	})

	// Finding 6: NUMA penalty magnified by load.
	numaDelta := func(rate float64, seed uint64) (float64, error) {
		same, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server.CPU.Governor = sim.Performance
			c.Server.NUMA = sim.NUMASameNode
		}, rate, warm, dur, seed)
		if err != nil {
			return 0, err
		}
		inter, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server.CPU.Governor = sim.Performance
			c.Server.NUMA = sim.NUMAInterleave
		}, rate, warm, dur, seed)
		if err != nil {
			return 0, err
		}
		pSame, _ := stats.Quantile(same, 0.99)
		pInter, _ := stats.Quantile(inter, 0.99)
		return pInter - pSame, nil
	}
	dLow, err := numaDelta(lowRate, s.Seed+3)
	if err != nil {
		return nil, err
	}
	dHigh, err := numaDelta(750000, s.Seed+3)
	if err != nil {
		return nil, err
	}
	out = append(out, Finding{
		ID:      "finding-6",
		Claim:   "Interleaved NUMA hurts the tail most at high load",
		Detail:  "queueing magnifies the remote-access overhead",
		Holds:   dHigh > 0 && dHigh > 2*dLow,
		Metrics: map[string]float64{"numa_p99_penalty_low": dLow, "numa_p99_penalty_high": dHigh},
	})

	// Finding 8: turbo benefit shrinks at high load (mcrouter).
	turboGain := func(rate float64, seed uint64) (gain, base float64, err error) {
		off, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server = sim.McrouterServerConfig()
			c.Server.CPU.Governor = sim.Performance
			c.Server.CPU.TurboEnabled = false
		}, rate, warm, dur, seed)
		if err != nil {
			return 0, 0, err
		}
		on, _, err := runClusterLats(func(c *sim.ClusterConfig) {
			c.Server = sim.McrouterServerConfig()
			c.Server.CPU.Governor = sim.Performance
			c.Server.CPU.TurboEnabled = true
		}, rate, warm, dur, seed)
		if err != nil {
			return 0, 0, err
		}
		mOff, mOn := stats.Mean(off), stats.Mean(on)
		return mOff - mOn, mOff, nil
	}
	gLow, bLow, err := turboGain(mcrouterLowRate, s.Seed+4)
	if err != nil {
		return nil, err
	}
	gHigh, bHigh, err := turboGain(mcrouterHighRate, s.Seed+4)
	if err != nil {
		return nil, err
	}
	out = append(out, Finding{
		ID:     "finding-8",
		Claim:  "Turbo helps mcrouter at low load; the benefit shrinks at high load",
		Detail: "thermal headroom is consumed at high utilization, derating all-core turbo",
		Holds:  gLow > 0 && gHigh/bHigh < gLow/bLow,
		Metrics: map[string]float64{
			"turbo_rel_gain_low":  gLow / bLow,
			"turbo_rel_gain_high": gHigh / bHigh,
		},
	})
	return out, nil
}

// FindingsTable renders the findings as a report table.
func FindingsTable(fs []Finding) *report.Table {
	tab := &report.Table{
		Title:   "Paper findings checked on the simulated testbed",
		Headers: []string{"finding", "claim", "holds", "evidence"},
	}
	for _, f := range fs {
		verdict := "PASS"
		if !f.Holds {
			verdict = "FAIL"
		}
		if f.Caveat != "" {
			verdict += " (see caveat)"
		}
		evidence := ""
		for _, k := range sortedKeys(f.Metrics) {
			if evidence != "" {
				evidence += "  "
			}
			v := f.Metrics[k]
			switch {
			case strings.Contains(k, "p50") || strings.Contains(k, "penalty") || strings.Contains(k, "effect"):
				evidence += fmt.Sprintf("%s=%s", k, report.Micros(v))
			default:
				evidence += fmt.Sprintf("%s=%.3g", k, v)
			}
		}
		tab.AddRow(f.ID, f.Claim, verdict, evidence)
	}
	return tab
}
