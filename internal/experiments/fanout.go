package experiments

import (
	"context"
	"fmt"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/dist"
	"treadmill/internal/loadgen"
	"treadmill/internal/quantreg"
	"treadmill/internal/report"
	"treadmill/internal/router"
	"treadmill/internal/runner"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// fanoutRate is the offered load for the simulated scatter-gather sweep;
// legs occupy backend wait time, not server CPU, so the mcrouter-class
// service capacity bounds the rate as usual.
const fanoutRate = 120000.0

// fanoutDegrees are the fan-out widths the sweep measures.
var fanoutDegrees = []int{1, 2, 4, 8}

// FanoutSweepPoint is one sweep measurement: P50/P99 at fan-out degree N
// plus the anatomy breakdown showing where tail requests pay.
type FanoutSweepPoint struct {
	N         int
	Requests  int
	P50, P99  float64
	Breakdown *anatomy.Breakdown
}

// FanoutLiveCell is one real-TCP multi-get cell: K-key multi-gets through
// the router over 8 backend servers, with the router's straggler-spread
// telemetry alongside the client-measured quantiles.
type FanoutLiveCell struct {
	K               int
	Requests        int
	P50, P99        float64
	Multigets, Legs uint64
	StragglerMean   float64
	StragglerMax    float64
}

// FanoutBench bundles the scatter-gather scenario: the simulated P99-vs-N
// sweep, the fanout × spread factorial with quantile-regression fits, and
// the live router multi-get cells.
type FanoutBench struct {
	Sweep   []FanoutSweepPoint
	Factors []string
	Result  *runner.Result
	Fits    map[float64]*quantreg.Result
	Live    []FanoutLiveCell
}

// FanoutFactors returns the scatter-gather factorial: fan-out degree
// crossed with per-leg latency spread. Both knobs are value fields of the
// copied server config, so Apply mutates them directly.
func FanoutFactors() []runner.Factor {
	return []runner.Factor{
		{
			Name: "fanout", Low: "1", High: "8",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				if level == 0 {
					cfg.Server.FanDegree = 1
				} else {
					cfg.Server.FanDegree = 8
				}
			},
		},
		{
			Name: "spread", Low: "cv0.15", High: "cv0.5",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				cv2 := 0.15
				if level == 1 {
					cv2 = 0.5
				}
				cfg.Server.Forward = dist.LognormalFromMoments(45e-6, cv2)
			},
		},
	}
}

// RunFanoutBench executes the scatter-gather campaign: the degree sweep,
// the factorial with fits, and the live router cells.
func RunFanoutBench(ctx context.Context, s Scale) (*FanoutBench, error) {
	fb := &FanoutBench{}
	warm, dur := s.Warmup, s.Duration*2

	for _, n := range fanoutDegrees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
		if err != nil {
			return nil, err
		}
		var lats []float64
		_, _, err = runClusterLatsObserved(func(c *sim.ClusterConfig) {
			c.Server = sim.FanoutServerConfig(n)
		}, fanoutRate, warm, dur, s.Seed+uint64(n), func(r *sim.Request) {
			lats = append(lats, r.MeasuredLatency())
			agg.Record(r.MeasuredLatency(), r.Phases)
		})
		if err != nil {
			return nil, err
		}
		p50, _ := stats.Quantile(lats, 0.5)
		p99, _ := stats.Quantile(lats, 0.99)
		fb.Sweep = append(fb.Sweep, FanoutSweepPoint{
			N: n, Requests: len(lats), P50: p50, P99: p99, Breakdown: agg.Finalize(),
		})
	}

	base := sim.DefaultClusterConfig(clientFleet)
	base.Server = sim.FanoutServerConfig(8)
	base.Seed = s.Seed
	res, err := factorialStudy(s, base, FanoutFactors(), fanoutRate, s.Duration, s.Warmup).Run(ctx)
	if err != nil {
		return nil, err
	}
	fb.Factors = res.Factors
	fb.Result = res
	if fb.Fits, err = fitQuantiles(res, s, "fanout", bodyAndTail); err != nil {
		return nil, err
	}

	for _, k := range []int{1, 4, 8} {
		cell, err := runFanoutLiveCell(ctx, s, k)
		if err != nil {
			return nil, err
		}
		fb.Live = append(fb.Live, cell)
	}
	return fb, nil
}

// runClusterLatsObserved is runClusterLats with a per-request observer so
// callers can fill anatomy aggregators alongside the latency slice.
func runClusterLatsObserved(mutate func(*sim.ClusterConfig), totalRate, warmup, dur float64, seed uint64, observe func(*sim.Request)) ([]float64, *sim.Cluster, error) {
	cfg := sim.DefaultClusterConfig(clientFleet)
	cfg.Seed = seed
	mutate(&cfg)
	cl, err := sim.NewCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	var lats []float64
	for _, c := range cl.Clients {
		c.OnComplete = func(r *sim.Request) {
			if r.Created >= warmup {
				lats = append(lats, r.MeasuredLatency())
				if observe != nil {
					observe(r)
				}
			}
		}
		if err := c.StartOpenLoop(totalRate/clientFleet, 8); err != nil {
			return nil, nil, err
		}
	}
	cl.Run(warmup + dur)
	if len(lats) == 0 {
		return nil, nil, fmt.Errorf("no samples")
	}
	return lats, cl, nil
}

// fanoutLiveParams sizes the live multi-get cells.
func fanoutLiveParams(s Scale) (rate float64, dur, warm time.Duration) {
	if s.Name == "quick" {
		return 2000, 300 * time.Millisecond, 100 * time.Millisecond
	}
	return 2000, 2 * time.Second, 500 * time.Millisecond
}

// runFanoutLiveCell boots 8 backend servers behind the router and drives
// K-key multi-gets through it over loopback, reading the router's
// straggler telemetry after the run.
func runFanoutLiveCell(ctx context.Context, s Scale, k int) (FanoutLiveCell, error) {
	cell := FanoutLiveCell{K: k}
	rate, dur, warm := fanoutLiveParams(s)

	const backends = 8
	addrs := make([]string, backends)
	for i := 0; i < backends; i++ {
		srv, err := server.New(server.DefaultConfig())
		if err != nil {
			return cell, err
		}
		if err := srv.Start(); err != nil {
			return cell, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	reg := telemetry.New()
	rcfg := router.DefaultConfig(addrs)
	rcfg.Telemetry = reg
	rt, err := router.New(rcfg)
	if err != nil {
		return cell, err
	}
	if err := rt.Start(); err != nil {
		return cell, err
	}
	defer rt.Close()

	wl := workload.FanoutMultiGet(k)
	if err := loadgen.Preload(rt.Addr(), wl, s.Seed); err != nil {
		return cell, err
	}
	cell.Requests, cell.P50, cell.P99, err = measureOpenLoop(ctx, rt.Addr(), loadgen.Options{
		Rate:     rate,
		Conns:    4,
		Workload: wl,
		Seed:     s.Seed + uint64(k),
	}, warm, dur, nil)
	if err != nil {
		return cell, fmt.Errorf("fanout live cell k=%d: %w", k, err)
	}
	cell.Multigets = reg.Counter("router.multigets").Value()
	cell.Legs = reg.Counter("router.fanout_legs").Value()
	rec := reg.Recorder("router.straggler_seconds")
	cell.StragglerMean = rec.Mean()
	cell.StragglerMax = rec.Max()
	return cell, nil
}

// FanoutSweepTable renders measured latency vs fan-out degree with the
// dominant tail-excess phase per point — the slowest-leg story in one
// table: as N grows, P99 rises and fan_straggler takes over the excess.
func FanoutSweepTable(fb *FanoutBench) *report.Table {
	tab := &report.Table{
		Title: "Fan-out degree sweep (simulated): P99 vs N with dominant tail-excess phase",
		Headers: []string{"fan-out N", "requests", "p50", "p99",
			"total excess", "top excess phase", "straggler excess", "share"},
	}
	for _, pt := range fb.Sweep {
		b := pt.Breakdown
		excess := b.TailExcess()
		top := excess.ArgMax()
		totalExcess := b.Tail.MeanTotal - b.Body.MeanTotal
		share := "n/a"
		if totalExcess > 0 {
			share = report.Percent(excess[anatomy.FanStraggler] / totalExcess)
		}
		tab.AddRow(fmt.Sprintf("%d", pt.N), fmt.Sprintf("%d", pt.Requests),
			report.Micros(pt.P50), report.Micros(pt.P99),
			report.Micros(totalExcess), top.String(),
			report.Micros(excess[anatomy.FanStraggler]), share)
	}
	return tab
}

// FanoutAttributionTable renders the fanout × spread regression: what
// widening the fan-out and fattening the per-leg spread cost at the median
// and tail.
func FanoutAttributionTable(fb *FanoutBench) *report.Table {
	return coefficientTable("Fan-out quantile regression: degree and leg spread vs latency", fb.Fits)
}

// FanoutLiveTable renders the real-TCP multi-get cells with the router's
// straggler-spread telemetry.
func FanoutLiveTable(fb *FanoutBench) *report.Table {
	tab := &report.Table{
		Title: "Live multi-get fan-out through the router (real TCP, 8 backends)",
		Headers: []string{"keys/get", "requests", "p50", "p99",
			"multigets", "legs", "straggler mean", "straggler max"},
	}
	for _, c := range fb.Live {
		tab.AddRow(fmt.Sprintf("%d", c.K), fmt.Sprintf("%d", c.Requests),
			report.Micros(c.P50), report.Micros(c.P99),
			fmt.Sprintf("%d", c.Multigets), fmt.Sprintf("%d", c.Legs),
			report.Micros(c.StragglerMean), report.Micros(c.StragglerMax))
	}
	return tab
}
