package experiments

import (
	"context"
	"fmt"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/dist"
	"treadmill/internal/infersim"
	"treadmill/internal/loadgen"
	"treadmill/internal/protocol"
	"treadmill/internal/quantreg"
	"treadmill/internal/report"
	"treadmill/internal/runner"
	"treadmill/internal/server"
	"treadmill/internal/sim"
	"treadmill/internal/workload"
)

// inferRate is the offered load for the inference scenario. The serial
// (MaxBatch=1) service demand is ~230µs/request (~4.3k RPS capacity);
// batching to 8 amortizes the per-iteration overhead down to ~116µs
// (~8.6k RPS), so 3200 RPS puts the serial cell near 75% utilization and
// the batched cell near 37% — the contrast the factorial prices.
const inferRate = 3200.0

// inferFleet sizes the client fleet for the low-rate inference scenario.
const inferFleet = 4

// inferScale stretches a Scale's simulated window: at ~3k RPS the default
// memcached-scale durations yield too few completions for stable tail
// quantiles, so the inference campaign runs ~8x longer (still cheap — event
// count scales with requests, not simulated time).
func inferScale(s Scale) (dur, warm float64) {
	return s.Duration * 8, s.Warmup * 5
}

// InferFactors returns the inference factorial: the server's iteration
// batching width crossed with arrival burstiness at matched long-run rate.
// Apply clones the shared Inference config before mutating it — Study
// copies the cluster shallowly, so writing through the pointer would leak
// one cell's batch width into every other cell.
func InferFactors() []runner.Factor {
	return []runner.Factor{
		{
			Name: "batch", Low: "serial", High: "batch-8",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				inf := *cfg.Server.Inference
				cfg.Server.Inference = &inf
				if level == 0 {
					inf.Model.MaxBatch = 1
				} else {
					inf.Model.MaxBatch = 8
				}
			},
		},
		{
			Name: "burst", Low: "poisson", High: "mmpp-4x",
			Apply: func(cfg *sim.ClusterConfig, level int) {
				if level == 0 {
					return
				}
				for i := range cfg.Clients {
					cfg.Clients[i].Config.Arrival = func(rate float64) dist.Sampler {
						m, err := dist.NewMMPP2FromRate(rate, 4, 0.2, 0.02)
						if err != nil {
							panic(err) // parameters are compile-time constants
						}
						return m
					}
				}
			},
		},
	}
}

// InferLiveCell is one real-TCP inference contrast cell: a loopback server
// running the token-batching model at a fixed batch width, with the
// server-reported per-request spans aggregated into an anatomy breakdown.
type InferLiveCell struct {
	Name      string
	MaxBatch  int
	Requests  int
	Shed      uint64
	P50, P99  float64
	Breakdown *anatomy.Breakdown
}

// InferBench bundles the inference scenario: the simulated batch × burst
// factorial with quantile-regression fits, plus the live serial-vs-batched
// contrast over real TCP.
type InferBench struct {
	Factors []string
	Result  *runner.Result
	Fits    map[float64]*quantreg.Result
	Live    []InferLiveCell
}

// RunInferBench executes the full inference campaign: the simulated
// factorial through the shared Study/quantreg pipeline, then the live
// two-cell contrast.
func RunInferBench(ctx context.Context, s Scale) (*InferBench, error) {
	dur, warm := inferScale(s)
	base := sim.DefaultClusterConfig(inferFleet)
	base.Server = sim.InferenceServerConfig()
	base.Seed = s.Seed
	res, err := factorialStudy(s, base, InferFactors(), inferRate, dur, warm).Run(ctx)
	if err != nil {
		return nil, err
	}
	ib := &InferBench{Factors: res.Factors, Result: res}
	if ib.Fits, err = fitQuantiles(res, s, "infer", bodyAndTail); err != nil {
		return nil, err
	}
	for _, batch := range []int{1, 8} {
		cell, err := runInferLiveCell(ctx, s, batch)
		if err != nil {
			return nil, err
		}
		ib.Live = append(ib.Live, cell)
	}
	return ib, nil
}

// inferLiveParams sizes the live inference cells. With the spin-wait real
// clock the live serial service demand tracks the model (~100µs/request
// for the 16-token live workload, ~6k RPS capacity; batch-8 roughly
// doubles that), so 6500 RPS puts the serial cell deep into queueing while
// the batched cell keeps headroom — the same contrast the simulated
// factorial prices.
func inferLiveParams(s Scale) (rate float64, dur, warm time.Duration) {
	if s.Name == "quick" {
		return 6500, 400 * time.Millisecond, 100 * time.Millisecond
	}
	return 6500, 2 * time.Second, 500 * time.Millisecond
}

// inferLiveWorkload returns the wire workload for the live cells: the
// standard inference mix with shorter completions (mean 16 tokens), so a
// request needs ~17 batcher iterations instead of ~65 and the per-iteration
// timer overhead doesn't swamp the modeled compute.
func inferLiveWorkload() workload.Config {
	wl := workload.Inference()
	wl.Inference.OutTokens = workload.SizeDist{Kind: "lognormal", Mean: 16, CV2: 0.3}
	return wl
}

// runInferLiveCell boots a real server with the inference batcher at the
// given width, drives open-loop infer traffic over loopback, and builds the
// anatomy breakdown from the server's wire-reported spans: queue, prefill,
// decode, batch — with the client-side remainder (RTT minus the server's
// residence) as Other, so the vector tiles the measured RTT.
func runInferLiveCell(ctx context.Context, s Scale, maxBatch int) (InferLiveCell, error) {
	cell := InferLiveCell{Name: fmt.Sprintf("batch-%d", maxBatch), MaxBatch: maxBatch}
	rate, dur, warm := inferLiveParams(s)

	scfg := server.DefaultConfig()
	model := infersim.DefaultConfig()
	model.MaxBatch = maxBatch
	// A short admission queue keeps the overloaded serial cell honest and
	// cheap: excess arrivals shed as BUSY (counted below) instead of
	// accumulating minutes of backlog the post-deadline drain would have to
	// chew through one timer-driven iteration at a time.
	model.QueueCap = 64
	scfg.Inference = &model
	srv, err := server.New(scfg)
	if err != nil {
		return cell, err
	}
	if err := srv.Start(); err != nil {
		return cell, err
	}
	defer srv.Close()

	agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
	if err != nil {
		return cell, err
	}
	// Hard deadline on the drain: under serial overload the in-flight pipe
	// can hold requests whose timer-driven completion would take far longer
	// than the measurement window; waitOrAbandon closes the pool on cancel.
	runCtx, cancel := context.WithTimeout(ctx, warm+dur+2*time.Second)
	defer cancel()
	cell.Requests, cell.P50, cell.P99, err = measureOpenLoop(runCtx, srv.Addr(), loadgen.Options{
		Rate:        rate,
		Conns:       4,
		MaxInflight: 16,
		Workload:    inferLiveWorkload(),
		Seed:        s.Seed,
	}, warm, dur, func(r *client.Result, total float64) bool {
		if r.Resp == nil {
			return false
		}
		it, err := protocol.ParseInferStatus(r.Resp.Status)
		if err != nil {
			return false // BUSY shed; counted via the server's shed counter
		}
		var v anatomy.Vec
		v[anatomy.InferQueue] = float64(it.QueueNs) * 1e-9
		v[anatomy.InferPrefill] = float64(it.PrefillNs) * 1e-9
		v[anatomy.InferDecode] = float64(it.DecodeNs) * 1e-9
		v[anatomy.InferBatch] = float64(it.BatchNs) * 1e-9
		// Clock domains differ (server monotonic vs client RTT); when
		// the reported residence exceeds the measured RTT, scale the
		// server spans down so the ledger still tiles the measurement.
		res := float64(it.ResidenceNs()) * 1e-9
		if res > total && res > 0 {
			f := total / res
			for p := range v {
				v[p] *= f
			}
			res = total
		}
		v[anatomy.Other] = total - res
		agg.Record(total, v)
		return true
	})
	if err != nil {
		return cell, fmt.Errorf("inference live cell batch-%d: %w", maxBatch, err)
	}
	cell.Breakdown = agg.Finalize()
	if b := srv.InferBatcher(); b != nil {
		cell.Shed = b.Rejected()
	}
	return cell, nil
}

// InferAnatomyTable renders the per-cell tail anatomy of the simulated
// inference factorial: which phase (queue wait, prefill, decode, batch
// residency) the slowest requests pay most for, per batch × burst cell.
func InferAnatomyTable(ib *InferBench) (*report.Table, error) {
	if ib.Result == nil || ib.Result.Anatomy == nil {
		return nil, fmt.Errorf("inference campaign collected no anatomy")
	}
	tab := &report.Table{
		Title: "Inference tail anatomy per configuration (batch,burst): body ≤P50 vs tail ≥P99",
		Headers: []string{"config", "requests", "p50", "p99",
			"total excess", "top excess phase", "phase excess", "share"},
	}
	addCellAnatomyRows(tab, len(ib.Factors), ib.Result.Anatomy)
	return tab, nil
}

// InferAttributionTable renders the quantile-regression view of the
// inference factorial: what serial execution and bursty arrivals each cost
// at the median and the tail.
func InferAttributionTable(ib *InferBench) *report.Table {
	return coefficientTable("Inference quantile regression: batching and burstiness vs latency", ib.Fits)
}

// InferLiveTable renders the real-TCP serial-vs-batched contrast with the
// server-reported span means at the tail.
func InferLiveTable(ib *InferBench) *report.Table {
	tab := &report.Table{
		Title: "Live inference contrast (real TCP, server-reported spans): serial vs batched",
		Headers: []string{"cell", "requests", "shed", "p50", "p99",
			"tail queue", "tail prefill", "tail decode", "tail batch"},
	}
	for _, c := range ib.Live {
		row := []string{c.Name, fmt.Sprintf("%d", c.Requests), fmt.Sprintf("%d", c.Shed),
			report.Micros(c.P50), report.Micros(c.P99)}
		if b := c.Breakdown; b != nil {
			for _, p := range []anatomy.Phase{anatomy.InferQueue, anatomy.InferPrefill,
				anatomy.InferDecode, anatomy.InferBatch} {
				row = append(row, report.Micros(b.Tail.Mean[p]))
			}
		} else {
			row = append(row, "n/a", "n/a", "n/a", "n/a")
		}
		tab.AddRow(row...)
	}
	return tab
}
