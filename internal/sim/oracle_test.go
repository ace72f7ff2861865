package sim

import (
	"math"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/hist"
	"treadmill/internal/oracle"
	"treadmill/internal/stats"
)

// depInflation widens iid quantile standard errors for the serial
// correlation of successive sojourn times in a single queue (neighbors
// share busy periods). Effective sample size n/depInflation is
// conservative for the rho <= 0.6 loads used here.
const depInflation = 8

// mm1SimHz is the simulated core frequency; cycles/mm1SimHz converts the
// service sampler's cycle draws to seconds.
const mm1SimHz = 1e9

// singleServerConfig reduces the full simulator to a single-server FIFO
// queue with no confounds: one core, one socket, performance governor at
// a flat frequency (no ramp deficit, no idle-wake, no transitions), no
// IRQ work, no NUMA penalty. With exponential (resp. constant) service
// draws the server is then an exact M/M/1 (resp. M/D/1) queue, so its
// sojourn times must match the closed-form oracle — any disagreement is
// a simulator or measurement bug, not modeling slack.
func singleServerConfig(service dist.Sampler) ServerConfig {
	cpu := DefaultCPUConfig()
	cpu.Cores, cpu.Sockets = 1, 1
	cpu.BaseHz, cpu.MinHz, cpu.TurboHz = mm1SimHz, mm1SimHz, mm1SimHz
	cpu.Governor = Performance
	cpu.TurboEnabled = false
	cpu.Steps = 1
	return ServerConfig{
		CPU:         cpu,
		RSSQueues:   1,
		NICAffinity: NICSameNode,
		NUMA:        NUMASameNode,
		IRQCycles:   0,
		UserCycles:  service,
	}
}

// runQueueSim drives n Poisson arrivals at rate lambda through the
// reduced simulator and returns the server sojourn times (ArriveServer
// to ServerDone), with the first discard dropped as transient warmup
// from the empty initial state. gaps, when non-nil, receives the
// realized inter-arrival gaps.
func runQueueSim(t *testing.T, seed uint64, n, discard int, lambda float64, service dist.Sampler, gaps *[]float64) []float64 {
	t.Helper()
	eng := &Engine{}
	rng := dist.NewRNG(seed)
	srv, err := NewServer(eng, singleServerConfig(service), rng)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := dist.Exponential{Rate: lambda}
	arrRNG := rng.Fork()
	sojourns := make([]float64, 0, n)
	issued := 0
	var schedule func()
	schedule = func() {
		issued++
		req := &Request{ID: uint64(issued), ConnID: 0, Created: eng.Now()}
		req.owner = &probe{done: func() {
			sojourns = append(sojourns, req.ServerDone-req.ArriveServer)
		}}
		srv.arrive(req)
		if issued < n {
			g := arrivals.Sample(arrRNG)
			if gaps != nil {
				*gaps = append(*gaps, g)
			}
			eng.Schedule(g, schedule)
		}
	}
	eng.Schedule(arrivals.Sample(arrRNG), schedule)
	// Horizon: double the expected arrival span plus a wide drain margin.
	eng.Run(2*float64(n)/lambda + 1)
	if len(sojourns) != n {
		t.Fatalf("only %d of %d requests completed", len(sojourns), n)
	}
	return sojourns[discard:]
}

// checkQuantile asserts the empirical p-quantile of xs agrees with the
// analytic value two ways: inside the k-sigma analytic band (SE from the
// oracle density, deflated for serial dependence) and inside the
// dependence-widened bootstrap CI of the empirical estimate.
func checkQuantile(t *testing.T, what string, xs []float64, p, analytic, density float64, rng *dist.RNG) {
	t.Helper()
	emp, err := stats.Quantile(xs, p)
	if err != nil {
		t.Fatal(err)
	}
	se, err := oracle.QuantileSE(p, len(xs)/depInflation, density)
	if err != nil {
		t.Fatal(err)
	}
	band := oracle.QuantileBand(analytic, se, 5)
	if !band.Contains(emp) {
		t.Errorf("%s P%g: empirical %.6g outside analytic band %v (analytic %.6g, |dev| = %.2f sigma)",
			what, p*100, emp, band, analytic, math.Abs(emp-analytic)/se)
	}
	lo, hi, err := stats.BootstrapCI(xs, func(ys []float64) float64 {
		v, qerr := stats.Quantile(ys, p)
		if qerr != nil {
			return math.NaN()
		}
		return v
	}, 0.99, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The iid bootstrap underestimates CI width on correlated sojourns by
	// about sqrt(depInflation); widen it symmetrically about the estimate.
	w := math.Sqrt(depInflation)
	ci := oracle.Band{Lo: emp - w*(emp-lo), Hi: emp + w*(hi-emp)}
	if !ci.Contains(analytic) {
		t.Errorf("%s P%g: analytic %.6g outside widened bootstrap CI %v (raw CI [%.6g, %.6g], empirical %.6g)",
			what, p*100, analytic, ci, lo, hi, emp)
	}
}

func TestSimMatchesMM1Oracle(t *testing.T) {
	// rho = 0.6: mean service 100us (1e5 cycles at 1GHz) => mu = 10k/s,
	// lambda = 6k/s.
	const meanCycles = 1e5
	q := oracle.MM1{Lambda: 6000, Mu: mm1SimHz / meanCycles}
	service := dist.Exponential{Rate: 1 / meanCycles}
	xs := runQueueSim(t, 401, 120000, 5000, q.Lambda, service, nil)
	rng := dist.NewRNG(402)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		analytic, err := q.SojournQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		checkQuantile(t, "sim M/M/1", xs, p, analytic, q.SojournDensity(analytic), rng.Fork())
	}
	// The mean has a tighter CLT handle than any single quantile.
	mean := stats.Mean(xs)
	if rel := math.Abs(mean-q.MeanSojourn()) / q.MeanSojourn(); rel > 0.05 {
		t.Errorf("sim M/M/1 mean %.6g vs analytic %.6g (rel err %.3f)", mean, q.MeanSojourn(), rel)
	}
}

func TestSimMatchesMD1Oracle(t *testing.T) {
	const cyclesD = 1e5 // D = 100us at 1GHz
	q := oracle.MD1{Lambda: 6000, D: cyclesD / mm1SimHz}
	xs := runQueueSim(t, 403, 120000, 5000, q.Lambda, dist.Constant{V: cyclesD}, nil)
	rng := dist.NewRNG(404)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		analytic, err := q.SojournQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		checkQuantile(t, "sim M/D/1", xs, p, analytic, q.SojournDensity(analytic), rng.Fork())
	}
	mean := stats.Mean(xs)
	if rel := math.Abs(mean-q.MeanSojourn()) / q.MeanSojourn(); rel > 0.05 {
		t.Errorf("sim M/D/1 mean %.6g vs analytic %.6g (rel err %.3f)", mean, q.MeanSojourn(), rel)
	}
}

func TestSimArrivalProcessIsOpenLoop(t *testing.T) {
	// The harness's arrival gaps must pass the oracle's Poisson litmus
	// test — otherwise the queueing comparisons above are meaningless.
	const meanCycles = 1e5
	var gaps []float64
	runQueueSim(t, 405, 30000, 0, 6000, dist.Exponential{Rate: 1 / meanCycles}, &gaps)
	cv, band, ok, err := oracle.ArrivalCVCheck(gaps, 0.99, 300, dist.NewRNG(406))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("sim arrival gaps fail the open-loop CV check: cv=%g band=%v", cv, band)
	}
}

func TestHistMergePreservesOracleQuantiles(t *testing.T) {
	// Shard M/M/1 sojourns across 8 same-geometry histograms (as fleet
	// agents do), merge the snapshots, and require the merged quantiles
	// to (a) track the exact sample quantiles within bin resolution and
	// (b) stay inside the analytic oracle band. This pins the entire
	// distributed-aggregation path — record, snapshot, merge, quantile —
	// to external truth.
	const meanCycles = 1e5
	q := oracle.MM1{Lambda: 6000, Mu: mm1SimHz / meanCycles}
	xs := runQueueSim(t, 407, 120000, 5000, q.Lambda, dist.Exponential{Rate: 1 / meanCycles}, nil)

	cfg := hist.DefaultConfig()
	cfg.Bins = 2048
	const shards = 8
	snaps := make([]*hist.Snapshot, shards)
	hs := make([]*hist.Histogram, shards)
	for i := range hs {
		h, err := hist.NewWithBounds(cfg, 1e-6, 1e-1)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	for i, v := range xs {
		if err := hs[i%shards].Record(v); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		s, err := h.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = s
	}
	merged, err := hist.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Count(), uint64(len(xs)); got != want {
		t.Fatalf("merged mass %d != recorded %d", got, want)
	}
	// Bin resolution: log-spaced bins over [1e-6, 1e-1] give a per-bin
	// ratio of exp(ln(1e5)/2048) ~ 1.0056; allow two bin widths.
	binRel := math.Exp(math.Log(1e5)/2048)*2 - 2
	for _, p := range []float64{0.5, 0.95, 0.99} {
		got, err := merged.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := stats.Quantile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-exact) / exact; rel > binRel {
			t.Errorf("merged P%g %.6g vs exact %.6g: rel err %.4f > bin tolerance %.4f", p*100, got, exact, rel, binRel)
		}
		analytic, err := q.SojournQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		se, err := oracle.QuantileSE(p, len(xs)/depInflation, q.SojournDensity(analytic))
		if err != nil {
			t.Fatal(err)
		}
		band := oracle.QuantileBand(analytic, se, 5)
		band.Lo -= binRel * analytic
		band.Hi += binRel * analytic
		if !band.Contains(got) {
			t.Errorf("merged P%g %.6g outside analytic band %v", p*100, got, band)
		}
	}
}
