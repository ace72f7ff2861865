package experiments

import (
	"context"
	"strings"
	"testing"

	"treadmill/internal/anatomy"
	"treadmill/internal/sim"
	"treadmill/internal/stats"
	"treadmill/internal/testlock"
)

// TestFindingInferenceBatching is the inference scenario's headline check,
// run deterministically on the simulator: at the same offered load,
// serial (MaxBatch=1) execution saturates the accelerator and queue wait
// blows up the tail, while iteration batching amortizes the per-iteration
// overhead and pulls the P99 down. The anatomy must agree: the serial
// cell's tail excess is dominated by infer_queue.
func TestFindingInferenceBatching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	run := func(maxBatch int, seed uint64) ([]float64, *anatomy.Breakdown) {
		agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		lats, _, err := runClusterLatsObserved(func(c *sim.ClusterConfig) {
			c.Server = sim.InferenceServerConfig()
			c.Server.Inference.Model.MaxBatch = maxBatch
		}, inferRate, 0.3, 1.2, seed, func(r *sim.Request) {
			agg.Record(r.MeasuredLatency(), r.Phases)
		})
		if err != nil {
			t.Fatal(err)
		}
		return lats, agg.Finalize()
	}
	serialLats, serial := run(1, 11)
	batchedLats, batched := run(8, 11)

	serialP99, _ := stats.Quantile(serialLats, 0.99)
	batchedP99, _ := stats.Quantile(batchedLats, 0.99)
	if serialP99 <= 1.5*batchedP99 {
		t.Errorf("serial p99 %g not clearly above batched p99 %g", serialP99, batchedP99)
	}
	if serial.LowConfidence || batched.LowConfidence {
		t.Fatalf("breakdowns low-confidence: serial=%q batched=%q", serial.Reason, batched.Reason)
	}
	// The serial tail excess must land in the admission queue: requests
	// waiting for the single-slot iteration engine.
	excess := serial.TailExcess()
	if top := excess.ArgMax(); top != anatomy.InferQueue {
		t.Errorf("serial tail excess dominated by %v, want infer_queue\nexcess: %+v", top, excess)
	}
	gap := serial.Tail.MeanTotal - serial.Body.MeanTotal
	if gap <= 0 {
		t.Fatalf("serial tail gap %g not positive", gap)
	}
	if excess[anatomy.InferQueue] < 0.5*gap {
		t.Errorf("infer_queue excess %g explains under half the %g tail gap",
			excess[anatomy.InferQueue], gap)
	}
	// Batching pays some batch residency in exchange; the batched cell must
	// actually use it.
	if batched.Tail.Mean[anatomy.InferBatch] <= 0 {
		t.Error("batched cell shows no batch residency at the tail")
	}
}

// TestFindingFanoutStraggler checks the scatter-gather story on the
// simulator: widening the fan-out raises the P99 (the max of N legs grows
// with N), and the anatomy pins the growth on the fan_straggler phase —
// the wait for the slowest leg beyond the fastest.
func TestFindingFanoutStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	run := func(n int, seed uint64) ([]float64, *anatomy.Breakdown) {
		agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		lats, _, err := runClusterLatsObserved(func(c *sim.ClusterConfig) {
			c.Server = sim.FanoutServerConfig(n)
		}, fanoutRate, 0.02, 0.12, seed, func(r *sim.Request) {
			agg.Record(r.MeasuredLatency(), r.Phases)
		})
		if err != nil {
			t.Fatal(err)
		}
		return lats, agg.Finalize()
	}
	oneLats, _ := run(1, 21)
	eightLats, eight := run(8, 21)

	oneP99, _ := stats.Quantile(oneLats, 0.99)
	eightP99, _ := stats.Quantile(eightLats, 0.99)
	if eightP99 <= oneP99 {
		t.Errorf("fan-out 8 p99 %g not above fan-out 1 p99 %g", eightP99, oneP99)
	}
	if eight.LowConfidence {
		t.Fatalf("fan-out breakdown low-confidence: %q", eight.Reason)
	}
	// The straggler span must be a major tail phase at N=8: the tail pays
	// for the slowest of 8 legs.
	if eight.Tail.Mean[anatomy.FanStraggler] <= 0 {
		t.Fatal("no straggler span recorded at fan-out 8")
	}
	excess := eight.TailExcess()
	if excess[anatomy.FanStraggler] <= 0 {
		t.Errorf("straggler tail excess %g should be positive", excess[anatomy.FanStraggler])
	}
}

// TestInferBenchQuick exercises the full inference campaign (sim factorial
// + live contrast) at quick scale and sanity-checks the rendered tables.
func TestInferBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("live + simulation experiment")
	}
	testlock.CPUBound(t)
	ib, err := RunInferBench(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(ib.Factors) != 2 {
		t.Fatalf("factors = %v", ib.Factors)
	}
	if len(ib.Live) != 2 {
		t.Fatalf("%d live cells", len(ib.Live))
	}
	for _, c := range ib.Live {
		if c.Requests == 0 || c.P99 <= 0 {
			t.Errorf("live cell %s: requests=%d p99=%g", c.Name, c.Requests, c.P99)
		}
	}
	anat, err := InferAnatomyTable(ib)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(anat.String(), "infer") {
		t.Errorf("anatomy table shows no inference phase:\n%s", anat)
	}
	attr := InferAttributionTable(ib)
	if !strings.Contains(attr.String(), "batch") {
		t.Errorf("attribution table missing batch term:\n%s", attr)
	}
	live := InferLiveTable(ib)
	if !strings.Contains(live.String(), "batch-8") {
		t.Errorf("live table missing batched cell:\n%s", live)
	}
}

// TestFanoutBenchQuick exercises the scatter-gather campaign (sweep,
// factorial, live router cells) at quick scale.
func TestFanoutBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("live + simulation experiment")
	}
	testlock.CPUBound(t)
	fb, err := RunFanoutBench(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Sweep) != len(fanoutDegrees) {
		t.Fatalf("%d sweep points", len(fb.Sweep))
	}
	if len(fb.Live) != 3 {
		t.Fatalf("%d live cells", len(fb.Live))
	}
	for _, c := range fb.Live {
		if c.Requests == 0 {
			t.Errorf("live cell k=%d produced no samples", c.K)
		}
		if c.K > 1 && c.Multigets == 0 {
			t.Errorf("live cell k=%d recorded no multigets", c.K)
		}
	}
	sweep := FanoutSweepTable(fb)
	if !strings.Contains(sweep.String(), "fan") {
		t.Errorf("sweep table:\n%s", sweep)
	}
	attr := FanoutAttributionTable(fb)
	if !strings.Contains(attr.String(), "fanout") {
		t.Errorf("attribution table:\n%s", attr)
	}
	live := FanoutLiveTable(fb)
	if !strings.Contains(live.String(), "straggler") {
		t.Errorf("live table:\n%s", live)
	}
}
