package runner

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
)

// tinyLiveFactors keeps the live-campaign test fast: two load-shape factors,
// no runtime-knob changes, 4 cells total.
func tinyLiveFactors() []LiveFactor {
	return []LiveFactor{
		{
			Name: "conns", Low: "1", High: "2",
			Apply: func(k *LiveKnobs, level int) { k.Conns = 1 + level },
		},
		{
			Name: "valuesize", Low: "64B", High: "1KiB",
			Apply: func(k *LiveKnobs, level int) {
				if level == 1 {
					k.ValueSize = 1024
				}
			},
		},
	}
}

// TestLiveStudySmoke runs a minimal live campaign over loopback and checks
// the Result shape: one sample per scheduled experiment with positive
// quantiles, per-cell anatomy tagged live, and restored runtime knobs.
func TestLiveStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live campaign burns wall clock")
	}
	origProcs := runtime.GOMAXPROCS(0)
	origGC := debug.SetGCPercent(100)
	debug.SetGCPercent(origGC)

	reg := telemetry.New()
	s := &LiveStudy{
		Factors:        tinyLiveFactors(),
		TotalRate:      2000,
		Duration:       80 * time.Millisecond,
		Warmup:         20 * time.Millisecond,
		Replicates:     1,
		Quantiles:      []float64{0.5, 0.99},
		Seed:           7,
		Telemetry:      reg,
		CollectAnatomy: true,
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != origProcs {
		t.Errorf("GOMAXPROCS not restored: %d != %d", got, origProcs)
	}
	if got := debug.SetGCPercent(origGC); got != origGC {
		t.Errorf("GOGC not restored: %d != %d", got, origGC)
	}

	if len(res.Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(res.Samples))
	}
	for i, smp := range res.Samples {
		p50, p99 := smp.Quantiles[0.5], smp.Quantiles[0.99]
		if !(p50 > 0) || !(p99 >= p50) {
			t.Errorf("sample %d: p50=%g p99=%g", i, p50, p99)
		}
	}
	if len(res.Anatomy) != 4 {
		t.Fatalf("anatomy cells = %d, want 4", len(res.Anatomy))
	}
	for key, b := range res.Anatomy {
		if b.Source != anatomy.SourceLive {
			t.Errorf("cell %s: source %q", key, b.Source)
		}
		if b.Requests == 0 {
			t.Errorf("cell %s: empty breakdown", key)
		}
		// Live trailers must split the wire span into server phases.
		srvWall := b.Overall.Mean[anatomy.SrvParse] + b.Overall.Mean[anatomy.SrvStore] +
			b.Overall.Mean[anatomy.SrvSerialize] + b.Overall.Mean[anatomy.SrvWrite]
		if srvWall <= 0 {
			t.Errorf("cell %s: no server-derived spans", key)
		}
	}
	// The campaign gauges report completion.
	snap := reg.Snapshot()
	if snap.Gauges["runner.experiments_done"] != 4 || snap.Gauges["runner.experiments_total"] != 4 {
		t.Errorf("progress gauges: %+v", snap.Gauges)
	}
}

// TestLiveCellAnatomyExcludesWarmup: a cell's anatomy must describe the
// requests its quantiles are taken from. With warmup as long as the
// measurement, recording warmup completions would double the breakdown;
// the two counts may differ only by the requests straddling the gate, at
// most one per connection's reader.
func TestLiveCellAnatomyExcludesWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("live cells burn wall clock")
	}
	origGC := debug.SetGCPercent(100)
	defer debug.SetGCPercent(origGC)
	s := &LiveStudy{
		Factors:   tinyLiveFactors(),
		TotalRate: 2000,
		Duration:  150 * time.Millisecond,
		Warmup:    150 * time.Millisecond,
		Quantiles: []float64{0.5},
	}
	probe := rtprobe.NewSampler(rtprobe.Config{})
	probe.Start()
	defer probe.Stop()
	for _, levels := range [][]int{{0, 0}, {1, 0}} {
		agg, err := anatomy.NewAggregator(anatomy.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		lats, err := s.runCell(context.Background(), levels, probe, agg.Record, 3)
		if err != nil {
			t.Fatal(err)
		}
		conns := 1 + levels[0] // tinyLiveFactors' conns factor
		b := agg.Finalize()
		if diff := int(b.Requests) - len(lats); diff < -conns || diff > conns {
			t.Errorf("levels %v: anatomy covers %d requests, latencies %d; want within ±%d", levels, b.Requests, len(lats), conns)
		}
	}
}

// TestLiveStudyValidate covers rejection of malformed campaigns.
func TestLiveStudyValidate(t *testing.T) {
	base := func() *LiveStudy {
		return &LiveStudy{
			Factors: tinyLiveFactors(), TotalRate: 1000,
			Duration: time.Millisecond, Replicates: 1, Quantiles: []float64{0.5},
		}
	}
	cases := map[string]func(*LiveStudy){
		"no factors":   func(s *LiveStudy) { s.Factors = nil },
		"zero rate":    func(s *LiveStudy) { s.TotalRate = 0 },
		"no duration":  func(s *LiveStudy) { s.Duration = 0 },
		"no replicate": func(s *LiveStudy) { s.Replicates = 0 },
		"no quantiles": func(s *LiveStudy) { s.Quantiles = nil },
	}
	for name, mutate := range cases {
		s := base()
		mutate(s)
		if _, err := s.Run(context.Background()); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
