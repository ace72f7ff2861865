package workload

import (
	"math"
	"strings"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/protocol"
)

// TestSizeDistBuildErrors pins the satellite-6 contract: every rejection
// names the distribution kind and the offending field, and NaN or negative
// parameters never slip through the comparisons.
func TestSizeDistBuildErrors(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }()
	cases := []struct {
		name string
		s    SizeDist
		want []string // substrings the error must contain
	}{
		{"constant zero", SizeDist{Kind: "constant", Value: 0}, []string{"constant", "value", "want > 0"}},
		{"constant negative", SizeDist{Kind: "constant", Value: -5}, []string{"constant", "value", "-5"}},
		{"constant nan", SizeDist{Kind: "constant", Value: nan}, []string{"constant", "value", "NaN"}},
		{"uniform negative lo", SizeDist{Kind: "uniform", Lo: -1, Hi: 2}, []string{"uniform", "lo", "-1"}},
		{"uniform inverted", SizeDist{Kind: "uniform", Lo: 10, Hi: 1}, []string{"uniform", "hi", "want > lo"}},
		{"uniform nan hi", SizeDist{Kind: "uniform", Lo: 0, Hi: nan}, []string{"uniform", "hi", "NaN"}},
		{"lognormal zero mean", SizeDist{Kind: "lognormal", Mean: 0, CV2: 1}, []string{"lognormal", "mean", "want > 0"}},
		{"lognormal negative cv2", SizeDist{Kind: "lognormal", Mean: 10, CV2: -1}, []string{"lognormal", "cv2", "-1"}},
		{"lognormal nan mean", SizeDist{Kind: "lognormal", Mean: nan}, []string{"lognormal", "mean", "NaN"}},
		{"pareto zero xm", SizeDist{Kind: "pareto", Xm: 0, Alpha: 2}, []string{"pareto", "xm", "want > 0"}},
		{"pareto nan alpha", SizeDist{Kind: "pareto", Xm: 1, Alpha: nan}, []string{"pareto", "alpha", "NaN"}},
		{"unknown kind", SizeDist{Kind: "gaussian"}, []string{"unknown", "gaussian"}},
		{"empty kind", SizeDist{}, []string{"unknown"}},
	}
	for _, tc := range cases {
		_, err := tc.s.Build()
		if err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.s)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", tc.name, err, want)
			}
		}
	}
}

func TestArrivalSpecBuild(t *testing.T) {
	for _, a := range []ArrivalSpec{
		{},
		{Kind: "poisson"},
		{Kind: "mmpp2", Burst: 4, BurstFrac: 0.2, Cycle: 0.02},
		{Kind: "flash", FlashAt: 1, FlashDur: 2, FlashMult: 5},
	} {
		s, err := a.Build(1000)
		if err != nil {
			t.Errorf("%+v: %v", a, err)
			continue
		}
		if s == nil {
			t.Errorf("%+v: nil sampler", a)
		}
	}
	for _, a := range []ArrivalSpec{
		{Kind: "mmpp"},
		{Kind: "mmpp2"}, // missing params
		{Kind: "mmpp2", Burst: 0.5, BurstFrac: 0.2, Cycle: 0.02}, // burst must exceed 1
		{Kind: "flash"},
		{Kind: "flash", FlashAt: 1, FlashDur: -1, FlashMult: 5},
	} {
		if _, err := a.Build(1000); err == nil {
			t.Errorf("%+v accepted", a)
		}
	}
	for _, rate := range []float64{0, math.Inf(1), math.NaN()} {
		if _, err := (ArrivalSpec{}).Build(rate); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
}

func TestArrivalSpecRateMatched(t *testing.T) {
	for _, a := range []ArrivalSpec{
		{},
		{Kind: "mmpp2", Burst: 4, BurstFrac: 0.2, Cycle: 0.02},
	} {
		s, err := a.Build(2000)
		if err != nil {
			t.Fatal(err)
		}
		if got := 1 / s.Mean(); got < 1999 || got > 2001 {
			t.Errorf("%+v: long-run rate %g, want 2000", a, got)
		}
	}
}

func TestGeneratorInference(t *testing.T) {
	g, err := NewGenerator(Inference(), dist.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var sumIn, sumOut float64
	const n = 20000
	for i := 0; i < n; i++ {
		req := g.Next()
		if req.Op != protocol.OpInfer {
			t.Fatalf("op = %v, want infer", req.Op)
		}
		if req.InTokens < 1 || req.InTokens > protocol.MaxInferTokens ||
			req.OutTokens < 1 || req.OutTokens > protocol.MaxInferTokens {
			t.Fatalf("tokens out of range: %+v", req)
		}
		sumIn += float64(req.InTokens)
		sumOut += float64(req.OutTokens)
	}
	if m := sumIn / n; m < 230 || m > 280 {
		t.Errorf("mean in tokens %g, want ~256", m)
	}
	if m := sumOut / n; m < 58 || m > 70 {
		t.Errorf("mean out tokens %g, want ~64", m)
	}
}

func TestGeneratorMultiGetDistinctRanks(t *testing.T) {
	cfg := FanoutMultiGet(8)
	g, err := NewGenerator(cfg, dist.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		req := g.Next()
		if req.Op != protocol.OpGet {
			t.Fatalf("op = %v, want get", req.Op)
		}
		if len(req.Keys) != 8 {
			t.Fatalf("multi-get width %d, want 8", len(req.Keys))
		}
		if req.Key != req.Keys[0] {
			t.Fatalf("Key %q != Keys[0] %q", req.Key, req.Keys[0])
		}
		seen := map[string]bool{}
		for _, k := range req.Keys {
			if seen[k] {
				t.Fatalf("duplicate key %q in multi-get %v", k, req.Keys)
			}
			seen[k] = true
		}
	}
}

func TestMultiGetValidation(t *testing.T) {
	cfg := FanoutMultiGet(4)
	cfg.Keys = 3 // fewer keys than fan-out width
	if _, err := NewGenerator(cfg, dist.NewRNG(1)); err == nil {
		t.Error("multi_get > keys accepted")
	}
	cfg = FanoutMultiGet(MaxMultiGet + 1)
	cfg.Keys = 10000
	if _, err := NewGenerator(cfg, dist.NewRNG(1)); err == nil {
		t.Error("multi_get above cap accepted")
	}
}

func TestLeanCompatible(t *testing.T) {
	if !Default().LeanCompatible() {
		t.Error("default workload should be lean-compatible")
	}
	if Inference().LeanCompatible() {
		t.Error("inference workload must not be lean-compatible")
	}
	if FanoutMultiGet(8).LeanCompatible() {
		t.Error("multi-get workload must not be lean-compatible")
	}
}

// TestDrawOrderFrozen guards the bit-compatibility promise: a plain
// workload's request stream is unchanged by the scenario-layer additions
// (NextLean and Next still agree draw for draw).
func TestDrawOrderFrozen(t *testing.T) {
	cfg := Default()
	cfg.Keys = 200
	g1, _ := NewGenerator(cfg, dist.NewRNG(42))
	g2, _ := NewGenerator(cfg, dist.NewRNG(42))
	var lean Lean
	for i := 0; i < 5000; i++ {
		req := g1.Next()
		g2.NextLean(&lean)
		if req.Op != lean.Op {
			t.Fatalf("draw %d: op %v vs lean %v", i, req.Op, lean.Op)
		}
		if got := string(g2.AppendKey(nil, lean.Rank)); got != req.Key {
			t.Fatalf("draw %d: key %q vs lean %q", i, req.Key, got)
		}
		if req.Op == protocol.OpSet && len(req.Value) != lean.ValueLen {
			t.Fatalf("draw %d: value len %d vs lean %d", i, len(req.Value), lean.ValueLen)
		}
	}
}
