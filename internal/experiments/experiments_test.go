package experiments

import (
	"context"
	"strings"
	"testing"

	"treadmill/internal/stats"
	"treadmill/internal/testlock"
)

// lastY returns the final cumulative value of a series (for CDFs, should
// be 1).
func lastY(s struct {
	Name string
	X, Y []float64
}) float64 {
	return s.Y[len(s.Y)-1]
}

func TestFig1OpenLoopTailExceedsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	fig, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	// Max outstanding per series: open loop must exceed every closed-loop
	// variant; closed with k conns is capped at k.
	maxX := func(i int) float64 {
		xs := fig.Series[i].X
		return xs[len(xs)-1]
	}
	open := maxX(0)
	for i, cap_ := range []float64{4, 8, 12} {
		if got := maxX(i + 1); got > cap_ {
			t.Errorf("closed-loop w/%g reached %g outstanding", cap_, got)
		}
	}
	if open <= 12 {
		t.Errorf("open loop max outstanding %g should exceed closed-loop caps", open)
	}
	for i, s := range fig.Series {
		if s.Y[len(s.Y)-1] < 0.9999 {
			t.Errorf("series %d CDF ends at %g", i, s.Y[len(s.Y)-1])
		}
	}
}

func TestFig2RemoteClientDominatesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	fig, tab, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	// The last bins must be dominated by client 1 (remote rack).
	s1 := fig.Series[0]
	if s1.Y[len(s1.Y)-1] < 0.5 {
		t.Errorf("client 1 share of highest bin = %g, want dominant", s1.Y[len(s1.Y)-1])
	}
	// Table rows name client 1 as dominant at p99.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "p99" && row[1] == "client 1" {
			found = true
		}
	}
	if !found {
		t.Errorf("table did not attribute the p99 tail to client 1:\n%s", tab)
	}
}

func TestFig3SingleClientBias(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	testlock.CPUBound(t)
	single, multi, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// In the single-client setup, client-side latency at the highest
	// utilization must dwarf the multi-client setup's.
	clientSingle := single.Series[1]
	clientMulti := multi.Series[1]
	lastSingle := clientSingle.Y[len(clientSingle.Y)-1]
	lastMulti := clientMulti.Y[len(clientMulti.Y)-1]
	if lastSingle < 2*lastMulti {
		t.Errorf("single-client bias %g not clearly above multi-client %g", lastSingle, lastMulti)
	}
	// Multi-client client-side latency stays near the constant kernel
	// delay (30µs) across the sweep.
	for i, v := range clientMulti.Y {
		if v > 120e-6 {
			t.Errorf("multi-client client latency at util %g = %g", clientMulti.X[i], v)
		}
	}
}

func TestFig4Hysteresis(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	testlock.CPUBound(t)
	fig, tab, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != Quick().HysteresisRuns {
		t.Fatalf("%d series", len(fig.Series))
	}
	// Converged values differ across runs: the spread row reports > 3%.
	if !strings.Contains(tab.String(), "spread") {
		t.Fatalf("missing spread row:\n%s", tab)
	}
	var converged []float64
	for _, s := range fig.Series {
		converged = append(converged, s.Y[len(s.Y)-1])
	}
	mean := stats.Mean(converged)
	spread := (stats.Max(converged) - stats.Min(converged)) / mean
	if spread < 0.02 {
		t.Errorf("hysteresis spread = %g, expected visible variation", spread)
	}
}

func TestFig5ToolComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	_, tab, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d tool rows", len(tab.Rows))
	}
	// Extract p99 bias per tool (measured - tcpdump) by re-running the
	// underlying tool runs for exact values.
	s := Quick()
	bias := map[string]float64{}
	for _, tool := range []string{"cloudsuite", "mutilate", "treadmill"} {
		measured, wire, err := toolRun(s, tool, rate10pct)
		if err != nil {
			t.Fatal(err)
		}
		p99m, _ := stats.Quantile(measured, 0.99)
		p99w, _ := stats.Quantile(wire, 0.99)
		bias[tool] = p99m - p99w
	}
	// Treadmill's p99 bias must be the smallest and close to the constant
	// kernel offset (~30µs).
	if bias["treadmill"] > 60e-6 {
		t.Errorf("treadmill bias = %g, want ~30µs", bias["treadmill"])
	}
	if bias["cloudsuite"] < 2*bias["treadmill"] {
		t.Errorf("cloudsuite bias %g not clearly above treadmill %g", bias["cloudsuite"], bias["treadmill"])
	}
	if bias["mutilate"] < bias["treadmill"] {
		t.Errorf("mutilate bias %g below treadmill %g", bias["mutilate"], bias["treadmill"])
	}
}

func TestFig6ClosedLoopUnderestimatesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := Quick()
	mMeasured, _, err := toolRun(s, "mutilate", rate80pct)
	if err != nil {
		t.Fatal(err)
	}
	tMeasured, tWire, err := toolRun(s, "treadmill", rate80pct)
	if err != nil {
		t.Fatal(err)
	}
	p99Closed, _ := stats.Quantile(mMeasured, 0.99)
	p99Open, _ := stats.Quantile(tMeasured, 0.99)
	// The paper: closed loop underestimates the open-loop p99 by > 2x.
	if p99Open < 1.5*p99Closed {
		t.Errorf("open-loop p99 %g vs closed-loop %g; expected large underestimation", p99Open, p99Closed)
	}
	// Treadmill still tracks its own ground truth closely at high load.
	p99WireOpen, _ := stats.Quantile(tWire, 0.99)
	if gap := p99Open - p99WireOpen; gap > 80e-6 {
		t.Errorf("treadmill-vs-tcpdump p99 gap %g too large at high load", gap)
	}

	// And the figure itself materializes.
	if _, tab, err := Fig6(s); err != nil || len(tab.Rows) != 2 {
		t.Fatalf("Fig6: %v", err)
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 5 || !strings.Contains(t1.String(), "Treadmill") {
		t.Errorf("table 1:\n%s", t1)
	}
	// Treadmill column is all "yes".
	for _, row := range t1.Rows {
		if row[5] != "yes" {
			t.Errorf("treadmill should satisfy %q", row[0])
		}
	}
	t2 := Table2()
	if !strings.Contains(t2.String(), "E5-2660") {
		t.Errorf("table 2:\n%s", t2)
	}
	t3 := Table3()
	if len(t3.Rows) != 4 || !strings.Contains(t3.String(), "interleave") {
		t.Errorf("table 3:\n%s", t3)
	}
}

func TestAttributionPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full attribution campaign")
	}
	testlock.CPUBound(t)
	s := Quick()
	a, err := RunAttribution(context.Background(), s, "memcached")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Low.Samples) != 32 || len(a.High.Samples) != 32 {
		t.Fatalf("sample counts %d/%d", len(a.Low.Samples), len(a.High.Samples))
	}

	t4 := Table4(a)
	if len(t4.Rows) != 16 {
		t.Errorf("Table IV has %d rows, want 16", len(t4.Rows))
	}
	if !strings.Contains(t4.String(), "numa:turbo:dvfs:nic") {
		t.Errorf("missing 4-way interaction row:\n%s", t4)
	}

	f7, err := Fig7(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 16 {
		t.Errorf("Fig 7 has %d config rows", len(f7.Rows))
	}

	f8, err := Fig8(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 4 {
		t.Errorf("Fig 8 has %d factor rows", len(f8.Rows))
	}

	f11 := Fig11(a)
	if len(f11.Rows) != 2 {
		t.Errorf("Fig 11 rows: %d", len(f11.Rows))
	}
	// High-load fits should explain a solid share of the variance even at
	// quick scale.
	for _, tau := range []float64{0.5, 0.95} {
		if r2 := a.FitsHigh[tau].PseudoR2; r2 < 0.3 {
			t.Errorf("pseudo-R2 at tau=%g = %g, too low", tau, r2)
		}
	}

	f12, outcome, err := Fig12(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.BeforeP99) != s.TuningRuns {
		t.Errorf("%d tuning runs", len(outcome.BeforeP99))
	}
	// The tuned configuration must beat random configurations on average.
	if stats.Mean(outcome.AfterP99) >= stats.Mean(outcome.BeforeP99) {
		t.Errorf("tuning did not improve p99: before %g after %g",
			stats.Mean(outcome.BeforeP99), stats.Mean(outcome.AfterP99))
	}
	if !strings.Contains(f12.String(), "p99") {
		t.Errorf("Fig 12 table:\n%s", f12)
	}
}

func TestRunAttributionUnknownWorkload(t *testing.T) {
	if _, err := RunAttribution(context.Background(), Quick(), "nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestFindingsAllHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	testlock.CPUBound(t)
	fs, err := Findings(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 {
		t.Fatalf("%d findings", len(fs))
	}
	for _, f := range fs {
		if !f.Holds {
			t.Errorf("%s does not hold: %v", f.ID, f.Metrics)
		}
	}
	tab := FindingsTable(fs)
	if len(tab.Rows) != 5 || !strings.Contains(tab.String(), "PASS") {
		t.Errorf("findings table:\n%s", tab)
	}
}
