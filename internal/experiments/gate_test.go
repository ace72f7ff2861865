package experiments

import (
	"context"
	"testing"

	"treadmill/internal/gate"
)

// gateTestScale shrinks the gate scenario so the full capture → gate →
// injected-regression pipeline fits in a unit test; the CLI and CI use the
// real Quick()/Full() scales.
func gateTestScale() Scale {
	return Scale{Name: "gate-test", Duration: 0.02, Warmup: 0.005, Seed: 1}
}

// TestFindingGateRegressionOracle is the release-gate headline check and
// the guard behind EXPERIMENTS.md's gate entry: a no-change re-run of the
// gate scenario ships, and a 25% service-demand inflation — small at the
// demand level, but amplified by queueing at the scenario's 70%-utilization
// operating point — blocks on every cell × quantile.
func TestFindingGateRegressionOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := GateScenario(gateTestScale())
	sc.Tolerance = 0.05 // short runs are noisier; keep the stopping rule reachable

	base, err := gate.Capture(context.Background(), sc, gate.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cells) != 4 {
		t.Fatalf("turbo × numa should give 4 cells, got %d", len(base.Cells))
	}

	// No-change arm: an unperturbed re-run at the baseline's replicate
	// count (the gate target's candidate flow) must ship.
	cand, err := gate.CaptureReplicates(context.Background(), sc, base.Cells[0].Runs, gate.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := gate.Compare(base, cand, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass || v.Decision() != "SHIP" {
		t.Fatalf("no-change gate blocked: %+v", v)
	}

	// Regression arm: inflate per-request service demand 1.25×.
	slow, err := gate.CaptureReplicates(context.Background(), sc, base.Cells[0].Runs, gate.CaptureOptions{Inflate: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := gate.Compare(base, slow, gate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Pass || bad.Decision() != "BLOCK" {
		t.Fatalf("injected regression shipped: %+v", bad)
	}
	if bad.Regressions != len(bad.Cells) {
		t.Errorf("only %d of %d comparisons regressed", bad.Regressions, len(bad.Cells))
	}
	// Queueing amplification: the worst adverse delta must dwarf the 25%
	// demand-level injection.
	worst := bad.Cells[0]
	for _, c := range bad.Cells {
		if c.RelDelta > worst.RelDelta {
			worst = c
		}
	}
	if worst.RelDelta < 1.0 {
		t.Errorf("worst relative delta %+.1f%% — expected queueing to amplify the 25%% injection past +100%%",
			worst.RelDelta*100)
	}
}

// TestGateScenarioFingerprintStability pins the Quick-scale scenario
// fingerprint: a committed baseline goes stale only when someone
// deliberately changes the gated scenario (and this test with it).
func TestGateScenarioFingerprintStability(t *testing.T) {
	if got := GateScenario(Quick()).Fingerprint(); got != "0ba5115116df67f0" {
		t.Errorf("GateScenario(Quick()) fingerprint drifted to %s — committed baselines are now stale; recapture them and update this test",
			got)
	}
}
