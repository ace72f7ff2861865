package experiments

import (
	"context"
	"testing"

	"treadmill/internal/testlock"
)

// TestRunFleetBiasSmoke exercises the live experiment end to end: server
// bring-up, preload, two loopback fleets, broadcast, merge, table render.
// The inflation magnitude is wall-clock-dependent, so only structural
// properties are asserted.
func TestRunFleetBiasSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	testlock.CPUBound(t)
	scale := Quick()
	b, err := RunFleetBias(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	for name, arm := range map[string]FleetBiasArm{"single": b.Single, "fleet": b.Fleet} {
		if arm.P50 <= 0 || arm.P99 < arm.P50 {
			t.Errorf("%s arm: implausible quantiles p50=%g p99=%g", name, arm.P50, arm.P99)
		}
		if arm.Achieved <= 0 {
			t.Errorf("%s arm: no achieved load", name)
		}
	}
	if b.Single.Agents != 1 || b.Fleet.Agents != 8 {
		t.Errorf("arm sizes %d/%d, want 1/8", b.Single.Agents, b.Fleet.Agents)
	}
	tab := FleetBiasTable(b)
	if len(tab.Rows) < 2 {
		t.Fatalf("table has %d rows", len(tab.Rows))
	}
}
