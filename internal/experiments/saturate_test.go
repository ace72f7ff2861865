package experiments

import (
	"context"
	"testing"
	"time"

	"treadmill/internal/testlock"
)

// TestLeanResponderServesBothClients drives one short sub-saturation step
// through each client implementation against the lean responder: every
// send must complete (the universal miss is a valid GET reply to both the
// classic parser and the plane's frame reader) and the slippage audit
// must stay quiet at a trivial load.
func TestLeanResponderServesBothClients(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	testlock.WallClock(t)
	sut, err := startLeanResponder()
	if err != nil {
		t.Fatal(err)
	}
	defer sut.Close()
	for _, arm := range []struct {
		name   string
		shards int
	}{{"legacy", 0}, {"plane", -1}} {
		stats, alertRate, err := saturateStep(context.Background(), sut.Addr(), arm.shards, 8, 1, 400*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if stats.Sent == 0 {
			t.Fatalf("%s: no sends", arm.name)
		}
		if stats.Completed != stats.Sent {
			t.Errorf("%s: sent %d != completed %d", arm.name, stats.Sent, stats.Completed)
		}
		if stats.Errors != 0 {
			t.Errorf("%s: %d errors against the lean responder", arm.name, stats.Errors)
		}
		if alertRate > saturateAlertTolerance {
			t.Errorf("%s: %.2f%% alerting sends at 8 sessions", arm.name, 100*alertRate)
		}
	}
}

// TestSaturateSessionCap pins the fd-derived ramp bound to the doubling
// grid.
func TestSaturateSessionCap(t *testing.T) {
	cap := saturateSessionCap()
	if cap < saturateStartSessions {
		t.Fatalf("cap %d below the ramp start", cap)
	}
	for n := cap; n > saturateStartSessions; n /= 2 {
		if n%2 != 0 {
			t.Fatalf("cap %d is not on the doubling grid", cap)
		}
	}
}

// TestSaturateTable pins the rendered shape: one row per client plus the
// ratio row, with the onset column distinguishing "hit the cap" from a
// measured onset.
func TestSaturateTable(t *testing.T) {
	tab := SaturateTable(&SaturateBench{
		SessionCap: 8192, Shards: 2,
		Legacy:       SaturateArm{Sessions: 4096, OnsetSessions: 8192, RPS: 41000, AllocsPerRequest: 10.2, BytesPerSession: 81000},
		Plane:        SaturateArm{Sessions: 8192, RPS: 66000, AllocsPerRequest: 0.009, BytesPerSession: 25000},
		SessionRatio: 2,
	})
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Fatalf("row %v has %d cells for %d headers", row, len(row), len(tab.Headers))
		}
	}
	if got := tab.Rows[0][2]; got != "8192" {
		t.Errorf("legacy onset cell = %q, want 8192", got)
	}
	if got := tab.Rows[1][2]; got != "none (cap)" {
		t.Errorf("plane onset cell = %q, want the cap marker", got)
	}
	if got := tab.Rows[2][1]; got != "2.0x" {
		t.Errorf("ratio cell = %q, want 2.0x", got)
	}
}
