package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"treadmill/internal/faultnet"
	"treadmill/internal/fleet"
	"treadmill/internal/telemetry"
	"treadmill/internal/testlock"
)

// TestChaosDegradeInvariants runs a full chaos campaign under the
// degrade policy: the campaign must complete with every cell committed
// exactly once and the accounting exact, no matter what the fault
// schedule did to the links. RunChaos itself enforces the invariants,
// so a nil error is the assertion.
func TestChaosDegradeInvariants(t *testing.T) {
	r, err := RunChaos(context.Background(), ChaosConfig{
		Seed:     501,
		Duration: 700 * time.Millisecond,
		Loss:     fleet.LossDegrade,
	})
	if err != nil {
		t.Fatalf("invariants violated: %v (result %+v)", err, r)
	}
	if r.Aborted {
		t.Fatal("degrade campaign reported an abort")
	}
	if r.Commits != r.Cells {
		t.Fatalf("commits = %d, want %d", r.Commits, r.Cells)
	}
	if r.Schedule == "" || r.FaultEvents == 0 {
		t.Fatalf("no fault schedule ran: events=%d schedule=%q", r.FaultEvents, r.Schedule)
	}
	// The journaled schedule must replay: parse it back and check it is
	// the seed's schedule.
	sched, err := faultnet.ParseSchedule([]byte(r.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Seed != r.Seed || len(sched.Events) == 0 {
		t.Fatalf("journaled schedule seed=%d events=%d", sched.Seed, len(sched.Events))
	}
}

// TestChaosAbortArm runs the abort policy under the same machinery: the
// campaign either completes cleanly (the schedule never severed a live
// link) or aborts with the journaled abort-policy loss RunChaos
// demands. Either way no cell may commit twice.
func TestChaosAbortArm(t *testing.T) {
	r, err := RunChaos(context.Background(), ChaosConfig{
		Seed:     502,
		Duration: 700 * time.Millisecond,
		Loss:     fleet.LossAbort,
	})
	if err != nil {
		t.Fatalf("invariants violated: %v (result %+v)", err, r)
	}
	if !r.Aborted && r.Commits != r.Cells {
		t.Fatalf("clean completion with %d/%d commits", r.Commits, r.Cells)
	}
	if r.Aborted && r.Losses == 0 {
		t.Fatal("aborted with no journaled loss")
	}
}

// TestChaosSuiteRuns exercises the multi-seed suite the CLI targets
// call, at a small duration, and checks the external journal receives
// the schedule and verdict records.
func TestChaosSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos suite in -short mode")
	}
	testlock.CPUBound(t)
	results, err := RunChaosSuite(context.Background(), 510, 3, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("suite failed: %v", err)
	}
	if len(results) != 4 { // 3 degrade seeds + 1 abort arm
		t.Fatalf("got %d results, want 4", len(results))
	}
	seeds := map[uint64]bool{}
	for _, r := range results {
		if seeds[r.Seed] {
			t.Fatalf("seed %d ran twice", r.Seed)
		}
		seeds[r.Seed] = true
	}
	if results[3].Policy != fleet.LossAbort.String() {
		t.Fatalf("last arm policy = %q, want abort", results[3].Policy)
	}
	tab := ChaosTable(results)
	if len(tab.Rows) != 4 {
		t.Fatalf("table has %d rows", len(tab.Rows))
	}
}

// TestChaosSeedSweep hammers the degrade arm across a spread of fault
// schedules. Every seed draws a different mix of degrade windows,
// partitions, cuts, and crashes, so the sweep is the guard against
// seed-dependent stalls (e.g. a dispatch frame silently dropped while
// heartbeats keep the link "live" — the livelock the heartbeat
// reconciliation exists to break).
func TestChaosSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	testlock.CPUBound(t)
	for seed := uint64(900); seed < 906; seed++ {
		r, err := RunChaos(context.Background(), ChaosConfig{
			Seed:     seed,
			Duration: 400 * time.Millisecond,
			Loss:     fleet.LossDegrade,
		})
		if err != nil {
			t.Fatalf("seed %d: invariants violated: %v (result %+v)", seed, err, r)
		}
		if r.Commits != r.Cells {
			t.Fatalf("seed %d: commits = %d, want %d", seed, r.Commits, r.Cells)
		}
	}
}

// TestChaosJournalPlumbing checks the optional external journal gets
// the replayable schedule record.
func TestChaosJournalPlumbing(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	if _, err := RunChaos(context.Background(), ChaosConfig{
		Seed:     503,
		Duration: 400 * time.Millisecond,
		Loss:     fleet.LossDegrade,
		Journal:  j,
	}); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sawSchedule, sawVerdict bool
	for _, e := range events {
		if e.Kind != telemetry.EventFleet || e.Fleet == nil {
			continue
		}
		switch e.Fleet.Action {
		case "chaos-schedule":
			sawSchedule = true
			if _, perr := faultnet.ParseSchedule([]byte(e.Fleet.Detail)); perr != nil {
				t.Fatalf("journaled schedule does not parse: %v", perr)
			}
		case "chaos-verdict":
			sawVerdict = true
		}
	}
	if !sawSchedule || !sawVerdict {
		t.Fatalf("journal missing records: schedule=%v verdict=%v", sawSchedule, sawVerdict)
	}
}
