package experiments

import (
	"bytes"
	"context"
	"testing"

	"treadmill/internal/flightrec"
	"treadmill/internal/testlock"
)

// TestRunTimelineSmoke records a quick-scale campaign flight timeline end
// to end: loopback fleet bring-up, flight capture on every agent, the
// coordinator's clock-corrected fold, summary/contrast derivation, and a
// validating Chrome trace export. Absolute latencies are wall-clock
// noise, so only the artifact's structure is asserted.
func TestRunTimelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	testlock.CPUBound(t)
	scale := Quick()
	tl, err := RunTimeline(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Agents != timelineAgents || tl.Cells < 1 {
		t.Fatalf("timeline shape: %d agents, %d cells", tl.Agents, tl.Cells)
	}
	// Every (cell, agent) pair gets a summary row with sampled requests.
	if want := tl.Agents * tl.Cells; len(tl.Rows) != want {
		t.Fatalf("%d summary rows, want %d", len(tl.Rows), want)
	}
	for _, r := range tl.Rows {
		if r.Requests == 0 {
			t.Errorf("row %s/%s sampled no requests", r.Cell, r.Agent)
		}
		if r.EndNs <= r.StartNs {
			t.Errorf("row %s/%s has an empty run envelope", r.Cell, r.Agent)
		}
	}
	// The online-P99 trigger over thousands of requests per cell makes
	// forensic bundles effectively certain.
	if tl.Forensics == 0 {
		t.Error("no forensic bundles triggered")
	}
	if tl.BodyDominant == "" || tl.TailDominant == "" {
		t.Errorf("missing dominant phases: body=%q tail=%q", tl.BodyDominant, tl.TailDominant)
	}
	// The export the CLI writes must validate.
	var trace bytes.Buffer
	if err := flightrec.WriteChromeTrace(&trace, tl.Spans, tl.Marks); err != nil {
		t.Fatal(err)
	}
	if err := flightrec.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Fatalf("timeline trace does not validate: %v", err)
	}
	// Both rendered tables are non-empty.
	if len(TimelineTable(tl).Rows) == 0 || len(TimelineContrastTable(tl).Rows) == 0 {
		t.Error("empty rendered tables")
	}
}
