package experiments

import (
	"context"
	"fmt"
	"time"

	"treadmill/internal/fleet"
	"treadmill/internal/flightrec"
	"treadmill/internal/report"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
)

// timelineAgents is the fleet size the timeline target records; four
// agents give distinct process tracks in the exported trace without
// oversubscribing small CI runners.
const timelineAgents = 4

// Timeline is one recorded loopback-fleet campaign: the flight recorder's
// span timeline plus the derived per-(cell, agent) summary and the
// body-vs-tail-bundle phase contrast.
type Timeline struct {
	Campaign string
	Agents   int
	Cells    int
	// Spans/Marks are the recorder's clock-corrected timeline, ready for
	// flightrec.WriteChromeTrace.
	Spans []telemetry.SpanRecord
	Marks []flightrec.Mark
	// Rows is the per-(cell, agent) summary.
	Rows []flightrec.SummaryRow
	// Forensics counts tail-trigger bundles across the campaign.
	Forensics int
	// BodyShare/TailShare map anatomy phase name → share of summed
	// latency, over non-offender sampled requests (body) and forensic
	// offender requests (tail bundles) respectively.
	BodyShare map[string]float64
	TailShare map[string]float64
	// BodyDominant/TailDominant are the respective argmax phases.
	BodyDominant string
	TailDominant string
}

// timelineParams sizes the recording per scale (wall-clock, like the
// other live targets).
func timelineParams(scale Scale) (rate float64, dur time.Duration, cells int) {
	if scale.Name == "full" {
		return 12000, 2 * time.Second, 3
	}
	return 6000, time.Second, 2
}

// RunTimeline records a campaign flight timeline over a live loopback
// fleet: four agents drive real sockets against an in-process memcached
// server with flight capture enabled (sampled request spans with anatomy
// sub-spans, always-on forensic ring, online-P99 tail trigger), and the
// coordinator folds every agent's clock-corrected flight into one
// recorder. The returned timeline is what `tailbench timeline` renders
// and exports as Chrome trace-event JSON.
//
// Like fleetbias/liveanatomy this is a wall-clock target: absolute
// numbers vary machine to machine; the reproducible content is the
// artifact's structure (spans nest, phases tile, forensics fire on the
// cell's own tail).
func RunTimeline(ctx context.Context, scale Scale) (*Timeline, error) {
	rate, dur, cells := timelineParams(scale)

	srv, wl, err := startPreloadedKV(scale.Seed)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// One runtime probe serves every loopback agent: they share the
	// process, so its GC/sched windows are the right evidence for all of
	// them.
	probe := rtprobe.NewSampler(rtprobe.Config{Registry: scale.Telemetry})
	probe.Start()
	defer probe.Stop()

	campaign := "timeline-" + scale.Name
	rec := flightrec.NewRecorder(campaign, time.Now().UnixNano(), scale.Journal)

	runners := make([]fleet.CellRunner, timelineAgents)
	for i := range runners {
		runners[i] = &fleet.TCPLoadRunner{Probe: probe, ServerTiming: true}
	}
	lb, err := fleet.NewLoopback(fleet.Config{
		Journal: scale.Journal,
		Flight:  rec,
		FlightSpec: &flightrec.CaptureSpec{
			SampleEvery: 4,
			Quantile:    0.99,
			MinCount:    200,
		},
	}, runners)
	if err != nil {
		return nil, err
	}
	defer lb.Close()

	for c := 0; c < cells; c++ {
		spec := loopbackLoadSpec(srv.Addr(), wl, rate, 2, dur, scale.Seed+uint64(c))
		cell, err := spec.Cell(fmt.Sprintf("timeline-cell-%d", c))
		if err != nil {
			return nil, err
		}
		res, err := lb.Coord.RunBroadcast(ctx, cell)
		if err != nil {
			return nil, err
		}
		for i, d := range res.Done {
			if d.Error != "" {
				return nil, fmt.Errorf("timeline: agent %s cell %s failed: %s", res.Agents[i], cell.ID, d.Error)
			}
		}
	}
	rec.Close(time.Now().UnixNano())

	tl := &Timeline{
		Campaign: campaign,
		Agents:   timelineAgents,
		Cells:    cells,
		Spans:    rec.Spans(),
		Marks:    rec.Marks(),
	}
	tl.Rows = flightrec.Summarize(tl.Spans, tl.Marks)
	tl.Forensics = len(tl.Marks)
	tl.contrast()
	return tl, nil
}

// contrast splits sampled request spans into forensic offenders (spans a
// tail-trigger mark points at) and body, and computes each side's
// per-phase share of summed latency.
func (tl *Timeline) contrast() {
	offender := make(map[uint64]bool, len(tl.Marks))
	for _, m := range tl.Marks {
		if m.Span != 0 {
			offender[m.Span] = true
		}
	}
	bodySum, tailSum := map[string]float64{}, map[string]float64{}
	var bodyTotal, tailTotal float64
	for _, s := range tl.Spans {
		if s.Kind != flightrec.KindRequest {
			continue
		}
		sum, total := bodySum, &bodyTotal
		if offender[s.ID] {
			sum, total = tailSum, &tailTotal
		}
		for i, name := range s.Phases {
			sum[name] += s.PhaseSecs[i]
		}
		*total += s.Sec
	}
	share := func(sum map[string]float64, total float64) (map[string]float64, string) {
		out := make(map[string]float64, len(sum))
		best, bestSec := "", 0.0
		for name, sec := range sum {
			if total > 0 {
				out[name] = sec / total
			}
			if sec > bestSec || (sec == bestSec && name < best) {
				best, bestSec = name, sec
			}
		}
		return out, best
	}
	tl.BodyShare, tl.BodyDominant = share(bodySum, bodyTotal)
	tl.TailShare, tl.TailDominant = share(tailSum, tailTotal)
}

// TimelineTable renders the per-(cell, agent) summary.
func TimelineTable(tl *Timeline) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Campaign flight timeline %q (%d loopback agents, %d cells, real sockets)",
			tl.Campaign, tl.Agents, tl.Cells),
		Headers: []string{"cell", "agent", "run ms", "sampled", "mean", "max", "dominant", "forensics"},
	}
	for _, r := range tl.Rows {
		dom := r.Dominant
		if dom == "" {
			dom = "-"
		}
		t.AddRow(r.Cell, r.Agent,
			fmt.Sprintf("%.1f", float64(r.EndNs-r.StartNs)/1e6),
			fmt.Sprintf("%d", r.Requests),
			fmtDur(r.MeanSec), fmtDur(r.MaxSec),
			dom, fmt.Sprintf("%d", r.Forensics))
	}
	return t
}

// TimelineContrastTable renders the body-vs-tail-bundle phase shares: for
// every phase that contributes at least 1% to either side, its share of
// summed latency over body requests vs forensic offenders. This is the
// timeline's attribution finding — which mechanism the triggered tails
// spend their extra time in.
func TimelineContrastTable(tl *Timeline) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Phase share of latency: body vs %d triggered tail bundles (dominant: %s -> %s)",
			tl.Forensics, orDash(tl.BodyDominant), orDash(tl.TailDominant)),
		Headers: []string{"phase", "body share", "tail-bundle share"},
	}
	names := map[string]bool{}
	for n := range tl.BodyShare {
		names[n] = true
	}
	for n := range tl.TailShare {
		names[n] = true
	}
	type row struct {
		name       string
		body, tail float64
	}
	var rows []row
	for n := range names {
		r := row{n, tl.BodyShare[n], tl.TailShare[n]}
		if r.body >= 0.01 || r.tail >= 0.01 {
			rows = append(rows, r)
		}
	}
	// Largest tail share first: the finding reads top-down.
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].tail > rows[i].tail || (rows[j].tail == rows[i].tail && rows[j].name < rows[i].name) {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	for _, r := range rows {
		t.AddRow(r.name, report.Percent(r.body), report.Percent(r.tail))
	}
	return t
}

// orDash renders empty strings as "-" for table titles.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
