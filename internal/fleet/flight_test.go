package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"treadmill/internal/faultnet"
	"treadmill/internal/fleet/wire"
	"treadmill/internal/flightrec"
	"treadmill/internal/loadgen"
	"treadmill/internal/telemetry"
)

// TestFlightCellFeatureNegotiation: the coordinator only decorates
// dispatches with a capture policy for agents whose Hello advertised the
// flightrec feature, and never when no campaign recorder is configured.
// Pre-feature agents keep receiving byte-identical cells.
func TestFlightCellFeatureNegotiation(t *testing.T) {
	rec := flightrec.NewRecorder("nego", time.Now().UnixNano(), nil)
	co := NewCoordinator(Config{Flight: rec})
	cell := wire.Cell{ID: "c0", Kind: "test"}

	legacy := &agentLink{name: "old"}
	if got := co.flightCell(cell, legacy); got.Capture != nil || got.Campaign != "" {
		t.Fatalf("legacy agent got a decorated cell: %+v", got)
	}
	modern := &agentLink{name: "new", features: []string{wire.FeatureFlightRec}}
	got := co.flightCell(cell, modern)
	if got.Capture == nil || got.Campaign != "nego" {
		t.Fatalf("feature-advertising agent missing capture policy: %+v", got)
	}
	// A custom spec travels verbatim.
	co.cfg.FlightSpec = &flightrec.CaptureSpec{SampleEvery: 1, Quantile: 0.99}
	if got := co.flightCell(cell, modern); got.Capture.Quantile != 0.99 {
		t.Fatalf("custom capture spec not forwarded: %+v", got.Capture)
	}
	// No recorder configured: nobody gets decorated, capable or not.
	off := NewCoordinator(Config{})
	if got := off.flightCell(cell, modern); got.Capture != nil || got.Campaign != "" {
		t.Fatalf("recorder-less coordinator decorated a cell: %+v", got)
	}
}

// TestFleetFlightEndToEnd drives the full flight-recorder path over real
// sockets: a loopback fleet loads an in-process server with capture
// enabled, and the coordinator folds the clock-corrected per-agent
// flights into one campaign timeline. Asserts the acceptance invariants:
// agent-run spans sit inside the coordinator's dispatch->done envelope,
// request anatomy sub-spans tile their parents within 1 ulp, the Chrome
// trace export validates, and span/forensic events reach the journal.
func TestFleetFlightEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	srv := startTestServer(t)
	wl := tinyWorkload()
	if err := loadgen.Preload(srv.Addr(), wl, 1); err != nil {
		t.Fatal(err)
	}

	var jbuf bytes.Buffer
	journal := telemetry.NewJournal(&jbuf)
	rec := flightrec.NewRecorder("e2e-flight", time.Now().UnixNano(), journal)

	const agents = 4
	runners := make([]CellRunner, agents)
	for i := range runners {
		runners[i] = &TCPLoadRunner{ServerTiming: true}
	}
	lb, err := NewLoopback(Config{
		Flight: rec,
		FlightSpec: &flightrec.CaptureSpec{
			SampleEvery: 1, MaxSpans: 256, Ring: 8,
			Quantile: 0.9, MinCount: 50, MaxBundles: 2,
			CPUProfileMs: -1, // keep the test cheap and 1-core friendly
		},
	}, runners)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	spec := TCPLoadSpec{
		Addr:       srv.Addr(),
		TotalRate:  3000,
		Conns:      2,
		DurationNs: (500 * time.Millisecond).Nanoseconds(),
		Workload:   wl,
		HistLo:     1e-6, HistHi: 10, HistBins: 64,
	}
	cell, err := spec.Cell("flight-cell-0")
	if err != nil {
		t.Fatal(err)
	}
	dispatchLo := time.Now().UnixNano()
	res, err := lb.Coord.RunBroadcast(context.Background(), cell)
	doneHi := time.Now().UnixNano()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Done {
		if d.Error != "" {
			t.Fatalf("agent %s shard failed: %s", res.Agents[i], d.Error)
		}
		if d.Flight == nil {
			t.Fatalf("agent %s returned no flight payload", res.Agents[i])
		}
	}
	rec.Close(time.Now().UnixNano())

	spans, marks := rec.Spans(), rec.Marks()
	var cellSpan telemetry.SpanRecord
	byKind := map[string][]telemetry.SpanRecord{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
		if s.Kind == flightrec.KindCell {
			cellSpan = s
		}
	}
	if len(byKind[flightrec.KindCell]) != 1 {
		t.Fatalf("%d cell spans, want 1", len(byKind[flightrec.KindCell]))
	}
	if got := len(byKind[flightrec.KindAgentRun]); got != agents {
		t.Fatalf("%d agent-run spans, want %d", got, agents)
	}
	if len(byKind[flightrec.KindRequest]) == 0 {
		t.Fatal("no request spans sampled")
	}

	// Acceptance: clock-corrected agent-run spans inside the coordinator's
	// dispatch->done envelope. The offset estimate's error is bounded by
	// RTT/2 per end; allow the full estimated RTT as slack.
	maxRTT := time.Duration(0)
	for _, info := range lb.Coord.Agents() {
		if info.RTT > maxRTT {
			maxRTT = info.RTT
		}
	}
	slack := maxRTT.Nanoseconds() + int64(time.Millisecond)
	if cellSpan.StartNs < dispatchLo || cellSpan.EndNs > doneHi {
		t.Fatalf("cell span [%d,%d] outside caller window [%d,%d]",
			cellSpan.StartNs, cellSpan.EndNs, dispatchLo, doneHi)
	}
	for _, s := range byKind[flightrec.KindAgentRun] {
		if s.Parent != cellSpan.ID {
			t.Fatalf("agent-run span %d parented to %d, want cell span %d", s.ID, s.Parent, cellSpan.ID)
		}
		if s.StartNs < cellSpan.StartNs-slack || s.EndNs > cellSpan.EndNs+slack {
			t.Fatalf("agent %s run [%d,%d] outside cell envelope [%d,%d] (slack %dns)",
				s.Agent, s.StartNs, s.EndNs, cellSpan.StartNs, cellSpan.EndNs, slack)
		}
	}

	// Acceptance: anatomy sub-spans tile each request span within 1 ulp
	// after the wire round-trip and clock correction.
	for _, s := range byKind[flightrec.KindRequest] {
		var sum float64
		for _, ps := range s.PhaseSecs {
			sum += ps
		}
		ulp := math.Nextafter(s.Sec, math.Inf(1)) - s.Sec
		if diff := math.Abs(sum - s.Sec); diff > ulp {
			t.Fatalf("request span %d phases sum %.17g != total %.17g (diff %g > 1ulp %g)",
				s.ID, sum, s.Sec, diff, ulp)
		}
	}

	// Quantile triggers at p90 after a 50-request warmup over ~1500
	// requests per agent: forensic bundles are effectively guaranteed.
	if len(marks) == 0 {
		t.Fatal("no tail-trigger marks recorded")
	}

	// Acceptance: the exported Chrome trace validates.
	var trace bytes.Buffer
	if err := flightrec.WriteChromeTrace(&trace, spans, marks); err != nil {
		t.Fatal(err)
	}
	if err := flightrec.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Fatalf("trace export does not validate: %v", err)
	}

	// Span and forensic events landed in the telemetry journal.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournal(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var spanEvents, forensicEvents int
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EventSpan:
			spanEvents++
		case telemetry.EventForensic:
			forensicEvents++
		}
	}
	if spanEvents == 0 || forensicEvents == 0 {
		t.Fatalf("journal has %d span / %d forensic events, want both > 0", spanEvents, forensicEvents)
	}

	// The timeline summary covers every agent.
	rows := flightrec.Summarize(spans, marks)
	if len(rows) != agents {
		t.Fatalf("%d summary rows, want %d:\n%s", len(rows), agents, flightrec.RenderSummary(rows))
	}
	for _, row := range rows {
		if row.Requests == 0 {
			t.Fatalf("summary row for %s/%s has no requests", row.Cell, row.Agent)
		}
	}
}

// TestFlightClockSkewEnvelopeProperty: the property the whole timeline
// rests on — an agent whose clock is skewed by δ, reached over a jittery
// link, still reports flight spans that land inside the coordinator's
// dispatch->done envelope once the clock-offset estimate corrects them.
// A puppet agent stamps everything with time.Now()+δ (handshake clock
// pongs included) behind a faultnet link with latency+jitter; the offset
// estimate's error is bounded by the estimated RTT, which is exactly the
// slack the assertion allows.
func TestFlightClockSkewEnvelopeProperty(t *testing.T) {
	skews := []time.Duration{
		-50 * time.Millisecond, -20 * time.Millisecond, -5 * time.Millisecond, -time.Millisecond,
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	}
	for i, skew := range skews {
		skew := skew
		t.Run(fmt.Sprintf("skew=%v", skew), func(t *testing.T) {
			fnet := faultnet.New(uint64(i + 1))
			ln, err := fnet.Listen("coord")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			rec := flightrec.NewRecorder("skew-prop", time.Now().UnixNano(), nil)
			cfg := fastConfig()
			cfg.ClockProbes = 5
			cfg.Flight = rec
			co := NewCoordinator(cfg)
			defer co.Close()
			go func() {
				nc, aerr := ln.Accept()
				if aerr != nil {
					return
				}
				_ = co.Attach(nc)
			}()

			anc, err := fnet.Dial("coord", "lg-skew", faultnet.Faults{
				Latency: 2 * time.Millisecond,
				Jitter:  time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer anc.Close()

			skewedNow := func() int64 { return time.Now().Add(skew).UnixNano() }
			wc := wire.NewConn(anc, 2*time.Second)
			if err := wc.Write(wire.THello, wire.Hello{
				Version: wire.Version, Name: "lg-skew",
				Features: []string{wire.FeatureFlightRec},
			}); err != nil {
				t.Fatal(err)
			}
			f, err := wc.Read()
			if err != nil || f.Type != wire.TWelcome {
				t.Fatalf("handshake: %v %v", f.Type, err)
			}
			var w wire.Welcome
			if err := f.Decode(&w); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < w.ClockProbes; p++ {
				pf, perr := wc.Read()
				if perr != nil || pf.Type != wire.TClockPing {
					t.Fatalf("probe %d: %v %v", p, pf.Type, perr)
				}
				var ping wire.ClockPing
				if err := pf.Decode(&ping); err != nil {
					t.Fatal(err)
				}
				// T2 and T3 come off the agent's (skewed) clock.
				now := skewedNow()
				if err := wc.Write(wire.TClockPong, wire.ClockPong{Seq: ping.Seq, T1: ping.T1, T2: now, T3: now}); err != nil {
					t.Fatal(err)
				}
			}

			// Puppet cell loop: stamp a flight entirely on the skewed clock.
			go func() {
				for {
					cf, rerr := wc.Read()
					if rerr != nil {
						return
					}
					switch cf.Type {
					case wire.THeartbeat:
						wc.Write(wire.THeartbeat, wire.Heartbeat{})
					case wire.TCell:
						var cell wire.Cell
						if cf.Decode(&cell) != nil {
							return
						}
						start := skewedNow()
						time.Sleep(20 * time.Millisecond)
						end := skewedNow()
						flight := &flightrec.CellFlight{
							StartNs: start, EndNs: end, Observed: 1,
							Requests: []flightrec.ReqSpan{{
								Seq: 1, Op: "get",
								StartNs: start + int64(time.Millisecond), EndNs: end - int64(time.Millisecond),
								TotalSec: 1e-3,
							}},
						}
						wc.Write(wire.TCellDone, wire.CellDone{CellID: cell.ID, Requests: 1, Flight: flight})
					}
				}
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := co.WaitAgents(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := co.RunCells(ctx, []wire.Cell{{ID: "skew-cell", Kind: "test"}}); err != nil {
				t.Fatal(err)
			}

			info := co.Agents()[0]
			// The estimate must have found the injected skew (Offset is
			// agent-minus-coordinator, ≈ +δ) to within the link round-trip.
			if est := info.Offset - skew; est < -info.RTT || est > info.RTT {
				t.Fatalf("offset estimate %v missed injected skew %v by more than RTT %v", info.Offset, skew, info.RTT)
			}

			var cellSpan, runSpan telemetry.SpanRecord
			for _, s := range rec.Spans() {
				switch s.Kind {
				case flightrec.KindCell:
					cellSpan = s
				case flightrec.KindAgentRun:
					runSpan = s
				}
			}
			if cellSpan.ID == 0 || runSpan.ID == 0 {
				t.Fatalf("missing spans: cell=%+v run=%+v", cellSpan, runSpan)
			}
			slack := info.RTT.Nanoseconds()
			if runSpan.StartNs < cellSpan.StartNs-slack || runSpan.EndNs > cellSpan.EndNs+slack {
				t.Fatalf("corrected agent run [%d,%d] outside dispatch envelope [%d,%d] (slack %dns, skew %v)",
					runSpan.StartNs, runSpan.EndNs, cellSpan.StartNs, cellSpan.EndNs, slack, skew)
			}
			// Request spans were corrected with the same offset and must sit
			// inside the corrected run span.
			for _, s := range rec.Spans() {
				if s.Kind != flightrec.KindRequest {
					continue
				}
				if s.StartNs < runSpan.StartNs || s.EndNs > runSpan.EndNs {
					t.Fatalf("corrected request [%d,%d] outside its run [%d,%d]",
						s.StartNs, s.EndNs, runSpan.StartNs, runSpan.EndNs)
				}
			}
		})
	}
}
