package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/fleet/wire"
	"treadmill/internal/flightrec"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/rtprobe"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// TCPLoadKind tags fleet cells that carry one shard of a real-TCP
// open-loop load run.
const TCPLoadKind = "tcp-load"

// TCPLoadSpec is the wire description of one fleet-wide load run. The
// coordinator broadcasts it to every live agent; agent i of N runs
// TotalRate/N with its own connections and seed, records RTTs into a
// histogram with the agreed bounds, and ships the snapshot back. Carrying
// the bounds in the spec is what makes the shards' histograms share
// geometry and merge exactly.
type TCPLoadSpec struct {
	// Addr is the system-under-test address every agent loads.
	Addr string `json:"addr"`
	// TotalRate is the aggregate request rate across the whole fleet;
	// each shard runs its 1/N slice (the paper's many-low-rate-clients
	// prescription against client-side queueing bias).
	TotalRate float64 `json:"total_rate"`
	// Conns is the connection count per agent.
	Conns int `json:"conns"`
	// DurationNs is the load duration per run.
	DurationNs int64 `json:"duration_ns"`
	// Seed drives each shard's generator streams (derived per shard so
	// agents never correlate).
	Seed uint64 `json:"seed"`
	// Workload is the request mix every agent generates.
	Workload workload.Config `json:"workload"`
	// HistLo/HistHi/HistBins fix the latency histogram geometry (seconds)
	// for every shard.
	HistLo   float64 `json:"hist_lo"`
	HistHi   float64 `json:"hist_hi"`
	HistBins int     `json:"hist_bins"`
	// SnapPeriodNs, when positive, streams mid-run histogram snapshots to
	// the coordinator at this cadence (best-effort telemetry).
	SnapPeriodNs int64 `json:"snap_period_ns,omitempty"`
	// SendShards, when nonzero, routes each agent's open loop through the
	// sharded load plane (internal/loadplane): > 0 selects that many send
	// shards per agent, < 0 selects the agent's GOMAXPROCS. Flight capture
	// and the runner's Tracer observe the plane's requests as they do the
	// classic client's.
	SendShards int `json:"send_shards,omitempty"`
}

func (s TCPLoadSpec) validate() error {
	if s.Addr == "" {
		return fmt.Errorf("fleet: tcp-load spec needs an address")
	}
	if s.TotalRate <= 0 {
		return fmt.Errorf("fleet: tcp-load spec needs a positive total rate, got %g", s.TotalRate)
	}
	if s.Conns < 1 {
		return fmt.Errorf("fleet: tcp-load spec needs >= 1 connection per agent, got %d", s.Conns)
	}
	if s.DurationNs <= 0 {
		return fmt.Errorf("fleet: tcp-load spec needs a positive duration")
	}
	if !(s.HistLo > 0) || s.HistHi <= s.HistLo || s.HistBins < 2 {
		return fmt.Errorf("fleet: tcp-load spec has invalid histogram geometry [%g, %g) x %d", s.HistLo, s.HistHi, s.HistBins)
	}
	return nil
}

// Cell wraps the spec into a barrier-mode fleet cell with the given ID.
func (s TCPLoadSpec) Cell(id string) (wire.Cell, error) {
	if err := s.validate(); err != nil {
		return wire.Cell{}, err
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return wire.Cell{}, err
	}
	return wire.Cell{ID: id, Kind: TCPLoadKind, Barrier: true, Payload: raw}, nil
}

// TCPLoadRunner executes tcp-load cells on an agent: it opens the
// connections, drives the precisely-timed open-loop generator at the
// shard's rate slice, records every successful RTT into a fixed-bounds
// histogram, and returns the snapshot. Zero value is usable; the telemetry
// fields are optional.
type TCPLoadRunner struct {
	// Telemetry, when non-nil, receives loadgen and client metrics
	// (including the send-slippage self-audit).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, samples per-request lifecycle traces.
	Tracer *telemetry.Tracer
	// SlippageAlert is the send-slippage alert threshold (<= 0 selects the
	// default).
	SlippageAlert time.Duration
	// Probe, when non-nil, supplies the runtime GC/sched window
	// attribution for flight-recorder forensic bundles (cells dispatched
	// without a Capture spec never touch it).
	Probe *rtprobe.Sampler
	// ServerTiming negotiates per-response server-timing trailers so
	// flight-recorded request spans carry server-derived anatomy phases
	// instead of one opaque wire+server span.
	ServerTiming bool
}

// RunCell implements CellRunner.
func (r *TCPLoadRunner) RunCell(ctx context.Context, cell wire.Cell, progress ProgressFunc) (wire.CellDone, error) {
	if cell.Kind != TCPLoadKind {
		return wire.CellDone{}, fmt.Errorf("fleet: unexpected cell kind %q", cell.Kind)
	}
	var spec TCPLoadSpec
	if err := json.Unmarshal(cell.Payload, &spec); err != nil {
		return wire.CellDone{}, fmt.Errorf("fleet: decode tcp-load cell: %w", err)
	}
	if err := spec.validate(); err != nil {
		return wire.CellDone{}, err
	}
	shards := cell.Shards
	if shards < 1 {
		shards = 1
	}

	hcfg := hist.DefaultConfig()
	hcfg.Bins = spec.HistBins
	h, err := hist.NewWithBounds(hcfg, spec.HistLo, spec.HistHi)
	if err != nil {
		return wire.CellDone{}, err
	}
	var mu sync.Mutex
	var requests uint64

	// Flight recording is dispatch-driven: only cells that carry a
	// Capture spec (a feature-negotiated coordinator with a recorder)
	// pay for the ring buffer and per-request anatomy decomposition.
	var capture *flightrec.Capture
	var onVec func(telemetry.Trace, float64, anatomy.Vec)
	if cell.Capture != nil {
		cspec := *cell.Capture
		// The online-quantile histogram inherits the load spec's agreed
		// geometry unless the capture policy chose its own.
		if cspec.HistLo == 0 && cspec.HistHi == 0 {
			cspec.HistLo, cspec.HistHi = spec.HistLo, spec.HistHi
		}
		capture = flightrec.NewCapture(cspec, r.Probe)
		onVec = capture.Observe
	}

	// Per-shard seed derivation mirrors core.TCPRunner's per-instance
	// scheme, so a shard is seeded like the instance it replaces.
	gen, err := loadgen.NewOpenLoop(spec.Addr, loadgen.Options{
		Shards:        spec.SendShards,
		Rate:          spec.TotalRate / float64(shards),
		Conns:         spec.Conns,
		Workload:      spec.Workload,
		Seed:          spec.Seed*1000003 + uint64(cell.Shard),
		Telemetry:     r.Telemetry,
		Tracer:        r.Tracer,
		SlippageAlert: r.SlippageAlert,
		ServerTiming:  r.ServerTiming,
		OnVec:         onVec,
		OnResult: func(res *client.Result) {
			if res.Err != nil {
				return
			}
			mu.Lock()
			_ = h.Record(res.RTT().Seconds())
			requests++
			mu.Unlock()
		},
	})
	if err != nil {
		return wire.CellDone{}, err
	}
	defer gen.Close()

	// Mid-run snapshot streaming: best-effort telemetry for the
	// coordinator's live view, never required for correctness.
	var snapWG sync.WaitGroup
	snapStop := make(chan struct{})
	if spec.SnapPeriodNs > 0 && progress != nil {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			t := time.NewTicker(time.Duration(spec.SnapPeriodNs))
			defer t.Stop()
			for {
				select {
				case <-snapStop:
					return
				case <-t.C:
					mu.Lock()
					snap, serr := h.Snapshot()
					n := requests
					mu.Unlock()
					if serr == nil {
						progress(snap, n)
					}
				}
			}
		}()
	}

	runStartNs := time.Now().UnixNano()
	stats, err := gen.Run(ctx, time.Duration(spec.DurationNs))
	runEndNs := time.Now().UnixNano()
	close(snapStop)
	snapWG.Wait()
	if err != nil {
		return wire.CellDone{}, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return wire.CellDone{}, cerr
	}

	mu.Lock()
	snap, err := h.Snapshot()
	mu.Unlock()
	if err != nil {
		return wire.CellDone{}, err
	}
	return wire.CellDone{
		Hists:    []*hist.Snapshot{snap},
		Requests: stats.Completed,
		Flight:   capture.Finish(runStartNs, runEndNs),
	}, nil
}

// BroadcastLoadRunner adapts a fleet to the measurement engine's
// SnapshotRunner seam (core.MeasureSnapshots): every repeated run becomes
// one barrier-mode broadcast — all live agents prepare, start
// synchronously on their offset-corrected clocks, load the target at
// TotalRate in aggregate, and ship their histogram shards back. The
// per-shard snapshots are returned as the run's per-instance
// distributions, so the engine extracts each agent's quantiles
// individually and combines them, exactly as it does for in-process
// instances.
type BroadcastLoadRunner struct {
	Co *Coordinator
	// Spec is the load description; Seed is overwritten with the engine's
	// per-run seed.
	Spec TCPLoadSpec
}

// RunOnceSnapshots implements core.SnapshotRunner.
func (r *BroadcastLoadRunner) RunOnceSnapshots(ctx context.Context, run int, seed uint64) ([]*hist.Snapshot, error) {
	spec := r.Spec
	spec.Seed = seed
	cell, err := spec.Cell(fmt.Sprintf("tcp-run-%d", run))
	if err != nil {
		return nil, err
	}
	res, err := r.Co.RunBroadcast(ctx, cell)
	if err != nil {
		return nil, err
	}
	lost := make(map[string]bool, len(res.Lost))
	for _, name := range res.Lost {
		lost[name] = true
	}
	var snaps []*hist.Snapshot
	for i, d := range res.Done {
		if d.Error != "" {
			// A lost shard under the degrade policy is already journaled;
			// the run proceeds over the survivors. Any other shard error is
			// a real load failure and poisons the run.
			if lost[res.Agents[i]] {
				continue
			}
			return nil, fmt.Errorf("fleet: agent %q shard failed: %s", res.Agents[i], d.Error)
		}
		snaps = append(snaps, d.Hists...)
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("fleet: no shard produced a histogram")
	}
	return snaps, nil
}
