package fleet

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/fleet/wire"
	"treadmill/internal/flightrec"
	"treadmill/internal/hist"
	"treadmill/internal/telemetry"
)

// Config configures a Coordinator.
type Config struct {
	// IOTimeout bounds every single frame read/write (0 = DefaultIOTimeout).
	IOTimeout time.Duration
	// HeartbeatInterval is the liveness-beacon cadence
	// (0 = DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// LossTimeout is how long an agent may stay silent before it is
	// declared lost (0 = four heartbeat intervals).
	LossTimeout time.Duration
	// ClockProbes is the number of four-timestamp exchanges per agent at
	// join time (0 = DefaultClockProbes).
	ClockProbes int
	// BarrierDelay is the lead time between releasing a barrier and the
	// synchronized start instant (0 = DefaultBarrierDelay). It must cover
	// one frame's delivery to every agent.
	BarrierDelay time.Duration
	// ReconnectWindow is how long a queue-mode campaign tolerates having
	// zero live agents before failing, giving lost agents time to
	// reconnect and resume the (idempotent) outstanding cells
	// (0 = four loss timeouts).
	ReconnectWindow time.Duration
	// Loss selects the agent-loss policy.
	Loss LossPolicy
	// Journal, when non-nil, receives fleet lifecycle events.
	Journal *telemetry.Journal
	// Metrics, when non-nil, receives fleet gauges and counters.
	Metrics *telemetry.Registry
	// OnSnap, when non-nil, observes every mid-cell snapshot that arrives
	// (after merging is the caller's business; this is raw per-agent flow).
	OnSnap func(agent, cellID string, snap *hist.Snapshot, requests uint64)
	// Flight, when non-nil, is the campaign flight recorder: every cell
	// gets a dispatch→done span, and agents that advertise
	// wire.FeatureFlightRec return clock-corrected request spans and
	// forensic bundles that are folded into the timeline.
	Flight *flightrec.Recorder
	// FlightSpec is the capture policy shipped with each dispatch when
	// Flight is set (nil = flightrec defaults).
	FlightSpec *flightrec.CaptureSpec
}

func (c Config) withDefaults() Config {
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.LossTimeout <= 0 {
		c.LossTimeout = defaultLossTimeout(c.HeartbeatInterval)
	}
	if c.ClockProbes <= 0 {
		c.ClockProbes = DefaultClockProbes
	}
	if c.BarrierDelay <= 0 {
		c.BarrierDelay = DefaultBarrierDelay
	}
	if c.ReconnectWindow <= 0 {
		c.ReconnectWindow = 4 * c.LossTimeout
	}
	return c
}

// AgentInfo is a reporting snapshot of one agent's state.
type AgentInfo struct {
	Name   string
	Index  int
	Offset time.Duration
	RTT    time.Duration
	Lost   bool
}

// Coordinator owns a fleet of agents: it accepts and handshakes
// connections, estimates per-agent clock offsets, monitors liveness, and
// executes campaigns over the live set.
type Coordinator struct {
	cfg Config

	mu     sync.Mutex
	agents []*agentLink
	next   int // monotonically increasing join index

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	ln net.Listener
}

// frameSink receives campaign-relevant frames from an agent's read loop.
type frameSink func(a *agentLink, f wire.Frame)

// agentLink is the coordinator's handle on one connected agent.
type agentLink struct {
	co       *Coordinator
	name     string
	index    int
	conn     *wire.Conn
	clock    ClockEstimate
	features []string

	sink atomic.Pointer[frameSink]

	done chan struct{} // closed when the read loop exits

	mu   sync.Mutex
	lost bool
	err  error
}

// NewCoordinator returns a Coordinator with defaults filled in.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults(), closeCh: make(chan struct{})}
}

// Serve accepts agent connections from ln until the coordinator closes.
// Each accepted connection is handshaken on its own goroutine; handshake
// failures are journaled and dropped, never fatal.
func (c *Coordinator) Serve(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.goTracked(func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			ok := c.goTracked(func() {
				if err := c.Attach(nc); err != nil {
					c.journalFleet(telemetry.FleetRecord{Action: "reject", Detail: err.Error()})
				}
			})
			if !ok {
				nc.Close()
				return
			}
		}
	})
}

// Attach handshakes one agent connection: version check, index
// assignment, and the clock-offset probe burst. On success the agent
// joins the live set and its read/heartbeat loops start. The loopback
// transport calls this directly; Serve calls it per accepted socket.
func (c *Coordinator) Attach(nc net.Conn) error {
	if c.closed.Load() {
		nc.Close()
		return fmt.Errorf("fleet: coordinator closed")
	}
	wc := wire.NewConn(nc, c.cfg.IOTimeout)
	f, err := wc.Read()
	if err != nil {
		wc.Close()
		return fmt.Errorf("fleet: handshake read: %w", err)
	}
	if f.Type != wire.THello {
		wc.Close()
		return fmt.Errorf("fleet: handshake: got %s, want hello", f.Type)
	}
	var hello wire.Hello
	if err := f.Decode(&hello); err != nil {
		wc.Close()
		return err
	}
	if hello.Version != wire.Version {
		_ = wc.Write(wire.TReject, wire.Reject{
			Reason: fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Version, wire.Version),
		})
		wc.Close()
		return fmt.Errorf("fleet: agent %q speaks protocol %d, want %d", hello.Name, hello.Version, wire.Version)
	}
	c.mu.Lock()
	for _, a := range c.agents {
		if a.name == hello.Name && !a.isLost() {
			c.mu.Unlock()
			_ = wc.Write(wire.TReject, wire.Reject{Reason: "duplicate agent name"})
			wc.Close()
			return fmt.Errorf("fleet: duplicate live agent name %q", hello.Name)
		}
	}
	index := c.next
	c.next++
	c.mu.Unlock()

	if err := wc.Write(wire.TWelcome, wire.Welcome{
		Version: wire.Version, Index: index, ClockProbes: c.cfg.ClockProbes,
		Features: []string{wire.FeatureFlightRec},
	}); err != nil {
		wc.Close()
		return err
	}

	samples := make([]ClockSample, 0, c.cfg.ClockProbes)
	for i := 0; i < c.cfg.ClockProbes; i++ {
		t1 := time.Now().UnixNano()
		if err := wc.Write(wire.TClockPing, wire.ClockPing{Seq: i, T1: t1}); err != nil {
			wc.Close()
			return fmt.Errorf("fleet: clock probe %d: %w", i, err)
		}
		pf, err := wc.Read()
		if err != nil {
			wc.Close()
			return fmt.Errorf("fleet: clock probe %d: %w", i, err)
		}
		t4 := time.Now().UnixNano()
		if pf.Type != wire.TClockPong {
			wc.Close()
			return fmt.Errorf("fleet: clock probe %d: got %s, want clock-pong", i, pf.Type)
		}
		var pong wire.ClockPong
		if err := pf.Decode(&pong); err != nil {
			wc.Close()
			return err
		}
		samples = append(samples, ClockSample{T1: pong.T1, T2: pong.T2, T3: pong.T3, T4: t4})
	}
	est, err := EstimateClock(samples)
	if err != nil {
		wc.Close()
		return err
	}

	a := &agentLink{co: c, name: hello.Name, index: index, conn: wc, clock: est, features: hello.Features, done: make(chan struct{})}
	// Registration and wg.Add happen under the same lock Close takes
	// before waiting, so no goroutine can start after teardown begins.
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		wc.Close()
		return fmt.Errorf("fleet: coordinator closed")
	}
	c.agents = append(c.agents, a)
	c.wg.Add(2)
	c.mu.Unlock()

	c.journalFleet(telemetry.FleetRecord{
		Action: "join", Agent: a.name,
		OffsetNs: int64(est.Offset), RTTNs: int64(est.RTT),
	})
	c.cfg.Metrics.Gauge("fleet.agents_live").Add(1)

	go a.readLoop()
	go a.heartbeatLoop()
	return nil
}

// goTracked starts f under the coordinator's WaitGroup unless teardown
// has begun. It synchronizes wg.Add against Close's wg.Wait via c.mu.
func (c *Coordinator) goTracked(f func()) bool {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return false
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		f()
	}()
	return true
}

// readLoop drains frames from the agent. Heartbeats only refresh
// liveness; campaign frames are handed to the installed sink (or dropped
// when no campaign is listening). Loop exit — deadline expiry or broken
// connection — marks the agent lost.
func (a *agentLink) readLoop() {
	defer a.co.wg.Done()
	defer close(a.done)
	for {
		f, err := a.conn.ReadTimeout(a.co.cfg.LossTimeout)
		if err != nil {
			a.markLost(fmt.Errorf("fleet: agent %q read: %w", a.name, err))
			return
		}
		switch f.Type {
		case wire.THeartbeat, wire.TReady, wire.TSnap, wire.TCellDone:
			// Reading any frame is the liveness proof. Heartbeats also reach
			// the campaign (best-effort) so it can reconcile its dispatch
			// ledger against the cell ID the agent reports.
			if p := a.sink.Load(); p != nil {
				(*p)(a, f)
			}
		}
	}
}

// heartbeatLoop writes liveness beacons so the agent's own read deadline
// stays fed while no campaign traffic flows.
func (a *agentLink) heartbeatLoop() {
	defer a.co.wg.Done()
	t := time.NewTicker(a.co.cfg.HeartbeatInterval)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-a.done:
			return
		case <-a.co.closeCh:
			return
		case <-t.C:
			seq++
			if err := a.conn.Write(wire.THeartbeat, wire.Heartbeat{Seq: seq, Now: time.Now().UnixNano()}); err != nil {
				a.markLost(fmt.Errorf("fleet: agent %q heartbeat: %w", a.name, err))
				return
			}
		}
	}
}

// markLost transitions the agent to lost exactly once: records the error,
// journals the event with the configured policy, and closes the
// connection (which unblocks the read loop if it is not the caller).
func (a *agentLink) markLost(err error) {
	a.mu.Lock()
	if a.lost {
		a.mu.Unlock()
		return
	}
	a.lost = true
	a.err = err
	a.mu.Unlock()
	a.conn.Close()
	if !a.co.closed.Load() {
		a.co.journalFleet(telemetry.FleetRecord{
			Action: "lost", Agent: a.name,
			Policy: a.co.cfg.Loss.String(), Detail: err.Error(),
		})
		a.co.cfg.Metrics.Gauge("fleet.agents_live").Add(-1)
		a.co.cfg.Metrics.Counter("fleet.agents_lost").Inc()
	}
}

func (a *agentLink) isLost() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lost
}

func (a *agentLink) lostErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// flightCapable reports whether the agent advertised flight recording.
func (a *agentLink) flightCapable() bool {
	return wire.HasFeature(a.features, wire.FeatureFlightRec)
}

// flightCell decorates a dispatch with the campaign's capture policy —
// only for agents that advertised the feature, so pre-feature agents
// never see (and would anyway ignore) the new fields.
func (c *Coordinator) flightCell(cell wire.Cell, a *agentLink) wire.Cell {
	if c.cfg.Flight == nil || !a.flightCapable() {
		return cell
	}
	spec := c.cfg.FlightSpec
	if spec == nil {
		spec = &flightrec.CaptureSpec{}
	}
	cell.Capture = spec
	cell.Campaign = c.cfg.Flight.Campaign()
	return cell
}

// recordFlight folds one agent's flight payload into the campaign
// timeline under cellSpan: timestamps are mapped from the agent's clock
// onto the coordinator's with the join-time offset estimate, then the
// agent-run, request, and phase spans plus forensic marks are recorded
// (and journaled by the recorder).
func (c *Coordinator) recordFlight(cellSpan uint64, a *agentLink, cellID string, flight *flightrec.CellFlight) {
	if c.cfg.Flight == nil || flight == nil {
		return
	}
	flight.CorrectClock(a.clock.ToCoord)
	c.cfg.Flight.RecordCellFlight(cellSpan, a.name, cellID, flight)
}

// journalFleet emits a fleet event, ignoring journal errors (the journal
// retains its first error internally).
func (c *Coordinator) journalFleet(rec telemetry.FleetRecord) {
	r := rec
	_ = c.cfg.Journal.Emit(telemetry.Event{Kind: telemetry.EventFleet, Fleet: &r})
}

// live returns the live agents in join order.
func (c *Coordinator) live() []*agentLink {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*agentLink
	for _, a := range c.agents {
		if !a.isLost() {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// Agents reports every agent that ever joined, in join order.
func (c *Coordinator) Agents() []AgentInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AgentInfo, 0, len(c.agents))
	for _, a := range c.agents {
		out = append(out, AgentInfo{
			Name: a.name, Index: a.index,
			Offset: a.clock.Offset, RTT: a.clock.RTT, Lost: a.isLost(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// WaitAgents blocks until at least n agents are live or ctx expires.
func (c *Coordinator) WaitAgents(ctx context.Context, n int) error {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if len(c.live()) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d agents (%d live): %w", n, len(c.live()), ctx.Err())
		case <-c.closeCh:
			return fmt.Errorf("fleet: coordinator closed while waiting for agents")
		case <-t.C:
		}
	}
}

// Close drains the fleet: a best-effort Stop to every live agent, then
// connection teardown and a full wait for every coordinator goroutine.
// Safe to call more than once.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		c.wg.Wait()
		return nil
	}
	close(c.closeCh)
	c.mu.Lock()
	ln := c.ln
	agents := append([]*agentLink(nil), c.agents...)
	c.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, a := range agents {
		if !a.isLost() {
			_ = a.conn.Write(wire.TStop, struct{}{})
		}
		a.conn.Close()
	}
	c.wg.Wait()
	return nil
}

// campaignEvent is one occurrence a running campaign reacts to.
type campaignEvent struct {
	a     *agentLink
	frame wire.Frame
	lost  bool
}

// campaign is the shared plumbing for RunCells and RunBroadcast: an event
// channel fed by per-agent sinks and loss watchers, with enrollment
// bookkeeping so agents joining mid-campaign (reconnects) can be put to
// work.
type campaign struct {
	co       *Coordinator
	events   chan campaignEvent
	done     chan struct{}
	enrolled map[*agentLink]bool
}

func (c *Coordinator) newCampaign(buffer int) *campaign {
	return &campaign{
		co:       c,
		events:   make(chan campaignEvent, buffer),
		done:     make(chan struct{}),
		enrolled: make(map[*agentLink]bool),
	}
}

// enroll installs the campaign's sink on an agent and starts its loss
// watcher. Snap frames are delivered best-effort (dropped when the event
// buffer is full — they are progress telemetry, not results); Ready and
// CellDone block until the campaign consumes them or ends.
func (cp *campaign) enroll(a *agentLink) {
	if cp.enrolled[a] {
		return
	}
	cp.enrolled[a] = true
	sink := frameSink(func(a *agentLink, f wire.Frame) {
		ev := campaignEvent{a: a, frame: f}
		if f.Type == wire.TSnap || f.Type == wire.THeartbeat {
			select {
			case cp.events <- ev:
			case <-cp.done:
			default:
			}
			return
		}
		select {
		case cp.events <- ev:
		case <-cp.done:
		}
	})
	a.sink.Store(&sink)
	cp.co.goTracked(func() {
		select {
		case <-a.done:
			select {
			case cp.events <- campaignEvent{a: a, lost: true}:
			case <-cp.done:
			}
		case <-cp.done:
		}
	})
}

// finish tears the campaign down: sinks uninstalled, watchers released.
func (cp *campaign) finish() {
	close(cp.done)
	for a := range cp.enrolled {
		a.sink.Store(nil)
	}
}

// CellResult pairs a committed cell with the fleet context it ran in.
type CellResult struct {
	Done wire.CellDone
	// Agent is the agent whose result was committed.
	Agent string
	// Reassigned counts how many times the cell was re-dispatched after
	// agent losses before committing.
	Reassigned int
}

// RunCells executes a queue-mode campaign: every cell runs on exactly one
// agent, agents pull new cells as they finish, and results commit in the
// order of the input slice regardless of completion order. Cell IDs are
// idempotency keys: after an agent loss the cell is re-dispatched
// (LossDegrade) and a late duplicate result for an already-committed ID
// is dropped. Agent-reported phase boundaries are translated into the
// coordinator's clock before returning.
func (c *Coordinator) RunCells(ctx context.Context, cells []wire.Cell) ([]CellResult, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	byID := make(map[string]int, len(cells))
	for i, cell := range cells {
		if cell.ID == "" {
			return nil, fmt.Errorf("fleet: cell %d has empty ID", i)
		}
		if prev, dup := byID[cell.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate cell ID %q (cells %d and %d)", cell.ID, prev, i)
		}
		byID[cell.ID] = i
	}

	cp := c.newCampaign(2*len(cells) + 16)
	defer cp.finish()

	results := make([]CellResult, len(cells))
	committed := make(map[string]bool, len(cells))
	reassigns := make(map[string]int)
	pending := make([]int, len(cells))
	for i := range cells {
		pending[i] = i
	}
	busy := make(map[*agentLink]int)             // agent -> cell index in flight
	dispatched := make(map[*agentLink]time.Time) // last dispatch or progress evidence
	dispatchNs := make(map[string]int64)         // cell ID -> latest dispatch instant (flight envelope)

	dispatch := func(a *agentLink) {
		for len(pending) > 0 {
			idx := pending[0]
			cell := cells[idx]
			if committed[cell.ID] {
				// A requeued cell whose earlier run's result arrived after
				// all: nothing left to do for it.
				pending = pending[1:]
				continue
			}
			action := "dispatch"
			if reassigns[cell.ID] > 0 {
				action = "reassign"
			}
			if err := a.conn.Write(wire.TCell, c.flightCell(cell, a)); err != nil {
				a.markLost(fmt.Errorf("fleet: dispatch %q to %q: %w", cell.ID, a.name, err))
				return
			}
			pending = pending[1:]
			busy[a] = idx
			dispatched[a] = time.Now()
			dispatchNs[cell.ID] = time.Now().UnixNano()
			c.journalFleet(telemetry.FleetRecord{Action: action, Agent: a.name, Cell: cell.ID})
			c.cfg.Metrics.Counter("fleet.cells_dispatched").Inc()
			return
		}
	}

	// requeue puts an agent's assigned cell back on the pending queue —
	// the dispatch (or its result) was lost in transit, or the agent is
	// provably busy with something else. The cell's idempotent ID makes a
	// duplicate execution harmless: the first commit wins.
	requeue := func(a *agentLink, reason string) {
		idx, ok := busy[a]
		if !ok {
			return
		}
		delete(busy, a)
		delete(dispatched, a)
		if committed[cells[idx].ID] {
			return
		}
		reassigns[cells[idx].ID]++
		pending = append(pending, idx)
		c.journalFleet(telemetry.FleetRecord{Action: "requeue", Agent: a.name, Cell: cells[idx].ID, Detail: reason})
		c.cfg.Metrics.Counter("fleet.cells_requeued").Inc()
	}

	fill := func() {
		for _, a := range c.live() {
			if len(pending) == 0 {
				return
			}
			cp.enroll(a)
			if _, isBusy := busy[a]; !isBusy {
				dispatch(a)
			}
		}
	}

	fill()
	remaining := len(cells)
	lastLive := time.Now()
	rescan := time.NewTicker(20 * time.Millisecond) // picks up reconnecting agents
	defer rescan.Stop()
	for remaining > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closeCh:
			return nil, fmt.Errorf("fleet: coordinator closed mid-campaign")
		case <-rescan.C:
			if len(c.live()) > 0 {
				lastLive = time.Now()
			} else if time.Since(lastLive) > c.cfg.ReconnectWindow {
				return nil, fmt.Errorf("fleet: no live agents for %v with %d cells outstanding", c.cfg.ReconnectWindow, remaining)
			}
			fill()
		case ev := <-cp.events:
			switch {
			case ev.lost:
				idx, wasBusy := ev.a.busyCell(busy)
				delete(busy, ev.a)
				delete(dispatched, ev.a)
				if c.cfg.Loss == LossAbort {
					err := ev.a.lostErr()
					return nil, fmt.Errorf("fleet: agent %q lost (policy abort): %w", ev.a.name, err)
				}
				if wasBusy && !committed[cells[idx].ID] {
					reassigns[cells[idx].ID]++
					pending = append(pending, idx)
					c.journalFleet(telemetry.FleetRecord{Action: "degrade", Agent: ev.a.name, Cell: cells[idx].ID, Policy: c.cfg.Loss.String()})
				}
				fill()
			case ev.frame.Type == wire.THeartbeat:
				// Reconcile the dispatch ledger against the agent's reported
				// state. A transport that can lose whole frames (chaos
				// testing; in production, a proxy or split-brain middlebox)
				// can swallow a dispatch or a result while heartbeats keep
				// flowing — without reconciliation the cell would wait
				// forever on an agent that is provably idle. The LossTimeout
				// grace covers a just-written dispatch still in flight.
				var hb wire.Heartbeat
				if err := ev.frame.Decode(&hb); err != nil {
					break
				}
				idx, owns := busy[ev.a]
				if !owns {
					break
				}
				if hb.CellID == cells[idx].ID {
					dispatched[ev.a] = time.Now() // evidence the cell is running
				} else if time.Since(dispatched[ev.a]) > c.cfg.LossTimeout {
					requeue(ev.a, fmt.Sprintf("agent reports %q in flight", hb.CellID))
					fill()
				}
			case ev.frame.Type == wire.TSnap:
				var s wire.Snap
				if err := ev.frame.Decode(&s); err == nil {
					// Only the cell's current owner may report progress for
					// it. After a loss the cell is re-dispatched, and a late
					// frame from the previous owner (or any frame for an
					// already-committed cell) would hand OnSnap the same
					// samples twice — agent snapshots are cumulative, so a
					// consumer keying streams by (agent, cell) would
					// double-count every bin the dead stream had delivered.
					idx, owns := busy[ev.a]
					if owns && cells[idx].ID == s.CellID && !committed[s.CellID] {
						dispatched[ev.a] = time.Now()
						c.cfg.Metrics.Counter("fleet.snaps_received").Inc()
						if c.cfg.OnSnap != nil {
							c.cfg.OnSnap(ev.a.name, s.CellID, s.Hist, s.Requests)
						}
					} else {
						c.cfg.Metrics.Counter("fleet.snaps_stale_dropped").Inc()
					}
				}
			case ev.frame.Type == wire.TCellDone:
				var d wire.CellDone
				if err := ev.frame.Decode(&d); err != nil {
					return nil, err
				}
				idx, known := byID[d.CellID]
				if d.Rejected {
					// The dispatch bounced off a busy agent: a duplicated
					// dispatch frame, or a requeued cell racing the agent's
					// previous run. If the echo shows the agent is executing
					// this very cell, it is just a duplicate frame — keep
					// waiting. Otherwise put the cell back in the queue.
					if known {
						if bidx, owns := busy[ev.a]; owns && bidx == idx {
							if d.Running == d.CellID {
								dispatched[ev.a] = time.Now()
							} else {
								requeue(ev.a, "dispatch rejected: "+d.Error)
								fill()
							}
						}
					}
					continue
				}
				// Release the agent only if this result is for the cell we
				// have it down for — a late result for a previously requeued
				// cell must not free (or double-book) an agent that already
				// holds a different dispatch.
				if bidx, owns := busy[ev.a]; owns && known && bidx == idx {
					delete(busy, ev.a)
					delete(dispatched, ev.a)
				}
				if !known || committed[d.CellID] {
					// Unknown or duplicate (re-dispatched cell finishing twice):
					// idempotent commit drops it, and the now-idle agent goes
					// back to work.
					if _, stillBusy := busy[ev.a]; !stillBusy && len(pending) > 0 && !ev.a.isLost() {
						dispatch(ev.a)
					}
					continue
				}
				if d.Error != "" {
					return nil, fmt.Errorf("fleet: cell %q failed on agent %q: %s", d.CellID, ev.a.name, d.Error)
				}
				if d.StartNs != 0 {
					d.StartNs = ev.a.clock.ToCoord(d.StartNs)
				}
				if d.EndNs != 0 {
					d.EndNs = ev.a.clock.ToCoord(d.EndNs)
				}
				if rec := c.cfg.Flight; rec != nil {
					cellSpan := rec.Add(telemetry.SpanRecord{
						Parent: rec.Root(), Kind: flightrec.KindCell,
						Name: "cell " + d.CellID, Cell: d.CellID,
						StartNs: dispatchNs[d.CellID], EndNs: time.Now().UnixNano(),
					})
					c.recordFlight(cellSpan, ev.a, d.CellID, d.Flight)
				}
				committed[d.CellID] = true
				results[idx] = CellResult{Done: d, Agent: ev.a.name, Reassigned: reassigns[d.CellID]}
				remaining--
				c.journalFleet(telemetry.FleetRecord{Action: "commit", Agent: ev.a.name, Cell: d.CellID})
				c.cfg.Metrics.Counter("fleet.cells_committed").Inc()
				if _, stillBusy := busy[ev.a]; !stillBusy && len(pending) > 0 && !ev.a.isLost() {
					dispatch(ev.a)
				}
			}
		}
	}
	return results, nil
}

// busyCell looks up the cell index an agent had in flight.
func (a *agentLink) busyCell(busy map[*agentLink]int) (int, bool) {
	idx, ok := busy[a]
	return idx, ok
}

// BroadcastResult is the outcome of a barrier-mode campaign.
type BroadcastResult struct {
	// Done holds one entry per participating agent, in agent-index order.
	// Entries for lost agents have Error set and no histograms.
	Done []wire.CellDone
	// Agents names the participants, parallel to Done.
	Agents []string
	// Lost names the agents that were lost mid-cell (empty unless the
	// policy is LossDegrade and a loss occurred).
	Lost []string
	// StartAtNs is the synchronized start instant in the coordinator's
	// clock.
	StartAtNs int64
}

// Merged folds every surviving shard's histograms into one snapshot — the
// campaign-level latency distribution, aggregated the way the paper
// demands (bin-wise histogram merge, not quantile averaging).
func (r *BroadcastResult) Merged() (*hist.Snapshot, error) {
	var snaps []*hist.Snapshot
	for _, d := range r.Done {
		if d.Error != "" {
			continue
		}
		snaps = append(snaps, d.Hists...)
	}
	return hist.MergeSnapshots(snaps...)
}

// Requests sums completed requests over surviving shards.
func (r *BroadcastResult) Requests() uint64 {
	var n uint64
	for _, d := range r.Done {
		if d.Error == "" {
			n += d.Requests
		}
	}
	return n
}

// RunBroadcast executes a barrier-mode campaign: the cell is sharded
// across every live agent (Shard i of N), all agents prepare and report
// Ready, and the coordinator releases a synchronized start — translating
// the start instant into each agent's clock using its offset estimate —
// so the fleet begins loading simultaneously. This is the many-low-rate-
// clients configuration the paper prescribes against client-side queueing
// bias.
func (c *Coordinator) RunBroadcast(ctx context.Context, cell wire.Cell) (*BroadcastResult, error) {
	if cell.ID == "" {
		return nil, fmt.Errorf("fleet: broadcast cell has empty ID")
	}
	agents := c.live()
	if len(agents) == 0 {
		return nil, fmt.Errorf("fleet: no live agents")
	}
	n := len(agents)
	cp := c.newCampaign(4*n + 16)
	defer cp.finish()

	pos := make(map[*agentLink]int, n) // agent -> shard position
	for i, a := range agents {
		cp.enroll(a)
		pos[a] = i
	}
	dispatchNs := time.Now().UnixNano()
	for i, a := range agents {
		shard := cell
		shard.Shard = i
		shard.Shards = n
		shard.Barrier = true
		if err := a.conn.Write(wire.TCell, c.flightCell(shard, a)); err != nil {
			a.markLost(fmt.Errorf("fleet: broadcast dispatch to %q: %w", a.name, err))
			if c.cfg.Loss == LossAbort {
				return nil, fmt.Errorf("fleet: agent %q lost during broadcast dispatch", a.name)
			}
		}
		c.journalFleet(telemetry.FleetRecord{Action: "dispatch", Agent: a.name, Cell: cell.ID})
		c.cfg.Metrics.Counter("fleet.cells_dispatched").Inc()
	}

	res := &BroadcastResult{
		Done:   make([]wire.CellDone, n),
		Agents: make([]string, n),
	}
	for i, a := range agents {
		res.Agents[i] = a.name
	}
	lost := make(map[*agentLink]bool)
	handleLost := func(a *agentLink) error {
		if lost[a] {
			return nil
		}
		lost[a] = true
		if c.cfg.Loss == LossAbort {
			return fmt.Errorf("fleet: agent %q lost (policy abort): %w", a.name, a.lostErr())
		}
		i := pos[a]
		res.Done[i] = wire.CellDone{CellID: cell.ID, Error: fmt.Sprintf("agent lost: %v", a.lostErr())}
		res.Lost = append(res.Lost, a.name)
		c.journalFleet(telemetry.FleetRecord{Action: "degrade", Agent: a.name, Cell: cell.ID, Policy: c.cfg.Loss.String()})
		return nil
	}

	// Phase 1: wait for every (surviving) agent to report Ready.
	ready := make(map[*agentLink]bool)
	for {
		n_ready := 0
		for _, a := range agents {
			if ready[a] || lost[a] {
				n_ready++
			}
		}
		if n_ready == n {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closeCh:
			return nil, fmt.Errorf("fleet: coordinator closed mid-broadcast")
		case ev := <-cp.events:
			switch {
			case ev.lost:
				if err := handleLost(ev.a); err != nil {
					return nil, err
				}
			case ev.frame.Type == wire.TReady:
				ready[ev.a] = true
			case ev.frame.Type == wire.TCellDone:
				// An agent can fail before the barrier (prepare error).
				var d wire.CellDone
				if err := ev.frame.Decode(&d); err != nil {
					return nil, err
				}
				if d.Error != "" {
					return nil, fmt.Errorf("fleet: cell %q failed on agent %q before start: %s", d.CellID, ev.a.name, d.Error)
				}
			}
		}
	}

	// Phase 2: release the barrier with per-agent clock translation.
	startCoord := time.Now().Add(c.cfg.BarrierDelay).UnixNano()
	res.StartAtNs = startCoord
	for _, a := range agents {
		if lost[a] {
			continue
		}
		if err := a.conn.Write(wire.TStart, wire.Start{CellID: cell.ID, StartAt: a.clock.ToAgent(startCoord)}); err != nil {
			a.markLost(fmt.Errorf("fleet: start to %q: %w", a.name, err))
			if err := handleLost(a); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3: collect results.
	for {
		remaining := 0
		for _, a := range agents {
			if !lost[a] && res.Done[pos[a]].CellID == "" {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closeCh:
			return nil, fmt.Errorf("fleet: coordinator closed mid-broadcast")
		case ev := <-cp.events:
			switch {
			case ev.lost:
				if err := handleLost(ev.a); err != nil {
					return nil, err
				}
			case ev.frame.Type == wire.TSnap:
				var s wire.Snap
				if err := ev.frame.Decode(&s); err == nil {
					// Broadcast shards all carry the campaign's cell ID, so
					// the ownership check is by membership: drop frames for
					// foreign cells, from lost agents, and from agents whose
					// shard already committed (a replaced reconnect can leave
					// a stale stream behind).
					if s.CellID == cell.ID && !lost[ev.a] && res.Done[pos[ev.a]].CellID == "" {
						c.cfg.Metrics.Counter("fleet.snaps_received").Inc()
						if c.cfg.OnSnap != nil {
							c.cfg.OnSnap(ev.a.name, s.CellID, s.Hist, s.Requests)
						}
					} else {
						c.cfg.Metrics.Counter("fleet.snaps_stale_dropped").Inc()
					}
				}
			case ev.frame.Type == wire.TCellDone:
				var d wire.CellDone
				if err := ev.frame.Decode(&d); err != nil {
					return nil, err
				}
				if d.CellID != cell.ID {
					continue
				}
				if d.Error != "" {
					return nil, fmt.Errorf("fleet: cell %q failed on agent %q: %s", d.CellID, ev.a.name, d.Error)
				}
				if d.StartNs != 0 {
					d.StartNs = ev.a.clock.ToCoord(d.StartNs)
				}
				if d.EndNs != 0 {
					d.EndNs = ev.a.clock.ToCoord(d.EndNs)
				}
				res.Done[pos[ev.a]] = d
				c.journalFleet(telemetry.FleetRecord{Action: "commit", Agent: ev.a.name, Cell: d.CellID})
				c.cfg.Metrics.Counter("fleet.cells_committed").Inc()
			}
		}
	}
	// Fold every surviving shard's flight payload into the timeline under
	// one cell span spanning dispatch→collection.
	if rec := c.cfg.Flight; rec != nil {
		cellSpan := rec.Add(telemetry.SpanRecord{
			Parent: rec.Root(), Kind: flightrec.KindCell,
			Name: "cell " + cell.ID, Cell: cell.ID,
			StartNs: dispatchNs, EndNs: time.Now().UnixNano(),
		})
		for i, a := range agents {
			c.recordFlight(cellSpan, a, cell.ID, res.Done[i].Flight)
		}
	}
	return res, nil
}

// Drain asks every live agent to finish its current cell and disconnect.
func (c *Coordinator) Drain() {
	for _, a := range c.live() {
		if err := a.conn.Write(wire.TDrain, struct{}{}); err != nil {
			a.markLost(fmt.Errorf("fleet: drain %q: %w", a.name, err))
		}
	}
	c.journalFleet(telemetry.FleetRecord{Action: "drain"})
}
