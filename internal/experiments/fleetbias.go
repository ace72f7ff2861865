package experiments

import (
	"context"
	"fmt"
	"time"

	"treadmill/internal/fleet"
	"treadmill/internal/report"
	"treadmill/internal/workload"
)

// FleetBiasArm is one arm of the live client-side queueing-bias contrast.
type FleetBiasArm struct {
	// Agents is the fleet size; TotalConns the aggregate connection count.
	Agents, TotalConns int
	// Offered and Achieved are aggregate request rates (per second).
	Offered, Achieved float64
	// P50/P99/P999 are merged fleet-wide latency quantiles in seconds.
	P50, P99, P999 float64
}

// FleetBias holds both arms: one overloaded client vs a low-rate fleet.
type FleetBias struct {
	Single, Fleet FleetBiasArm
}

// fleetBiasParams sizes the live experiment per scale. Unlike the
// simulator experiments this one runs real sockets in real time, so
// "quick" trims wall-clock, not sample math.
func fleetBiasParams(scale Scale) (rate float64, dur time.Duration) {
	if scale.Name == "full" {
		return 12000, 4 * time.Second
	}
	return 6000, time.Second
}

// runFleetBiasArm drives one arm: a loopback fleet of `agents` agents
// (each with `conns` connections) against addr at `rate` aggregate RPS,
// through the exact broadcast path production fleets use, and returns the
// merged quantiles. With agents=1 this *is* the paper's single-client
// setup: the same aggregate rate squeezed through one process's few
// connections.
func runFleetBiasArm(ctx context.Context, addr string, agents, conns int, rate float64, dur time.Duration, seed uint64, wl workload.Config) (FleetBiasArm, error) {
	runners := make([]fleet.CellRunner, agents)
	for i := range runners {
		runners[i] = &fleet.TCPLoadRunner{}
	}
	lb, err := fleet.NewLoopback(fleet.Config{}, runners)
	if err != nil {
		return FleetBiasArm{}, err
	}
	defer lb.Close()

	spec := loopbackLoadSpec(addr, wl, rate, conns, dur, seed)
	cell, err := spec.Cell(fmt.Sprintf("bias-%d-agents", agents))
	if err != nil {
		return FleetBiasArm{}, err
	}
	res, err := lb.Coord.RunBroadcast(ctx, cell)
	if err != nil {
		return FleetBiasArm{}, err
	}
	merged, err := res.Merged()
	if err != nil {
		return FleetBiasArm{}, err
	}
	arm := FleetBiasArm{
		Agents:     agents,
		TotalConns: agents * conns,
		Offered:    rate,
		Achieved:   float64(res.Requests()) / dur.Seconds(),
	}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0.50, &arm.P50}, {0.99, &arm.P99}, {0.999, &arm.P999}} {
		v, err := merged.Quantile(q.p)
		if err != nil {
			return FleetBiasArm{}, err
		}
		*q.dst = v
	}
	return arm, nil
}

// RunFleetBias reproduces the paper's client-side queueing bias (Fig. 3 /
// pitfall 3) on the live fleet subsystem instead of the simulator: one
// in-process client offered the full aggregate rate through two
// connections versus eight loopback agents each offered 1/8th, against
// the same in-process memcached server. Both arms use the identical
// broadcast/merge machinery, so the only variable is how many low-rate
// clients the load is spread across. The overloaded client queues
// requests in its own pipeline before they ever reach a socket, inflating
// its measured tail; the fleet's per-client load is low enough that its
// quantiles reflect the server.
//
// This experiment runs real sockets in real wall-clock time, so unlike
// the simulator figures its absolute numbers vary machine to machine; the
// reproducible content is the ordering (single-client P99 >> fleet P99 at
// equal offered load).
func RunFleetBias(ctx context.Context, scale Scale) (*FleetBias, error) {
	rate, dur := fleetBiasParams(scale)

	srv, wl, err := startPreloadedKV(scale.Seed)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var out FleetBias
	// Fleet arm first so the single-client arm's stragglers cannot leak
	// load into it.
	out.Fleet, err = runFleetBiasArm(ctx, srv.Addr(), 8, 2, rate, dur, scale.Seed, wl)
	if err != nil {
		return nil, fmt.Errorf("fleet arm: %w", err)
	}
	out.Single, err = runFleetBiasArm(ctx, srv.Addr(), 1, 2, rate, dur, scale.Seed+1, wl)
	if err != nil {
		return nil, fmt.Errorf("single-client arm: %w", err)
	}
	return &out, nil
}

// FleetBiasTable renders the contrast.
func FleetBiasTable(b *FleetBias) *report.Table {
	t := &report.Table{
		Title:   "Client-side queueing bias, live fleet (equal aggregate RPS, real sockets)",
		Headers: []string{"setup", "agents", "conns", "offered rps", "achieved rps", "p50", "p99", "p99.9"},
	}
	row := func(name string, a FleetBiasArm) {
		t.AddRow(name,
			fmt.Sprintf("%d", a.Agents),
			fmt.Sprintf("%d", a.TotalConns),
			fmt.Sprintf("%.0f", a.Offered),
			fmt.Sprintf("%.0f", a.Achieved),
			fmtDur(a.P50), fmtDur(a.P99), fmtDur(a.P999))
	}
	row("single client", b.Single)
	row("8-agent fleet", b.Fleet)
	if b.Fleet.P99 > 0 {
		t.AddRow("p99 inflation", "", "", "", "",
			"", fmt.Sprintf("%.2fx", b.Single.P99/b.Fleet.P99), "")
	}
	return t
}

// fmtDur renders seconds as a human latency.
func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(100 * time.Nanosecond).String()
}
