package rtprobe

import (
	"treadmill/internal/anatomy"
	"treadmill/internal/protocol"
	"treadmill/internal/telemetry"
)

// Correlate merges a server-timing trailer into the client's coarse phase
// decomposition, producing the live-mode anatomy ledger. The result always
// tiles the client-measured latency (the phase-sum invariant the simulator's
// ledgers are tested against):
//
//   - The client-only spans (ClientSend, ClientRecv) come straight from the
//     request's record, exactly as in anatomy.Coarse.
//   - The coarse WireServer span is split into the server-derived phases:
//     SrvParse/SrvStore/SrvSerialize/SrvWrite from the server's wall-clock
//     stamps, SrvGC and ServerQueue (scheduler wait) from the runtime
//     attribution — which overlap the wall-clock spans, so that interference
//     is first subtracted proportionally from the stamped spans to keep the
//     decomposition additive.
//   - Whatever the server cannot account for (network stack, NIC, wire) is
//     reported explicitly as Other, computed as the exact residual of the
//     wire window, never silently absorbed.
//
// If the server's span sum exceeds the client-observed wire window (clock
// skew, coarse timers), every server-derived span is scaled down to fit and
// the clamp is reported via the returned clamped flag. A nil trailer yields
// the plain coarse decomposition. ok is false when the record's stamps are
// invalid (error/disconnect paths), as in anatomy.Coarse.
func Correlate(rec telemetry.Trace, st *protocol.ServerTiming) (v anatomy.Vec, total float64, ok, clamped bool) {
	v, total, ok = anatomy.Coarse(rec)
	if !ok || st == nil {
		return v, total, ok, false
	}
	wire := v[anatomy.WireServer]

	parse := float64(st.ParseNs) / 1e9
	store := float64(st.StoreNs) / 1e9
	serialize := float64(st.SerializeNs) / 1e9
	write := float64(st.WriteNs) / 1e9
	gc := float64(st.GCNs) / 1e9
	sched := float64(st.SchedNs) / 1e9
	if parse < 0 || store < 0 || serialize < 0 || write < 0 || gc < 0 || sched < 0 {
		// Corrupt trailer; fall back to the coarse view rather than emit a
		// ledger that cannot tile.
		return v, total, ok, false
	}

	// GC pauses and scheduler wait happened *inside* the stamped wall-clock
	// spans (they inflate them). Pull the interference out proportionally so
	// the six server phases remain additive.
	wall := parse + store + serialize + write
	interference := gc + sched
	if interference > wall && interference > 0 {
		f := wall / interference
		gc *= f
		sched *= f
		interference = wall
	}
	if wall > 0 {
		f := (wall - interference) / wall
		parse *= f
		store *= f
		serialize *= f
		write *= f
	}

	// The server-derived spans must fit inside the client-observed wire
	// window; scale down (and report) when they do not.
	sum := parse + store + serialize + write + gc + sched
	if sum > wire {
		clamped = true
		f := 0.0
		if sum > 0 {
			f = wire / sum
		}
		parse *= f
		store *= f
		serialize *= f
		write *= f
		gc *= f
		sched *= f
	}

	v[anatomy.SrvParse] = parse
	v[anatomy.SrvStore] = store
	v[anatomy.SrvSerialize] = serialize
	v[anatomy.SrvWrite] = write
	v[anatomy.SrvGC] = gc
	v[anatomy.ServerQueue] = sched
	v[anatomy.WireServer] = 0

	// Exact residual keeps the phase-sum invariant: assigned + other == wire
	// to within float addition error.
	other := wire - (parse + store + serialize + write + gc + sched)
	if other < 0 {
		other = 0
	}
	v[anatomy.Other] = other
	return v, total, true, clamped
}
