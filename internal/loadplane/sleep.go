package loadplane

import (
	"runtime"
	"time"
)

// spinAffordable is the one rule for whether senders may spin-wait: only
// when there are more Ps than senders spinning at once. With no P left
// over, a spinning sender crowds out reader goroutines (and any
// co-located server), inflating the very latencies being measured — the
// client-side bias the paper warns about, produced in miniature.
// Evaluated at call time, not package init, because harnesses
// (runner.LiveStudy) change GOMAXPROCS per cell.
func spinAffordable(spinners int) bool { return runtime.GOMAXPROCS(0) > spinners }

// SpinWaitNow reports whether a single sender (the classic open loop) may
// spin-wait right now; see spinAffordable.
func SpinWaitNow() bool { return spinAffordable(1) }

// SleepUntil waits for the deadline. Without spin it sleeps on a Go
// timer. With spin, waits over 2 ms first sleep on a timer down to about
// 1 ms, and the rest is the precise wait: on Linux a kernel sleep to
// within a self-measured overshoot budget of the deadline followed by a
// busy-wait across that budget; elsewhere, or while the host is too
// oversubscribed to wake a sleeper in time, a yielding spin.
func SleepUntil(deadline time.Time, spin bool) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return
		}
		// time.Sleep can overshoot by a millisecond (the netpoller's
		// timeout granularity); only use it for coarse waits.
		if !spin || d > 2*time.Millisecond {
			sleepFor := d
			if spin {
				sleepFor = d - time.Millisecond
			}
			time.Sleep(sleepFor)
			continue
		}
		preciseWait(deadline)
		return
	}
}

// yieldingSpin spins to the deadline, yielding the processor between
// clock reads so the rest of the process still runs. It keeps the sender
// runnable, which costs a core but never waits on the kernel to hand the
// CPU back.
func yieldingSpin(deadline time.Time) {
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
