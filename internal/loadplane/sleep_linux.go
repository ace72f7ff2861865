package loadplane

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The precise wait sleeps in the kernel until deadline − budget and
// busy-waits the rest. The budget is the overshoot the waiters themselves
// measure after each kernel sleep: a high-water mark shared by every
// sender in the process that rises by at most a quarter per observation
// (one preempted sleep must not turn the next waits into spins, while a
// lasting shift is reached within a dozen sleeps) and sheds
// 1/2^budgetDecayShift on every wait (a calmer host gets its CPU back
// within a few hundred sends, and a budget longer than every gap cannot
// stick for want of sleeps to observe).
//
// A wake later than budgetCeil is the kernel handing the CPU back only
// after another process's time slice. On a host that does that
// repeatedly (starvedWakes times within about 2^starvedDecayShift
// sleeps) every sleep costs a slice of send lateness, so the waiters stop
// sleeping for starvedHold and spin with yields, keeping the sender
// runnable as before. On 2 vCPUs shared with a CPU-bound process this
// holds the classic loop's late sends at 5 k rps to the old spin's 1–5 %,
// where sleeping through it left 20–30 % late. The coarse timer sleep
// that long waits begin with counts too: it aims a millisecond early, so
// a wake more than budgetCeil past the send deadline is late by the same
// measure.
const (
	budgetSeed       = 50 * time.Microsecond
	budgetFloor      = 5 * time.Microsecond
	budgetCeil       = time.Millisecond
	budgetDecayShift = 7

	starvedWakes      = 4
	starvedDecayShift = 9
	starvedHold       = time.Second
)

var (
	spinBudget atomic.Int64 // nanoseconds
	// starved is a leaky count of wakes later than budgetCeil, in units of
	// 1/1024 wake.
	starved atomic.Int64
	// noSleepUntil is the end of the current starvation hold, in
	// nanoseconds since epoch.
	noSleepUntil atomic.Int64
	epoch        = time.Now()
)

func init() { spinBudget.Store(int64(budgetSeed)) }

const (
	prSetTimerSlack = 29 // PR_SET_TIMERSLACK
	prGetTimerSlack = 30 // PR_GET_TIMERSLACK
)

// SleepStarved reports whether precise waits are in a starvation hold:
// spinning instead of sleeping because the host recently woke sleeping
// senders too late. During a hold the sender keeps its schedule the way
// it always did, by staying runnable, and so occupies a core that a
// co-located system under test no longer gets.
func SleepStarved() bool { return int64(time.Since(epoch)) < noSleepUntil.Load() }

func preciseWait(deadline time.Time) {
	b := spinBudget.Load()
	budget := max(b-b>>budgetDecayShift, int64(budgetFloor))
	spinBudget.CompareAndSwap(b, budget) // a lost race drops one decay step
	if SleepStarved() {
		yieldingSpin(deadline)
		return
	}
	if wake := deadline.Add(-time.Duration(budget)); time.Until(wake) > 0 {
		preciseSleep(wake)
		observeWake(time.Since(wake))
	}
	for time.Now().Before(deadline) {
	}
}

// preciseSleep sleeps in the kernel until wake with the thread's timer
// slack at 1 ns, so the wake lands within microseconds rather than the
// default 50 µs slack. Slack is per thread, so the goroutine is locked to
// its thread for the sleep alone, and the thread's slack is restored
// before it is released: locking a sender for a whole run makes every
// preemption and GC pause of it a thread hand-off, which on a busy host
// costs milliseconds.
//
// The sleep enters through syscall.Syscall, not RawSyscall, so the
// sleeping sender releases its P: a stop-the-world pause, and the server
// under test that may share the process, never wait on it. It resumes
// after signal interruptions (the runtime's preemption signal among them).
func preciseSleep(wake time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if prev, _, errno := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0); errno == 0 {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, prev, 0)
	}
	for {
		d := time.Until(wake)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_, _, errno := syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		if errno != syscall.EINTR {
			return
		}
	}
}

// observeWake feeds one kernel sleep's overshoot into the starvation
// count and lifts the budget toward it, by at most a quarter.
func observeWake(over time.Duration) {
	countWake(over > budgetCeil)
	for {
		b := spinBudget.Load()
		nb := min(int64(over), b+b>>2, int64(budgetCeil))
		if nb <= b || spinBudget.CompareAndSwap(b, nb) {
			return
		}
	}
}

// observeCoarseWake feeds the wake of SleepUntil's coarse timer sleep
// into the starvation count. It leaves the spin budget alone: that sleep's
// overshoot is the Go timer's, not the kernel sleep's the budget covers.
func observeCoarseWake(deadline time.Time) { countWake(time.Since(deadline) > budgetCeil) }

// countWake decays the starvation count by one sleep and adds a late
// wake. The hold starts once the count exceeds starvedWakes−1 wakes, so
// that starvedWakes late wakes in a row start it despite the decay
// between them.
func countWake(late bool) {
	c := starved.Load()
	c -= c >> starvedDecayShift
	if late {
		c += 1 << 10
		if c > (starvedWakes-1)<<10 {
			noSleepUntil.Store(int64(time.Since(epoch) + starvedHold))
		}
	}
	starved.Store(c) // racing waiters may drop an update; the count is a rate
}
