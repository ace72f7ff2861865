package loadplane

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

func timerSlack(t *testing.T) uintptr {
	t.Helper()
	slack, _, errno := syscall.Syscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	if errno != 0 {
		t.Skipf("PR_GET_TIMERSLACK: %v", errno)
	}
	return slack
}

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetWaitState puts the process-wide precise-wait state back to what a
// fresh process starts with, so a measurement neither inherits the budget
// nor a starvation hold from waits made before it.
func resetWaitState() {
	spinBudget.Store(int64(budgetSeed))
	starved.Store(0)
	noSleepUntil.Store(0)
}

// TestSleepUntilSpinsOnlyTheTail is the regression test for a sender that
// kept a core busy for its whole inter-arrival gap: a precise wait must
// sleep in the kernel and spin only the short tail (CPU well under wall
// time), never wake early, and leave the timer slack of the thread it
// slept on as it found it. Each measurement starts from a fresh wait
// state. One the host starved (it woke the sleeps so late that the waits
// went back to spinning on purpose, see SleepStarved) says nothing about
// the CPU bound, so it is taken again; the test skips only when every
// attempt was starved.
func TestSleepUntilSpinsOnlyTheTail(t *testing.T) {
	if !SpinWaitNow() {
		t.Skip("GOMAXPROCS == 1: senders never spin")
	}
	// Locked here too, so that every wait sleeps on this thread and the
	// slack read afterwards is the one it slept with.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer resetWaitState()
	const calls, attempts = 200, 5
	for attempt := 1; ; attempt++ {
		resetWaitState()
		runtime.GC() // keep a collection of earlier garbage out of the CPU measured
		before := timerSlack(t)
		early := 0
		wall0, cpu0 := time.Now(), processCPU(t)
		for i := 0; i < calls; i++ {
			deadline := time.Now().Add(time.Millisecond)
			SleepUntil(deadline, true)
			if time.Now().Before(deadline) {
				early++
			}
		}
		wall, cpu := time.Since(wall0), processCPU(t)-cpu0
		if early != 0 {
			t.Errorf("%d of %d waits returned before their deadline", early, calls)
		}
		if after := timerSlack(t); after != before {
			t.Errorf("timer slack after the waits = %d ns, want the %d ns it was before", after, before)
		}
		if SleepStarved() {
			if attempt == attempts {
				t.Skipf("the host woke the sleeps so late in all %d attempts that the waits went back to spinning; the CPU bound does not apply", attempts)
			}
			t.Logf("attempt %d: the host woke the sleeps so late that the waits went back to spinning; measuring again", attempt)
			continue
		}
		ratio := cpu.Seconds() / wall.Seconds()
		t.Logf("process CPU %v over %v wall (%.2f); spin budget now %v", cpu, wall, ratio, time.Duration(spinBudget.Load()))
		if ratio >= 0.25 {
			t.Errorf("process CPU %v over %v wall (%.2f); want < 0.25 — the wait is spinning, not sleeping", cpu, wall, ratio)
		}
		return
	}
}

// TestStarvationHoldCounting feeds the starvation count synthetic wakes,
// without sleeping: starvedWakes late wakes in a row start the hold and
// one fewer does not, whether they come from the precise wait's kernel
// sleep, from SleepUntil's coarse timer sleep, or from both; on-time wakes
// never start it; and a coarse wake, late or not, leaves the spin budget
// where it was.
func TestStarvationHoldCounting(t *testing.T) {
	defer resetWaitState()
	const late = 2 * budgetCeil
	precise := func() { observeWake(late) }
	coarse := func() { observeCoarseWake(time.Now().Add(-late)) }
	for _, tc := range []struct {
		name  string
		wakes []func()
	}{
		{"precise", []func(){precise, precise, precise, precise}},
		{"coarse", []func(){coarse, coarse, coarse, coarse}},
		{"mixed", []func(){coarse, precise, coarse, precise}},
	} {
		if len(tc.wakes) != starvedWakes {
			t.Fatalf("%s: %d wakes, want starvedWakes = %d", tc.name, len(tc.wakes), starvedWakes)
		}
		resetWaitState()
		for i, wake := range tc.wakes {
			wake()
			if got, want := SleepStarved(), i+1 == starvedWakes; got != want {
				t.Errorf("%s: after late wake %d SleepStarved() = %v, want %v", tc.name, i+1, got, want)
			}
		}
	}

	resetWaitState()
	for i := 0; i < 1000; i++ {
		observeCoarseWake(time.Now())
	}
	for i := 0; i < starvedWakes-1; i++ {
		coarse()
	}
	if SleepStarved() {
		t.Errorf("on-time coarse wakes and %d late ones started the hold", starvedWakes-1)
	}
	if got := time.Duration(spinBudget.Load()); got != budgetSeed {
		t.Errorf("coarse wakes moved the spin budget to %v, want it left at %v", got, budgetSeed)
	}
}
