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

// TestSleepUntilSpinsOnlyTheTail is the regression test for a sender that
// kept a core busy for its whole inter-arrival gap: a precise wait must
// sleep in the kernel and spin only the short tail (CPU well under wall
// time), never wake early, and leave the timer slack of the thread it
// slept on as it found it. The CPU bound is skipped when the host was too
// busy to wake the sleeps in time, because the wait then spins on purpose
// (see SleepStarved).
func TestSleepUntilSpinsOnlyTheTail(t *testing.T) {
	if !SpinWaitNow() {
		t.Skip("GOMAXPROCS == 1: senders never spin")
	}
	// Locked here too, so that every wait sleeps on this thread and the
	// slack read afterwards is the one it slept with.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := timerSlack(t)
	const calls = 200
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
		t.Skip("the host woke the sleeps so late that the waits went back to spinning; the CPU bound does not apply")
	}
	ratio := cpu.Seconds() / wall.Seconds()
	t.Logf("process CPU %v over %v wall (%.2f); spin budget now %v", cpu, wall, ratio, time.Duration(spinBudget.Load()))
	if ratio >= 0.25 {
		t.Errorf("process CPU %v over %v wall (%.2f); want < 0.25 — the wait is spinning, not sleeping", cpu, wall, ratio)
	}
}
