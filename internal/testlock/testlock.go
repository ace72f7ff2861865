// Package testlock keeps a test run's CPU-bound tests from running while its
// wall-clock tests measure.
//
// go test ./... runs up to GOMAXPROCS test binaries at once. A test that
// asserts how promptly a sleeper wakes, or how few sends go out late, then
// measures what CPU another package's simulation campaign leaves it, not
// the code under test: on a two-core host a loadgen precision test that
// passes alone fails most runs beside the experiments package. The lock
// spans processes, as a file lock in the temporary directory. WallClock
// takes it exclusively and CPUBound shared, so a wall-clock test waits for
// the CPU-bound tests running in other packages and they wait for it. A
// waiting WallClock holds a turnstile, a second lock file, that keeps later
// CPU-bound tests from overtaking it.
//
// Only the suite's own load is kept out; other processes on the host still
// compete. No wait is longer than MaxWait: a test that could not take the
// lock by then logs so and runs unlocked. Where file locks are not
// available every call returns at once.
package testlock

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// MaxWait bounds how long a test waits for the lock before it runs
// unlocked.
const MaxWait = 2 * time.Minute

// The two lock files, in os.TempDir. They are shared by every checkout and
// every go test process of the user, and are never removed: a file deleted
// while locked would let the next test lock a new one.
const (
	gateName = "treadmill-tests.gate"
	lockName = "treadmill-tests.lock"
)

// WallClock makes the calling test wait until no CPU-bound test runs in
// another process, and keeps new ones from starting until it returns.
func WallClock(tb testing.TB) {
	tb.Helper()
	acquire(tb, true)
}

// CPUBound marks the calling test as one that keeps every core busy: it
// runs alongside other CPU-bound tests but never alongside a WallClock one.
func CPUBound(tb testing.TB) {
	tb.Helper()
	acquire(tb, false)
}

func acquire(tb testing.TB, exclusive bool) {
	tb.Helper()
	if !supported {
		return
	}
	dir := os.TempDir()
	gate, err := os.OpenFile(filepath.Join(dir, gateName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		tb.Logf("testlock: %v; running unlocked", err)
		return
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		gate.Close()
		tb.Logf("testlock: %v; running unlocked", err)
		return
	}
	start := time.Now()
	deadline := start.Add(MaxWait)
	// Both kinds pass the turnstile. A shared holder leaves it at once; an
	// exclusive one keeps it, so that CPU-bound tests queue behind it
	// instead of taking the shared lock in turn and starving it.
	if err := wait(gate, true, deadline); err != nil {
		gate.Close()
		lock.Close()
		tb.Logf("testlock: turnstile: %v after %v; running unlocked", err, time.Since(start).Round(time.Millisecond))
		return
	}
	err = wait(lock, exclusive, deadline)
	if !exclusive || err != nil {
		gate.Close() // closing a file drops its lock
	}
	if err != nil {
		lock.Close()
		tb.Logf("testlock: %v after %v; running unlocked", err, time.Since(start).Round(time.Millisecond))
		return
	}
	if waited := time.Since(start); waited >= 10*time.Millisecond {
		tb.Logf("testlock: waited %v for the lock", waited.Round(time.Millisecond))
	}
	tb.Cleanup(func() {
		lock.Close()
		if exclusive {
			gate.Close()
		}
	})
}

// errTimeout reports a lock not taken by the deadline.
type errTimeout struct{}

func (errTimeout) Error() string { return "timed out" }

// wait polls for the lock on f until the deadline, backing off from 1 ms to
// 20 ms between tries so that a test queued behind a wall-clock one costs it
// little CPU.
func wait(f *os.File, exclusive bool, deadline time.Time) error {
	pause := time.Millisecond
	for {
		ok, err := tryLock(f, exclusive)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errTimeout{}
		}
		time.Sleep(pause)
		if pause < 20*time.Millisecond {
			pause *= 2
		}
	}
}
