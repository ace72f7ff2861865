package testlock

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// holder is a testing.TB whose cleanups run when the test says, so one
// test can hold several locks and release them in a chosen order.
type holder struct {
	testing.TB
	cleanups []func()
}

func (h *holder) Cleanup(f func()) { h.cleanups = append(h.cleanups, f) }

func (h *holder) release() {
	for i := len(h.cleanups) - 1; i >= 0; i-- {
		h.cleanups[i]()
	}
	h.cleanups = nil
}

// gateHeld reports whether another open file holds the turnstile.
func gateHeld(t *testing.T) bool {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(os.TempDir(), gateName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ok, err := tryLock(f, true)
	if err != nil {
		t.Fatal(err)
	}
	return !ok
}

// returns runs f in a goroutine and returns a channel closed when it does.
func returns(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

func TestWallClockExcludesCPUBound(t *testing.T) {
	if !supported {
		t.Skip("no file locks on this platform")
	}
	t.Setenv("TMPDIR", t.TempDir())
	const within = 10 * time.Second

	first, second := &holder{TB: t}, &holder{TB: t}
	CPUBound(first)
	CPUBound(second) // shared: taken beside the first at once

	wall := &holder{TB: t}
	walled := returns(func() { WallClock(wall) })
	for deadline := time.Now().Add(within); !gateHeld(t); {
		if time.Now().After(deadline) {
			t.Fatal("the waiting WallClock never took the turnstile")
		}
		time.Sleep(time.Millisecond)
	}
	late := &holder{TB: t}
	lateDone := returns(func() { CPUBound(late) })

	select {
	case <-walled:
		t.Fatal("WallClock returned while CPU-bound tests held the lock")
	case <-lateDone:
		t.Fatal("a CPU-bound test overtook the waiting WallClock")
	case <-time.After(50 * time.Millisecond):
	}
	first.release()
	select {
	case <-walled:
		t.Fatal("WallClock returned while one CPU-bound test still held the lock")
	case <-time.After(50 * time.Millisecond):
	}
	second.release()
	select {
	case <-walled:
	case <-time.After(within):
		t.Fatal("WallClock still waiting after every CPU-bound test released")
	}
	select {
	case <-lateDone:
		t.Fatal("a CPU-bound test started while WallClock held the lock")
	case <-time.After(50 * time.Millisecond):
	}
	wall.release()
	select {
	case <-lateDone:
	case <-time.After(within):
		t.Fatal("the queued CPU-bound test still waiting after WallClock released")
	}
	late.release()
}
