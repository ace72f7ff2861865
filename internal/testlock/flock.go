//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package testlock

import (
	"errors"
	"os"
	"syscall"
)

const supported = true

// tryLock takes f's flock without blocking, reporting false if another
// open file holds a conflicting one.
func tryLock(f *os.File, exclusive bool) (bool, error) {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	for {
		err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, syscall.EWOULDBLOCK):
			return false, nil
		case errors.Is(err, syscall.EINTR):
			continue
		default:
			return false, err
		}
	}
}
