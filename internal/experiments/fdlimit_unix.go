//go:build unix

package experiments

import "syscall"

// fdLimit returns the process's soft open-file limit.
func fdLimit() (int, bool) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0, false
	}
	return int(rl.Cur), true
}
