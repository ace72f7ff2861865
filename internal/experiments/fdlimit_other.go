//go:build !unix

package experiments

// fdLimit reports no open-file limit where there is no RLIMIT_NOFILE.
func fdLimit() (int, bool) { return 0, false }
