//go:build !linux

package loadplane

import "time"

// SleepStarved is always false here: precise waits never sleep, so there
// is no kernel wake to starve.
func SleepStarved() bool { return false }

func preciseWait(deadline time.Time) { yieldingSpin(deadline) }
