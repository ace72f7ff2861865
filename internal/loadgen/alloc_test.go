package loadgen

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestOpenLoopClassicAllocs is the process-wide guard on the classic
// open-loop path against the real server: drawing, encoding, sending,
// serving, parsing and completing a request allocate nothing once the
// connections' scratch has grown, so a Run — the tester and the server in
// one process — stays under one allocation per hundred requests.
//
// The pending free lists grow to the deepest pipeline a connection has
// reached, so a window in which the host stalled the readers allocates
// the pendings that stall queued, once. Such a window is retried; a path
// that allocates per request fails every window.
func TestOpenLoopClassicAllocs(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload() // constant-size values: a SET overwrites in place
	if err := Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	ol, err := NewOpenLoop(srv.Addr(), Options{Rate: 5000, Conns: 2, Workload: cfg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	// The first run grows the pending free lists and the parse scratch.
	if _, err := ol.Run(context.Background(), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const windows = 3
	for i := 1; ; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stats, err := ol.Run(context.Background(), time.Second)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed == 0 || stats.Errors != 0 {
			t.Fatalf("run stats %+v", stats)
		}
		mallocs := ms1.Mallocs - ms0.Mallocs
		per := float64(mallocs) / float64(stats.Completed)
		if per <= 0.01 {
			return
		}
		if i == windows {
			t.Fatalf("%d mallocs for %d requests = %.4f per request in each of %d windows, want <= 0.01",
				mallocs, stats.Completed, per, windows)
		}
		t.Logf("window %d: %d mallocs for %d requests; retrying", i, mallocs, stats.Completed)
	}
}
