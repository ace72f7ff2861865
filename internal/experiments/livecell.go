package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"treadmill/internal/client"
	"treadmill/internal/fleet"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/server"
	"treadmill/internal/stats"
	"treadmill/internal/workload"
)

// startPreloadedKV boots an in-process memcached server on loopback and
// preloads the small key space the live fleet targets share (256 keys,
// 64-byte values), returning the server and the workload that matches it.
// The caller closes the server.
func startPreloadedKV(seed uint64) (*server.Server, workload.Config, error) {
	wl := workload.Default()
	wl.Keys = 256
	wl.ValueSize = workload.SizeDist{Kind: "constant", Value: 64}
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		return nil, wl, err
	}
	if err := srv.Start(); err != nil {
		return nil, wl, err
	}
	if err := loadgen.Preload(srv.Addr(), wl, seed); err != nil {
		srv.Close()
		return nil, wl, err
	}
	return srv, wl, nil
}

// loopbackLoadSpec is the broadcast load cell the fleet targets hand their
// loopback agents: open-loop load against addr, latencies binned 1µs–10s at
// the default histogram resolution.
func loopbackLoadSpec(addr string, wl workload.Config, rate float64, conns int, dur time.Duration, seed uint64) fleet.TCPLoadSpec {
	return fleet.TCPLoadSpec{
		Addr:       addr,
		TotalRate:  rate,
		Conns:      conns,
		DurationNs: int64(dur),
		Seed:       seed,
		Workload:   wl,
		HistLo:     1e-6,
		HistHi:     10,
		HistBins:   hist.DefaultConfig().Bins,
	}
}

// measureOpenLoop drives one live open-loop cell against addr for warm+dur
// and returns the count, P50 and P99 of the round-trip times measured after
// the warmup gate (warm plus 50 ms of dial slack). observe, when non-nil,
// sees every successful gated completion under the helper's lock and
// returns false to keep it out of the sample (a shed request, say).
func measureOpenLoop(ctx context.Context, addr string, opts loadgen.Options, warm, dur time.Duration, observe func(r *client.Result, rtt float64) bool) (n int, p50, p99 float64, err error) {
	// Completions arrive on per-connection reader goroutines.
	var mu sync.Mutex
	var lats []float64
	measureFrom := time.Now().Add(warm + 50*time.Millisecond)
	opts.OnResult = func(r *client.Result) {
		if r.Err != nil || r.Done.Before(measureFrom) {
			return
		}
		rtt := r.RTT().Seconds()
		mu.Lock()
		defer mu.Unlock()
		if observe != nil && !observe(r, rtt) {
			return
		}
		lats = append(lats, rtt)
	}
	gen, err := loadgen.NewOpenLoop(addr, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer gen.Close()
	if _, err := gen.Run(ctx, warm+dur); err != nil {
		return 0, 0, 0, err
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lats) == 0 {
		return 0, 0, 0, fmt.Errorf("live cell produced no samples")
	}
	// Non-empty input and fixed in-range quantiles: Quantile cannot fail.
	p50, _ = stats.Quantile(lats, 0.5)
	p99, _ = stats.Quantile(lats, 0.99)
	return len(lats), p50, p99, nil
}
