package loadplane_test

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/loadgen"
	"treadmill/internal/loadplane"
	"treadmill/internal/server"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func smallWorkload() workload.Config {
	cfg := workload.Default()
	cfg.Keys = 200
	cfg.ValueSize = workload.SizeDist{Kind: "constant", Value: 64}
	return cfg
}

func TestPlaneAgainstRealServer(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := loadgen.Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	var mu sync.Mutex
	var rtts []float64
	p, err := loadplane.New(loadplane.Config{
		Addr:      srv.Addr(),
		Rate:      4000,
		Conns:     16,
		Shards:    4,
		Workload:  cfg,
		Seed:      2,
		Telemetry: reg,
		OnResult: func(r *client.Result) {
			if r.Err == nil {
				mu.Lock()
				rtts = append(rtts, r.RTT().Seconds())
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats, err := p.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if stats.Completed != stats.Sent || stats.Errors != 0 {
		t.Fatalf("sent %d, completed %d, errors %d; want full completion",
			stats.Sent, stats.Completed, stats.Errors)
	}
	// The offered rate self-corrects; allow a generous band.
	if rate := stats.OfferedRate(); rate < 3000 || rate > 5000 {
		t.Errorf("offered rate = %g, want ~4000", rate)
	}
	mu.Lock()
	n := len(rtts)
	mu.Unlock()
	if uint64(n) != stats.Completed {
		t.Errorf("OnResult fired %d times for %d completions", n, stats.Completed)
	}
	for _, r := range rtts[:min(10, n)] {
		if r <= 0 || r > 1 {
			t.Errorf("implausible RTT %g s", r)
		}
	}
	// Slippage self-audit observed every send under the open loop's names.
	snap := reg.Snapshot()
	if rec, ok := snap.Recorders["loadgen.send_slippage"]; !ok || rec.Count == 0 {
		t.Error("no loadgen.send_slippage samples recorded")
	}
	if got := snap.Counters["loadgen.sent"]; got != stats.Sent {
		t.Errorf("telemetry sent = %d, stats sent = %d", got, stats.Sent)
	}
}

func TestPlaneServerTimingAnatomy(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := loadgen.Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	acfg := anatomy.DefaultConfig()
	acfg.Source = anatomy.SourceLive
	agg, err := anatomy.NewAggregator(acfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadplane.New(loadplane.Config{
		Addr:         srv.Addr(),
		Rate:         2000,
		Conns:        8,
		Shards:       2,
		Workload:     cfg,
		Seed:         5,
		ServerTiming: true,
		Observers:    client.Observers{Anatomy: agg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats, err := p.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed == 0 || stats.Errors != 0 {
		t.Fatalf("completed %d, errors %d", stats.Completed, stats.Errors)
	}
	if agg.Count() != stats.Completed {
		t.Errorf("anatomy recorded %d of %d completions", agg.Count(), stats.Completed)
	}
	bd := agg.Finalize()
	var srvPhases float64
	for _, ph := range []anatomy.Phase{anatomy.SrvParse, anatomy.SrvStore, anatomy.SrvSerialize, anatomy.SrvWrite} {
		srvPhases += bd.Overall.Mean[ph]
	}
	if srvPhases <= 0 {
		t.Error("server-timing trailers produced no server-side phase mass")
	}
}

// TestPlaneCancellationDrains: a cancelled context must not wedge the
// drain — the classic waitOrAbandon contract.
func TestPlaneCancellationDrains(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	p, err := loadplane.New(loadplane.Config{
		Addr: srv.Addr(), Rate: 2000, Conns: 4, Shards: 2, Workload: cfg, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		_, _ = p.Run(ctx, 30*time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not drain")
	}
}

// TestPlaneRejectsNonFiniteRate: a rate that is not finite and positive
// makes zero or NaN gaps, and the plane would send until its context fires
// instead of for the run's duration.
func TestPlaneRejectsNonFiniteRate(t *testing.T) {
	srv := startServer(t)
	for _, rate := range []float64{0, math.Inf(1), math.NaN()} {
		p, err := loadplane.New(loadplane.Config{
			Addr: srv.Addr(), Rate: rate, Conns: 1, Shards: 1, Workload: smallWorkload(), Seed: 1,
		})
		if err == nil {
			p.Close()
			t.Errorf("rate %g accepted", rate)
		}
	}
}

// TestPlaneRejectsBadKeyPrefix: the plane writes generated keys to the
// wire unchecked, so a prefix that would inject a command must fail New.
func TestPlaneRejectsBadKeyPrefix(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	cfg.KeyPrefix = "a b\r\nstats"
	p, err := loadplane.New(loadplane.Config{Addr: srv.Addr(), Rate: 1000, Conns: 1, Shards: 1, Workload: cfg, Seed: 1})
	if err == nil {
		p.Close()
		t.Fatal("New accepted a key prefix with a space and CRLF")
	}
}

// TestOpenLoopShardsRoute: loadgen.Options.Shards must route through the
// plane while keeping the classic metric names and stats shape.
func TestOpenLoopShardsRoute(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := loadgen.Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	ol, err := loadgen.NewOpenLoop(srv.Addr(), loadgen.Options{
		Rate: 3000, Conns: 8, Workload: cfg, Seed: 4,
		Shards:    -1, // GOMAXPROCS
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	stats, err := ol.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != stats.Sent || stats.Errors != 0 || stats.Sent == 0 {
		t.Fatalf("stats = %+v; want full completion", stats)
	}
	if ol.Slippage() == nil || ol.Slippage().Total() != stats.Sent {
		t.Error("plane route lost the send-slippage self-audit")
	}
	// Existing consumers read the classic names (treadmill CLI reads
	// loadgen.send_slippage).
	snap := reg.Snapshot()
	if rec, ok := snap.Recorders["loadgen.send_slippage"]; !ok || rec.Count != stats.Sent {
		t.Error("plane route did not publish loadgen.send_slippage")
	}
	if snap.Counters["loadgen.sent"] != stats.Sent {
		t.Error("plane route did not publish loadgen.sent")
	}
}

// TestOpenLoopShardsCarriesObservers: the plane feeds every per-request
// observer the classic client does — a trace per completion with monotone
// stamps, one anatomy record and one OnVec call per completion, and
// server-derived phases from the timing trailers — and both paths hand
// the tracer and OnVec the same record: matched by arrival, a completion's
// trace and its OnVec record carry the same arrival and completion stamps,
// and OnVec's total is exactly their difference.
func TestOpenLoopShardsCarriesObservers(t *testing.T) {
	srv := startServer(t)
	cfg := smallWorkload()
	if err := loadgen.Preload(srv.Addr(), cfg, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"plane", 2},
		{"classic", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer, err := telemetry.NewTracer(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			acfg := anatomy.DefaultConfig()
			acfg.Source = anatomy.SourceLive
			agg, err := anatomy.NewAggregator(acfg)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			vecs := map[int64][]telemetry.Trace{}
			var calls, badTotals uint64
			ol, err := loadgen.NewOpenLoop(srv.Addr(), loadgen.Options{
				Rate: 2000, Conns: 4, Workload: cfg, Seed: 6,
				Shards:       tc.shards,
				ServerTiming: true,
				Tracer:       tracer,
				Anatomy:      agg,
				OnVec: func(rec telemetry.Trace, total float64, _ anatomy.Vec) {
					mu.Lock()
					defer mu.Unlock()
					calls++
					vecs[rec.ArrivalNs] = append(vecs[rec.ArrivalNs], rec)
					if math.Float64bits(total) != math.Float64bits(float64(rec.CompleteNs-rec.ArrivalNs)/1e9) {
						badTotals++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ol.Close()
			stats, err := ol.Run(context.Background(), 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Completed == 0 || stats.Completed != stats.Sent || stats.Errors != 0 {
				t.Fatalf("stats = %+v; want full completion", stats)
			}
			// Both paths return only after every counted request's
			// observers ran, so the counts below must match at once.
			mu.Lock()
			defer mu.Unlock()
			var traced, matched uint64
			for _, tr := range tracer.Records() {
				stamps := []int64{tr.ArrivalNs, tr.EnqueueNs, tr.SendNs, tr.FirstByteNs, tr.CompleteNs}
				for i := 1; i < len(stamps); i++ {
					if stamps[i] < stamps[i-1] {
						t.Fatalf("stamp %d (%d) precedes stamp %d (%d): %+v", i, stamps[i], i-1, stamps[i-1], tr)
					}
				}
				if tr.Err != "" || tr.Op == "" {
					t.Fatalf("trace %+v", tr)
				}
				if tr.Op == "timing" {
					// The classic client's handshake is traced but is no
					// workload request: it never reaches OnVec.
					continue
				}
				traced++
				for i, rec := range vecs[tr.ArrivalNs] {
					if rec.CompleteNs == tr.CompleteNs {
						vecs[tr.ArrivalNs] = append(vecs[tr.ArrivalNs][:i], vecs[tr.ArrivalNs][i+1:]...)
						matched++
						break
					}
				}
			}
			if traced != stats.Completed {
				t.Errorf("%d traces for %d completions", traced, stats.Completed)
			}
			if matched != stats.Completed {
				t.Errorf("%d of %d traces matched an OnVec record with equal arrival and completion stamps", matched, stats.Completed)
			}
			if badTotals != 0 {
				t.Errorf("%d OnVec totals differ from their record's completion minus arrival", badTotals)
			}
			bd := agg.Finalize()
			if bd.Requests != stats.Completed || calls != stats.Completed {
				t.Errorf("anatomy %d, OnVec %d, completed %d; want equal", bd.Requests, calls, stats.Completed)
			}
			var srvPhases float64
			for _, ph := range []anatomy.Phase{anatomy.SrvParse, anatomy.SrvStore, anatomy.SrvSerialize, anatomy.SrvWrite} {
				srvPhases += bd.Overall.Mean[ph]
			}
			if srvPhases <= 0 {
				t.Error("server-timing trailers produced no server-side phase mass")
			}
		})
	}
}
