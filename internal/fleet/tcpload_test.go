package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treadmill/internal/core"
	"treadmill/internal/fleet/wire"
	"treadmill/internal/flightrec"
	"treadmill/internal/hist"
	"treadmill/internal/loadgen"
	"treadmill/internal/server"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

func startTestServer(t *testing.T) *server.Server {
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

func tinyWorkload() workload.Config {
	cfg := workload.Default()
	cfg.Keys = 100
	cfg.ValueSize = workload.SizeDist{Kind: "constant", Value: 64}
	return cfg
}

// TestBroadcastLoadMeasure drives the full distributed TCP path: a
// loopback fleet of agents loading an in-process memcached server through
// real sockets, with the Treadmill repeated-run procedure consuming the
// merged per-agent histogram shards.
func TestBroadcastLoadMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	srv := startTestServer(t)
	wl := tinyWorkload()
	if err := loadgen.Preload(srv.Addr(), wl, 1); err != nil {
		t.Fatal(err)
	}

	const agents = 3
	var snapsSeen atomic.Int64
	runners := make([]CellRunner, agents)
	for i := range runners {
		runners[i] = &TCPLoadRunner{}
	}
	lb, err := NewLoopback(Config{
		OnSnap: func(agent, cellID string, snap *hist.Snapshot, requests uint64) {
			snapsSeen.Add(1)
		},
	}, runners)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	cfg := core.DefaultConfig()
	cfg.Quantiles = []float64{0.5, 0.99}
	cfg.PrimaryQuantile = 0.99
	cfg.MinRuns, cfg.MaxRuns = 2, 2
	cfg.Seed = 7

	spec := TCPLoadSpec{
		Addr:         srv.Addr(),
		TotalRate:    3000,
		Conns:        2,
		DurationNs:   (500 * time.Millisecond).Nanoseconds(),
		Workload:     wl,
		HistLo:       1e-6,
		HistHi:       10,
		HistBins:     cfg.Hist.Bins,
		SnapPeriodNs: (100 * time.Millisecond).Nanoseconds(),
	}
	m, err := core.MeasureSnapshots(context.Background(), cfg, &BroadcastLoadRunner{Co: lb.Coord, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("%d runs, want 2", len(m.Runs))
	}
	for _, run := range m.Runs {
		if len(run.InstanceSamples) != agents {
			t.Fatalf("run %d has %d instances, want %d (one histogram shard per agent)", run.Run, len(run.InstanceSamples), agents)
		}
	}
	p50, p99 := m.Estimate[0.5], m.Estimate[0.99]
	if !(p50 > 0) || p99 < p50 {
		t.Fatalf("implausible estimates: p50=%g p99=%g", p50, p99)
	}
	// ~1500 requests per 500ms run at 3000 rps aggregate; leave wide slack
	// for loaded CI machines.
	if m.TotalSamples < 500 {
		t.Fatalf("only %d samples across runs", m.TotalSamples)
	}
	if snapsSeen.Load() == 0 {
		t.Fatal("no mid-run snapshots streamed to the coordinator")
	}
}

// TestTCPLoadSendShards routes a fleet load cell through the sharded
// load plane and checks the shard still ships a full histogram; a second
// cell with flight capture and a tracer attached must stay on the plane and
// still return its flight spans and traces.
func TestTCPLoadSendShards(t *testing.T) {
	if testing.Short() {
		t.Skip("real load generation in -short mode")
	}
	srv := startTestServer(t)
	wl := tinyWorkload()
	if err := loadgen.Preload(srv.Addr(), wl, 1); err != nil {
		t.Fatal(err)
	}
	spec := TCPLoadSpec{
		Addr:       srv.Addr(),
		TotalRate:  2000,
		Conns:      4,
		DurationNs: (500 * time.Millisecond).Nanoseconds(),
		Workload:   wl,
		HistLo:     1e-6,
		HistHi:     10,
		HistBins:   64,
		SendShards: 2,
	}
	cell, err := spec.Cell("plane")
	if err != nil {
		t.Fatal(err)
	}
	r := &TCPLoadRunner{}
	done, err := r.RunCell(context.Background(), cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.Requests < 500 {
		t.Fatalf("plane-routed shard completed only %d requests", done.Requests)
	}
	if len(done.Hists) != 1 || done.Hists[0].Count() == 0 {
		t.Fatal("plane-routed shard shipped no histogram samples")
	}

	tracer, err := telemetry.NewTracer(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cell.Capture = &flightrec.CaptureSpec{SampleEvery: 1, CPUProfileMs: -1}
	done, err = (&TCPLoadRunner{Tracer: tracer, Telemetry: reg}).RunCell(context.Background(), cell, nil)
	if err != nil {
		t.Fatalf("observed plane cell failed: %v", err)
	}
	if done.Requests == 0 {
		t.Fatal("observed plane cell completed no requests")
	}
	if done.Flight == nil || len(done.Flight.Requests) == 0 {
		t.Fatalf("flight capture on the plane returned no spans: %+v", done.Flight)
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer on the plane captured no traces")
	}
	// desync is a plane-only counter: the cell did not fall back to the
	// classic client.
	if _, ok := reg.Snapshot().Counters["loadgen.desync"]; !ok {
		t.Fatal("observed cell did not run on the load plane")
	}
}

func TestTCPLoadSpecValidation(t *testing.T) {
	valid := TCPLoadSpec{
		Addr: "127.0.0.1:1", TotalRate: 100, Conns: 1,
		DurationNs: int64(time.Second), HistLo: 1e-6, HistHi: 10, HistBins: 64,
	}
	if _, err := valid.Cell("ok"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TCPLoadSpec)
	}{
		{"no addr", func(s *TCPLoadSpec) { s.Addr = "" }},
		{"zero rate", func(s *TCPLoadSpec) { s.TotalRate = 0 }},
		{"no conns", func(s *TCPLoadSpec) { s.Conns = 0 }},
		{"zero duration", func(s *TCPLoadSpec) { s.DurationNs = 0 }},
		{"bad bounds", func(s *TCPLoadSpec) { s.HistHi = s.HistLo }},
		{"one bin", func(s *TCPLoadSpec) { s.HistBins = 1 }},
	}
	for _, tc := range cases {
		s := valid
		tc.mutate(&s)
		if _, err := s.Cell("x"); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

func TestTCPLoadRunnerRejectsForeignCells(t *testing.T) {
	r := &TCPLoadRunner{}
	if _, err := r.RunCell(context.Background(), wire.Cell{Kind: "study"}, nil); err == nil {
		t.Fatal("foreign kind accepted")
	}
	if _, err := r.RunCell(context.Background(), wire.Cell{Kind: TCPLoadKind, Payload: json.RawMessage(`{"addr`)}, nil); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

func TestRunnerMuxDispatch(t *testing.T) {
	mux := RunnerMux{
		"a": CellRunnerFunc(func(ctx context.Context, cell wire.Cell, p ProgressFunc) (wire.CellDone, error) {
			return wire.CellDone{Payload: json.RawMessage(`"ran-a"`)}, nil
		}),
	}
	res, err := mux.RunCell(context.Background(), wire.Cell{Kind: "a"}, nil)
	if err != nil || string(res.Payload) != `"ran-a"` {
		t.Fatalf("dispatch to known kind: %v %s", err, res.Payload)
	}
	if _, err := mux.RunCell(context.Background(), wire.Cell{Kind: "b"}, nil); err == nil || !strings.Contains(err.Error(), "no runner") {
		t.Fatalf("unknown kind: %v", err)
	}
}

// TestBroadcastLoadRunnerShardError: a shard failing for a reason other
// than agent loss must poison the run (RunBroadcast fails the campaign on
// runner errors even under the degrade policy — degrade covers losses,
// not load failures), not silently shrink the fleet.
func TestBroadcastLoadRunnerShardError(t *testing.T) {
	runners := []CellRunner{&TCPLoadRunner{}, &TCPLoadRunner{}}
	lb, err := NewLoopback(Config{Loss: LossDegrade}, runners)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	// Nothing listens on this address: both shards fail to dial.
	r := &BroadcastLoadRunner{Co: lb.Coord, Spec: TCPLoadSpec{
		Addr: "127.0.0.1:1", TotalRate: 100, Conns: 1,
		DurationNs: int64(100 * time.Millisecond), Workload: tinyWorkload(),
		HistLo: 1e-6, HistHi: 10, HistBins: 64,
	}}
	if _, err := r.RunOnceSnapshots(context.Background(), 0, 1); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("want shard failure, got %v", err)
	}
}

// Compile-time check that the fleet runner satisfies the engine's seam.
var _ core.SnapshotRunner = (*BroadcastLoadRunner)(nil)
