package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/client"
	"treadmill/internal/loadgen"
	"treadmill/internal/rtprobe"
	"treadmill/internal/server"
	"treadmill/internal/telemetry"
	"treadmill/internal/workload"
)

// LiveKnobs are the real runtime/deployment knobs a live factorial can
// turn — the live-mode analogue of the simulator's ClusterConfig. GOMAXPROCS
// and GOGC are process-wide Go runtime settings; Conns and ValueSize shape
// the offered load.
type LiveKnobs struct {
	GOMAXPROCS int
	GOGC       int
	Conns      int
	ValueSize  int
	// SrvBatch is the server's response flush-coalescing delay
	// (server.Config.FlushDelay): 0 flushes eagerly, > 0 holds idle
	// connections briefly hoping to batch responses. The cost lands in the
	// server's write span, so live quantreg prices the batching trade.
	SrvBatch time.Duration
}

// DefaultLiveKnobs returns the baseline configuration factors mutate.
func DefaultLiveKnobs() LiveKnobs {
	return LiveKnobs{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       100,
		Conns:      2,
		ValueSize:  64,
	}
}

// LiveFactor is one 2-level factor of a live factorial: the same shape as
// Factor, but Apply mutates LiveKnobs instead of a simulated cluster.
type LiveFactor struct {
	Name      string
	Low, High string
	Apply     func(k *LiveKnobs, level int)
}

// LiveFactors returns the default live factorial: the two Go runtime knobs
// that move GC and scheduling mechanisms (GOMAXPROCS, GOGC) crossed with two
// load-shape knobs (connection count, value size) and one server deployment
// knob (response flush batching). GOGC's high level is the aggressive
// setting (GC runs 16x as often as the relaxed low level), so a positive
// high-level coefficient reads "more GC hurts".
func LiveFactors() []LiveFactor {
	procs := runtime.NumCPU()
	if procs < 2 {
		procs = 2
	}
	return []LiveFactor{
		{
			Name: "gomaxprocs", Low: "1", High: fmt.Sprint(procs),
			Apply: func(k *LiveKnobs, level int) {
				if level == 0 {
					k.GOMAXPROCS = 1
				} else {
					k.GOMAXPROCS = procs
				}
			},
		},
		{
			Name: "gogc", Low: "400", High: "25",
			Apply: func(k *LiveKnobs, level int) {
				if level == 0 {
					k.GOGC = 400
				} else {
					k.GOGC = 25
				}
			},
		},
		{
			Name: "conns", Low: "1", High: "8",
			Apply: func(k *LiveKnobs, level int) {
				if level == 0 {
					k.Conns = 1
				} else {
					k.Conns = 8
				}
			},
		},
		{
			Name: "valuesize", Low: "64B", High: "4KiB",
			Apply: func(k *LiveKnobs, level int) {
				if level == 0 {
					k.ValueSize = 64
				} else {
					k.ValueSize = 4096
				}
			},
		},
		{
			Name: "srvbatch", Low: "off", High: "200µs",
			Apply: func(k *LiveKnobs, level int) {
				if level == 0 {
					k.SrvBatch = 0
				} else {
					k.SrvBatch = 200 * time.Microsecond
				}
			},
		},
	}
}

// LiveStudy runs a factorial attribution campaign against a real in-process
// memcached server over loopback TCP, with server-timing trailers and the
// rtprobe runtime sampler supplying the live anatomy ledger. It produces the
// same Result type as the simulated Study, so quantile-regression fitting,
// marginal-impact tables, and anatomy rendering are shared.
//
// Unlike the simulated Study, experiments run strictly sequentially:
// GOMAXPROCS and GOGC are process-wide, so concurrent cells would contaminate
// each other — the live campaign trades wall-clock for isolation.
type LiveStudy struct {
	// Factors are the live factors (default: LiveFactors).
	Factors []LiveFactor
	// TotalRate is the offered open-loop load, split over the connections.
	TotalRate float64
	// Duration / Warmup are wall-clock per experiment; warmup completions
	// are excluded from the quantile samples.
	Duration, Warmup time.Duration
	// Replicates is the number of experiments per permutation.
	Replicates int
	// Quantiles to extract per experiment.
	Quantiles []float64
	// Keys is the preloaded key-space size (default 256).
	Keys int
	// Seed drives schedule randomization and per-run workload seeds.
	Seed uint64
	// Progress, when non-nil, receives (done, total) after each experiment.
	Progress func(done, total int)
	// Telemetry, when non-nil, receives campaign gauges plus the rtprobe_*
	// runtime gauges and client/server metrics.
	Telemetry *telemetry.Registry
	// CollectAnatomy accumulates per-cell live anatomy breakdowns
	// (Result.Anatomy), tagged anatomy.SourceLive.
	CollectAnatomy bool
	// Journal, when non-nil (and CollectAnatomy set), receives one
	// "anatomy" event per factorial cell after the campaign.
	Journal *telemetry.Journal
}

func (s *LiveStudy) validate() error {
	if s.TotalRate <= 0 || s.Duration <= 0 || s.Warmup < 0 {
		return fmt.Errorf("runner: need positive rate/duration")
	}
	return s.campaign().validate()
}

// campaign maps the live study onto the shared campaign engine, pinned to
// one worker: GOMAXPROCS and GOGC are process-wide, so concurrent cells
// would contaminate each other.
func (s *LiveStudy) campaign() *campaign {
	c := &campaign{
		replicates: s.Replicates,
		quantiles:  s.Quantiles,
		seed:       s.Seed,
		workers:    1,
		journal:    s.Journal,
		progress:   s.Progress,
		telemetry:  s.Telemetry,
	}
	for _, f := range s.Factors {
		c.factors = append(c.factors, f.Name)
	}
	if s.CollectAnatomy {
		c.anatomySource = anatomy.SourceLive
	}
	return c
}

// Run executes the live campaign. Each experiment gets a fresh server (the
// paper's restart-between-runs hysteresis control), fresh connections, and
// its own preloaded store; the Go runtime knobs are set before the server
// starts and restored when the campaign ends.
func (s *LiveStudy) Run(ctx context.Context) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	probe := rtprobe.NewSampler(rtprobe.Config{Registry: s.Telemetry})
	probe.Start()
	defer probe.Stop()

	// Capture the ambient runtime knobs so the process leaves the campaign
	// the way it entered. SetGCPercent has no getter; set-and-restore reads
	// the current value.
	origProcs := runtime.GOMAXPROCS(0)
	origGC := debug.SetGCPercent(100)
	debug.SetGCPercent(origGC)
	defer func() {
		runtime.GOMAXPROCS(origProcs)
		debug.SetGCPercent(origGC)
	}()

	// The cell's pprof label is inherited by the server goroutines and
	// load-generator connections it spawns, so a live campaign's CPU
	// profile splits by factorial cell.
	return s.campaign().run(ctx, func(ctx context.Context, _ int, levels []int, seed uint64, record func(float64, anatomy.Vec)) (Sample, error) {
		lats, err := s.runCell(ctx, levels, probe, record, seed)
		if err != nil {
			return Sample{}, err
		}
		return newSample(levels, s.Quantiles, sortedSources([][]float64{lats}))
	})
}

// runCell performs one live experiment: apply the runtime knobs, boot a
// fresh server with the probe attached, preload, drive timed open-loop load
// over loopback, and return the post-warmup completion latencies. record,
// when non-nil, receives the live anatomy decomposition of every request
// that completes after warmup — the same requests the latencies cover.
func (s *LiveStudy) runCell(ctx context.Context, levels []int, probe *rtprobe.Sampler, record func(float64, anatomy.Vec), seed uint64) ([]float64, error) {
	knobs := DefaultLiveKnobs()
	for i, f := range s.Factors {
		f.Apply(&knobs, levels[i])
	}
	runtime.GOMAXPROCS(knobs.GOMAXPROCS)
	debug.SetGCPercent(knobs.GOGC)

	scfg := server.DefaultConfig()
	scfg.Telemetry = s.Telemetry
	scfg.Probe = probe
	scfg.FlushDelay = knobs.SrvBatch
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()

	keys := s.Keys
	if keys <= 0 {
		keys = 256
	}
	wl := workload.Default()
	wl.Keys = keys
	wl.ValueSize = workload.SizeDist{Kind: "constant", Value: float64(knobs.ValueSize)}
	if err := loadgen.Preload(srv.Addr(), wl, seed); err != nil {
		return nil, err
	}

	// One generator covers warmup and measurement so connections stay warm;
	// completions before the measurement gate opens are discarded.
	var measureFrom atomic.Int64
	measureFrom.Store(1 << 62)
	var mu sync.Mutex
	var lats []float64
	// finished (under mu) is set as the cell returns: a response still in
	// flight when the generator stops must not reach record while the
	// campaign is already reading the cell's outcome.
	var finished bool
	defer func() {
		mu.Lock()
		finished = true
		mu.Unlock()
	}()
	// Completions arrive on per-connection reader goroutines; the engine's
	// record is single-threaded, so it shares the latency slice's lock.
	var onVec func(telemetry.Trace, float64, anatomy.Vec)
	if record != nil {
		onVec = func(rec telemetry.Trace, total float64, v anatomy.Vec) {
			if rec.CompleteNs < measureFrom.Load() {
				return
			}
			mu.Lock()
			if !finished {
				record(total, v)
			}
			mu.Unlock()
		}
	}
	gen, err := loadgen.NewOpenLoop(srv.Addr(), loadgen.Options{
		Rate:         s.TotalRate,
		Conns:        knobs.Conns,
		Workload:     wl,
		Seed:         seed,
		Telemetry:    s.Telemetry,
		OnVec:        onVec,
		ServerTiming: true,
		OnResult: func(r *client.Result) {
			if r.Err != nil || r.Done.UnixNano() < measureFrom.Load() {
				return
			}
			lat := r.RTT().Seconds()
			mu.Lock()
			lats = append(lats, lat)
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer gen.Close()

	measureFrom.Store(time.Now().Add(s.Warmup).UnixNano())
	if _, err := gen.Run(ctx, s.Warmup+s.Duration); err != nil {
		return nil, err
	}

	mu.Lock()
	defer mu.Unlock()
	if len(lats) == 0 {
		return nil, fmt.Errorf("no measured completions")
	}
	return lats, nil
}
