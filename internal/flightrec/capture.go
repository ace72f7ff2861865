package flightrec

import (
	"bytes"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/anatomy"
	"treadmill/internal/hist"
	"treadmill/internal/rtprobe"
)

// CaptureSpec configures agent-side flight recording for one cell. It is
// wire-portable (the coordinator ships it inside the cell dispatch) so
// the whole fleet records with one policy.
type CaptureSpec struct {
	// SampleEvery records every Nth completed request as a timeline span
	// (1 = every request, 0 = default 16). Independent of the forensic
	// ring, which always sees every request.
	SampleEvery int `json:"sample_every,omitempty"`
	// MaxSpans bounds sampled spans per cell run (0 = default 512).
	// Overflow increments CellFlight.DroppedSpans rather than dropping
	// silently.
	MaxSpans int `json:"max_spans,omitempty"`
	// Ring is the always-on recent-request ring size (0 = default 64).
	Ring int `json:"ring,omitempty"`
	// AbsThresholdSec triggers a forensic bundle when a request's latency
	// exceeds it. 0 disables the absolute rule.
	AbsThresholdSec float64 `json:"abs_threshold_sec,omitempty"`
	// Quantile (e.g. 0.999) derives the threshold online from the cell's
	// own latency distribution: once MinCount requests have been
	// observed, any request above the running Quantile estimate
	// triggers. 0 disables the quantile rule.
	Quantile float64 `json:"quantile,omitempty"`
	// MinCount arms the quantile rule (0 = default 200) — triggering off
	// a handful of samples would just capture startup noise.
	MinCount int `json:"min_count,omitempty"`
	// HistLo/HistHi bound the online-quantile histogram in seconds
	// (0 = defaults 1µs..10s, matching TCPLoadSpec's defaults).
	HistLo float64 `json:"hist_lo,omitempty"`
	HistHi float64 `json:"hist_hi,omitempty"`
	// MaxBundles caps forensic bundles per cell run (0 = default 4): the
	// point is evidence around a few exemplar tails, not a second
	// journal. Overflow counts in CellFlight.DroppedBundles.
	MaxBundles int `json:"max_bundles,omitempty"`
	// WindowMs is the surrounding rtprobe window radius around the
	// offending request (0 = default 50ms).
	WindowMs int `json:"window_ms,omitempty"`
	// CPUProfileMs is the best-effort CPU profile slice captured after a
	// trigger (0 = default 20ms; <0 disables). The slice is reactive —
	// it shows what the process was doing just after the tail event,
	// which for sustained interference (GC, antagonists) is usually the
	// same thing it was doing during it.
	CPUProfileMs int `json:"cpu_profile_ms,omitempty"`
}

func (s CaptureSpec) sampleEvery() int { return defInt(s.SampleEvery, 16) }
func (s CaptureSpec) maxSpans() int    { return defInt(s.MaxSpans, 512) }
func (s CaptureSpec) ring() int        { return defInt(s.Ring, 64) }
func (s CaptureSpec) minCount() int    { return defInt(s.MinCount, 200) }
func (s CaptureSpec) maxBundles() int  { return defInt(s.MaxBundles, 4) }
func (s CaptureSpec) windowNs() int64  { return int64(defInt(s.WindowMs, 50)) * 1e6 }
func (s CaptureSpec) histLo() float64 {
	if s.HistLo > 0 {
		return s.HistLo
	}
	return 1e-6
}
func (s CaptureSpec) histHi() float64 {
	if s.HistHi > s.histLo() {
		return s.HistHi
	}
	return 10
}

func defInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

// goroutineProfileCap bounds the goroutine-profile text kept per bundle.
const goroutineProfileCap = 64 << 10

// cpuProfileBusy serializes CPU profile slices process-wide:
// pprof.StartCPUProfile is exclusive, and a trigger that loses the race
// simply goes without a slice rather than erroring the run.
var cpuProfileBusy atomic.Bool

// Capture is the agent-side flight recorder for one cell run: an
// always-on ring of recent requests, 1-in-N span sampling, and the
// tail-threshold forensic trigger. A nil *Capture is a disabled no-op.
// Observe is safe for concurrent use (load generators complete requests
// on many connections).
type Capture struct {
	spec  CaptureSpec
	probe *rtprobe.Sampler // may be nil: GC/sched window attribution skipped

	mu       sync.Mutex
	observed uint64
	ring     []ReqSpan // circular, len == spec.ring() once warm
	ringPos  int
	spans    []ReqSpan
	dropped  uint64
	hist     *hist.Histogram
	bundles  []Forensic
	bundDrop uint64

	profiles sync.WaitGroup // in-flight background CPU slices
}

// NewCapture builds a capture for one cell run. probe, when non-nil,
// supplies the GC/sched window attribution for forensic bundles.
func NewCapture(spec CaptureSpec, probe *rtprobe.Sampler) *Capture {
	c := &Capture{spec: spec, probe: probe}
	if spec.Quantile > 0 {
		// Log-spaced bins (0.8 % wide over 1 µs..10 s): linear ones would be
		// 4.9 ms wide and put a whole sub-millisecond tail in the first
		// bin, where nothing ever exceeds the estimate. NewWithBounds only
		// rejects bounds the spec accessors already exclude.
		cfg := hist.DefaultConfig()
		cfg.Bins = 2048
		c.hist, _ = hist.NewWithBounds(cfg, spec.histLo(), spec.histHi())
	}
	return c
}

// Observe feeds one completed request into the recorder: ring insert,
// span sampling, online-quantile update, and the forensic trigger check.
// startNs/endNs are agent-clock UnixNano; total and vec are the measured
// latency and its anatomy decomposition (vec zero when anatomy is off).
func (c *Capture) Observe(op string, startNs, endNs int64, total float64, vec anatomy.Vec) {
	if c == nil {
		return
	}
	q := reqSpan(0, op, startNs, endNs, total, vec)

	c.mu.Lock()
	c.observed++
	q.Seq = c.observed

	// Threshold check and bundle assembly happen BEFORE the offender
	// enters the ring (so Neighbors are strictly the requests around it)
	// and BEFORE it enters the histogram (so it cannot raise the very
	// estimate it is tested against).
	triggeredIdx := -1
	if trigger, threshold := c.triggeredLocked(total); trigger != "" {
		if len(c.bundles) >= c.spec.maxBundles() {
			c.bundDrop++
		} else {
			triggeredIdx = len(c.bundles)
			c.bundles = append(c.bundles, c.buildBundleLocked(trigger, threshold, q))
		}
	}

	if n := c.spec.ring(); n > 0 {
		if len(c.ring) < n {
			c.ring = append(c.ring, q)
		} else {
			c.ring[c.ringPos] = q
			c.ringPos = (c.ringPos + 1) % n
		}
	}
	if c.hist != nil {
		_ = c.hist.Record(total) // rejects only a non-positive latency
	}
	if every := uint64(c.spec.sampleEvery()); c.observed%every == 1 || every == 1 {
		if len(c.spans) < c.spec.maxSpans() {
			c.spans = append(c.spans, q)
		} else {
			c.dropped++
		}
	}

	c.mu.Unlock()
	if triggeredIdx >= 0 {
		c.captureProfiles(triggeredIdx)
	}
}

// triggeredLocked evaluates the threshold rules against total, returning
// the rule that fired ("" for none) and its threshold value.
func (c *Capture) triggeredLocked(total float64) (string, float64) {
	if t := c.spec.AbsThresholdSec; t > 0 && total > t {
		return "abs", t
	}
	if c.hist != nil && c.hist.Count() >= uint64(c.spec.minCount()) {
		if est, err := c.hist.Quantile(c.spec.Quantile); err == nil && total > est {
			return "quantile", est
		}
	}
	return "", 0
}

// buildBundleLocked assembles the synchronous part of a forensic bundle:
// offender, ring neighbors (completion order), and the rtprobe GC/sched
// attribution for the request window and the wider surrounding window.
// Profile slices are attached asynchronously by captureProfiles.
func (c *Capture) buildBundleLocked(trigger string, threshold float64, offender ReqSpan) Forensic {
	f := Forensic{Trigger: trigger, ThresholdSec: threshold, Offender: offender}
	// Ring contents in completion order: oldest first from ringPos.
	for i := 0; i < len(c.ring); i++ {
		f.Neighbors = append(f.Neighbors, c.ring[(c.ringPos+i)%len(c.ring)])
	}
	if c.probe != nil {
		f.GCPauseSec, f.SchedWaitSec = c.probe.Attribute(offender.StartNs, offender.EndNs)
		w := c.spec.windowNs()
		f.WindowNs = w
		f.WindowGCSec, f.WindowSchedSec = c.probe.Attribute(offender.StartNs-w, offender.EndNs+w)
	}
	return f
}

// captureProfiles attaches the goroutine profile inline and kicks off the
// best-effort CPU slice in the background (Finish waits for it). idx is
// the bundle's index in c.bundles, stable because bundles only append.
func (c *Capture) captureProfiles(idx int) {
	var buf bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&buf, 1)
	}
	txt := buf.String()
	if len(txt) > goroutineProfileCap {
		txt = txt[:goroutineProfileCap] + "\n...[truncated]"
	}
	c.mu.Lock()
	c.bundles[idx].GoroutineProfile = txt
	c.mu.Unlock()

	ms := c.spec.CPUProfileMs
	if ms == 0 {
		ms = 20
	}
	if ms < 0 || !cpuProfileBusy.CompareAndSwap(false, true) {
		return
	}
	c.profiles.Add(1)
	go func() {
		defer c.profiles.Done()
		defer cpuProfileBusy.Store(false)
		var cpu bytes.Buffer
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return
		}
		start := time.Now()
		time.Sleep(time.Duration(ms) * time.Millisecond)
		pprof.StopCPUProfile()
		c.mu.Lock()
		c.bundles[idx].CPUProfile = cpu.Bytes()
		c.bundles[idx].CPUProfileNs = time.Since(start).Nanoseconds()
		c.mu.Unlock()
	}()
}

// Finish waits for in-flight profile slices and returns the cell-run
// flight payload with the given run envelope. Returns nil on a nil
// capture or when nothing was observed.
func (c *Capture) Finish(startNs, endNs int64) *CellFlight {
	if c == nil {
		return nil
	}
	c.profiles.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.observed == 0 {
		return nil
	}
	return &CellFlight{
		StartNs: startNs, EndNs: endNs,
		Requests:       append([]ReqSpan(nil), c.spans...),
		Forensics:      append([]Forensic(nil), c.bundles...),
		Observed:       c.observed,
		DroppedSpans:   c.dropped,
		DroppedBundles: c.bundDrop,
	}
}
