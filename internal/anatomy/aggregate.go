package anatomy

import (
	"fmt"
	"math"
	"sync"

	"treadmill/internal/hist"
)

// Config sizes an Aggregator and sets its cut quantiles.
type Config struct {
	// Lo / Hi / Bins define the log-spaced total-latency binning. Memory is
	// O(Bins × NumPhases) regardless of request count.
	Lo, Hi float64
	Bins   int
	// BodyQ / TailQ are the conditioning quantiles: body requests have
	// total latency ≤ the BodyQ quantile, tail requests ≥ the TailQ one.
	BodyQ, TailQ float64
	// MinRequests is the sample count below which the TailQ quantile is
	// statistically undefined and the breakdown is marked low-confidence
	// (100 requests put exactly one expected sample beyond P99).
	MinRequests uint64
	// Source tags where the phase spans came from: SourceSim for
	// simulator-stamped vectors, SourceLive for spans derived from a real
	// server's timestamps and runtime signals. It flows into every
	// Breakdown and journal AnatomyRecord so downstream tooling can
	// distinguish derived from simulated spans.
	Source string
}

// Anatomy span provenance values for Config.Source / AnatomyRecord.Source.
const (
	SourceSim  = "sim"
	SourceLive = "live"
)

// DefaultConfig covers 100ns–100s in 512 bins (~4% bin width) with the
// paper's body/tail split (P50 vs P99). Source defaults to SourceSim, the
// historical meaning of an untagged breakdown.
func DefaultConfig() Config {
	return Config{Lo: 1e-7, Hi: 100, Bins: 512, BodyQ: 0.5, TailQ: 0.99, MinRequests: 100, Source: SourceSim}
}

func (c Config) validate() error {
	if !(c.Lo > 0) || c.Hi <= c.Lo || c.Bins < 2 {
		return fmt.Errorf("anatomy: invalid bin geometry [%g,%g) x %d", c.Lo, c.Hi, c.Bins)
	}
	if !(c.BodyQ > 0 && c.BodyQ < c.TailQ && c.TailQ < 1) {
		return fmt.Errorf("anatomy: need 0 < BodyQ (%g) < TailQ (%g) < 1", c.BodyQ, c.TailQ)
	}
	return nil
}

// Aggregator streams (total latency, phase vector) observations into
// per-latency-bin phase sums, so tail-vs-body conditional breakdowns can be
// extracted afterwards without retaining per-request data. Quantile
// thresholds come from the same internal/hist snapshot machinery the
// telemetry recorders use.
//
// All methods are safe for concurrent use (the TCP path records from
// per-connection reader goroutines).
type Aggregator struct {
	mu  sync.Mutex
	cfg Config // immutable after NewAggregator

	logLo, logWidth float64
	tally

	live *Live
}

// tally is everything Record accumulates, and so everything Merge folds.
type tally struct {
	counts []uint64
	sums   []Vec // per-bin phase sums, parallel to counts

	under, over         uint64
	underMax, overMax   float64
	underSums, overSums Vec

	n        uint64
	invalid  uint64
	sumTotal float64
	min, max float64
	overall  Vec
}

// AttachLive mirrors every valid Record into per-phase telemetry
// recorders, so live /metrics expose phase-span distributions while the
// aggregator accumulates. A nil Live detaches.
func (a *Aggregator) AttachLive(l *Live) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.live = l
	a.mu.Unlock()
}

// NewAggregator returns an empty Aggregator. The zero Config is invalid;
// start from DefaultConfig.
func NewAggregator(cfg Config) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MinRequests == 0 {
		cfg.MinRequests = DefaultConfig().MinRequests
	}
	a := &Aggregator{cfg: cfg, tally: tally{
		counts: make([]uint64, cfg.Bins),
		sums:   make([]Vec, cfg.Bins),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}}
	a.logLo = math.Log(cfg.Lo)
	a.logWidth = (math.Log(cfg.Hi) - a.logLo) / float64(cfg.Bins)
	return a, nil
}

// binIndex returns the bucket for total, or -1 / Bins for under/overflow.
func (a *Aggregator) binIndex(total float64) int {
	if total < a.cfg.Lo {
		return -1
	}
	if total >= a.cfg.Hi {
		return a.cfg.Bins
	}
	idx := int((math.Log(total) - a.logLo) / a.logWidth)
	if idx < 0 {
		idx = 0
	}
	if idx >= a.cfg.Bins {
		idx = a.cfg.Bins - 1
	}
	return idx
}

// Record folds one request's total latency and phase vector in. Requests
// with non-positive, NaN, or infinite totals are counted as invalid and
// dropped (a measured latency can never be ≤ 0, so a nonzero invalid count
// flags an instrumentation bug upstream).
func (a *Aggregator) Record(total float64, v Vec) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		a.invalid++
		return
	}
	a.live.Observe(v)
	a.n++
	a.sumTotal += total
	a.min = math.Min(a.min, total)
	a.max = math.Max(a.max, total)
	for i := range v {
		a.overall[i] += v[i]
	}
	switch idx := a.binIndex(total); {
	case idx < 0:
		a.under++
		a.underMax = math.Max(a.underMax, total)
		for i := range v {
			a.underSums[i] += v[i]
		}
	case idx >= a.cfg.Bins:
		a.over++
		a.overMax = math.Max(a.overMax, total)
		for i := range v {
			a.overSums[i] += v[i]
		}
	default:
		a.counts[idx]++
		for i := range v {
			a.sums[idx][i] += v[i]
		}
	}
}

// Count returns the number of valid requests recorded.
func (a *Aggregator) Count() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Invalid returns the number of rejected observations.
func (a *Aggregator) Invalid() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.invalid
}

// Merge folds other's observations into a: the state a holds afterwards is
// what recording other's observations after a's own would have produced,
// except that floating-point sums are associated per aggregator first. Both
// aggregators must share bin geometry (merging the experiments of one
// factorial cell, or the runs of one measurement); merging an aggregator
// into itself is an error.
//
// Merge never holds both locks at once — it copies other's state out under
// other's lock, releases it, then folds the copy in under a's — so
// a.Merge(b) racing b.Merge(a) cannot deadlock.
func (a *Aggregator) Merge(other *Aggregator) error {
	if other == nil {
		return nil
	}
	if other == a {
		return fmt.Errorf("anatomy: cannot merge an aggregator into itself")
	}
	if a.cfg.Lo != other.cfg.Lo || a.cfg.Hi != other.cfg.Hi || a.cfg.Bins != other.cfg.Bins {
		return fmt.Errorf("anatomy: merge geometry mismatch ([%g,%g)x%d vs [%g,%g)x%d)",
			a.cfg.Lo, a.cfg.Hi, a.cfg.Bins, other.cfg.Lo, other.cfg.Hi, other.cfg.Bins)
	}
	other.mu.Lock()
	o := other.tally
	o.counts = append([]uint64(nil), o.counts...)
	o.sums = append([]Vec(nil), o.sums...)
	other.mu.Unlock()

	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.counts {
		a.counts[i] += o.counts[i]
		for p := range a.sums[i] {
			a.sums[i][p] += o.sums[i][p]
		}
	}
	a.under += o.under
	a.over += o.over
	a.underMax = math.Max(a.underMax, o.underMax)
	a.overMax = math.Max(a.overMax, o.overMax)
	for p := range a.underSums {
		a.underSums[p] += o.underSums[p]
		a.overSums[p] += o.overSums[p]
	}
	a.n += o.n
	a.invalid += o.invalid
	a.sumTotal += o.sumTotal
	a.min = math.Min(a.min, o.min)
	a.max = math.Max(a.max, o.max)
	for p := range a.overall {
		a.overall[p] += o.overall[p]
	}
	return nil
}

// Cut is one conditional slice of the request population with its
// per-phase mean decomposition.
type Cut struct {
	// Name labels the cut ("overall", "body", "tail").
	Name string
	// Count is the number of requests in the cut.
	Count uint64
	// MeanTotal is the mean total latency of the cut's requests (seconds).
	MeanTotal float64
	// Mean is the per-phase conditional mean (seconds), indexed by Phase.
	Mean Vec
}

// Breakdown is a finalized tail-vs-body anatomy: where body requests spend
// their time versus where tail requests spend theirs.
type Breakdown struct {
	// Source tags span provenance (SourceSim or SourceLive), copied from
	// the aggregator's Config.
	Source string
	// Requests / Invalid count valid and rejected observations.
	Requests uint64
	Invalid  uint64
	// BodyQ/TailQ echo the conditioning quantiles; P50/P99 are their
	// estimated latency thresholds (hist-snapshot quantiles).
	BodyQ, TailQ float64
	P50, P99     float64
	// Overall is the unconditional decomposition (exact means); Body and
	// Tail condition on total ≤ P50 and ≥ P99 respectively, resolved to
	// histogram-bin granularity.
	Overall, Body, Tail Cut
	// LowConfidence marks breakdowns whose tail cut is statistically
	// undefined (too few requests) or unresolvable (body and tail
	// thresholds land in the same latency bin, e.g. all-equal latencies).
	LowConfidence bool
	// Reason explains LowConfidence when set.
	Reason string
}

// TailExcess returns the per-phase difference between tail and body
// conditional means — which mechanisms the slowest requests pay for that
// typical requests do not.
func (b *Breakdown) TailExcess() Vec { return b.Tail.Mean.Minus(b.Body.Mean) }

// Finalize computes the breakdown from everything recorded so far. It does
// not consume the aggregator: more observations can be recorded and
// Finalize called again.
func (a *Aggregator) Finalize() *Breakdown {
	if a == nil {
		return &Breakdown{LowConfidence: true, Reason: "no aggregator"}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := &Breakdown{
		Source:   a.cfg.Source,
		Requests: a.n,
		Invalid:  a.invalid,
		BodyQ:    a.cfg.BodyQ,
		TailQ:    a.cfg.TailQ,
	}
	b.Overall.Name, b.Body.Name, b.Tail.Name = "overall", "body", "tail"
	if a.n == 0 {
		b.LowConfidence = true
		b.Reason = "no requests recorded"
		return b
	}
	b.Overall = cutFrom("overall", a.n, a.sumTotal, a.overall)

	// Quantile thresholds via the shared hist-snapshot machinery.
	snap := &hist.Snapshot{
		Lo: a.cfg.Lo, Hi: a.cfg.Hi,
		Counts:       append([]uint64(nil), a.counts...),
		Underflow:    a.under,
		Overflow:     a.over,
		UnderflowMax: a.underMax,
		OverflowMax:  a.overMax,
		Sum:          a.sumTotal,
		Min:          a.min,
		Max:          a.max,
	}
	h, err := hist.FromSnapshot(snap, hist.Config{
		CalibrationSamples: 1, Bins: a.cfg.Bins, OverflowRebinFraction: 0.001,
	})
	if err != nil {
		b.LowConfidence = true
		b.Reason = fmt.Sprintf("quantile estimation failed: %v", err)
		return b
	}
	b.P50, _ = h.Quantile(a.cfg.BodyQ)
	b.P99, _ = h.Quantile(a.cfg.TailQ)

	// Resolve the cuts to bin granularity: the body cut is every bin up to
	// and including the one containing the BodyQ threshold (plus
	// underflow), the tail cut every bin from the TailQ threshold's bin on
	// (plus overflow). Each cut is therefore exact to within one bin width.
	iBody := a.binIndex(b.P50)
	iTail := a.binIndex(b.P99)
	var body, tail Cut
	body.Name, tail.Name = "body", "tail"
	body.Count = a.under
	bodySum := a.underSums
	bodyTotal := float64(a.under) * a.underMax // approximation; underflow is pathological anyway
	for i := 0; i <= iBody && i < a.cfg.Bins; i++ {
		body.Count += a.counts[i]
		for p := range bodySum {
			bodySum[p] += a.sums[i][p]
		}
		bodyTotal += float64(a.counts[i]) * a.binMid(i)
	}
	tail.Count = a.over
	tailSum := a.overSums
	tailTotal := float64(a.over) * a.overMax
	for i := iTail; i < a.cfg.Bins; i++ {
		if i < 0 {
			continue
		}
		tail.Count += a.counts[i]
		for p := range tailSum {
			tailSum[p] += a.sums[i][p]
		}
		tailTotal += float64(a.counts[i]) * a.binMid(i)
	}
	b.Body = cutFrom("body", body.Count, bodyTotal, bodySum)
	b.Tail = cutFrom("tail", tail.Count, tailTotal, tailSum)

	switch {
	case a.n < a.cfg.MinRequests:
		b.LowConfidence = true
		b.Reason = fmt.Sprintf("%d requests < %d: P%g threshold undefined", a.n, a.cfg.MinRequests, a.cfg.TailQ*100)
	case iTail <= iBody:
		b.LowConfidence = true
		b.Reason = "body and tail thresholds fall in the same latency bin; cuts overlap"
	case body.Count == 0 || tail.Count == 0:
		b.LowConfidence = true
		b.Reason = "empty body or tail cut"
	}
	return b
}

// binMid returns the log-space midpoint latency of bin i.
func (a *Aggregator) binMid(i int) float64 {
	return math.Exp(a.logLo + (float64(i)+0.5)*a.logWidth)
}

func cutFrom(name string, count uint64, totalSum float64, phaseSum Vec) Cut {
	c := Cut{Name: name, Count: count}
	if count == 0 {
		return c
	}
	inv := 1 / float64(count)
	c.MeanTotal = totalSum * inv
	c.Mean = phaseSum.scale(inv)
	return c
}
