// Package workload turns a JSON workload description into a request
// generator, implementing the paper's "configurable workload" requirement
// (§III-A): GET/SET mix, key-space size and popularity skew, and value-size
// distribution all shape system performance (Atikoglu et al.), so the load
// tester must be able to reproduce them.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"treadmill/internal/dist"
	"treadmill/internal/protocol"
)

// SizeDist describes a distribution in JSON.
type SizeDist struct {
	// Kind is one of "constant", "uniform", "lognormal", "pareto".
	Kind string `json:"kind"`
	// Value is used by constant.
	Value float64 `json:"value,omitempty"`
	// Lo/Hi are used by uniform.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Mean/CV2 are used by lognormal (mean and squared coefficient of
	// variation).
	Mean float64 `json:"mean,omitempty"`
	CV2  float64 `json:"cv2,omitempty"`
	// Xm/Alpha are used by pareto.
	Xm    float64 `json:"xm,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
}

// bad formats a uniform Build error that always names the distribution
// kind, the offending field, and its value, so a rejected JSON workload
// points straight at the line to fix.
func (s SizeDist) bad(field string, v float64, want string) error {
	return fmt.Errorf("workload: %s %s %g invalid: want %s", s.Kind, field, v, want)
}

// Build converts the JSON form into a Sampler. Comparisons are written in
// the negated form (!(x > 0) rather than x <= 0) so NaN parameters — which
// fail every ordering — are rejected instead of slipping through.
func (s SizeDist) Build() (dist.Sampler, error) {
	switch s.Kind {
	case "constant":
		if !(s.Value > 0) {
			return nil, s.bad("value", s.Value, "> 0")
		}
		return dist.Constant{V: s.Value}, nil
	case "uniform":
		if !(s.Lo >= 0) {
			return nil, s.bad("lo", s.Lo, ">= 0")
		}
		if !(s.Hi > s.Lo) {
			return nil, s.bad("hi", s.Hi, "> lo")
		}
		return dist.Uniform{Lo: s.Lo, Hi: s.Hi}, nil
	case "lognormal":
		if !(s.Mean > 0) {
			return nil, s.bad("mean", s.Mean, "> 0")
		}
		if !(s.CV2 >= 0) {
			return nil, s.bad("cv2", s.CV2, ">= 0")
		}
		return dist.LognormalFromMoments(s.Mean, s.CV2), nil
	case "pareto":
		if !(s.Xm > 0) {
			return nil, s.bad("xm", s.Xm, "> 0")
		}
		if !(s.Alpha > 0) {
			return nil, s.bad("alpha", s.Alpha, "> 0")
		}
		return dist.Pareto{Xm: s.Xm, Alpha: s.Alpha}, nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution kind %q", s.Kind)
	}
}

// ArrivalSpec selects the open-loop inter-arrival process. The zero value
// (or kind "poisson") is the classic memoryless stream; "mmpp2" is a
// two-state Markov-modulated Poisson process whose long-run rate matches
// the requested load but arrives in bursts; "flash" is a flash-crowd step
// that multiplies the base rate for a window mid-run. All three plug into
// the same open-loop controller, so burstiness becomes a workload knob
// rather than a separate code path.
type ArrivalSpec struct {
	// Kind is "", "poisson", "mmpp2", or "flash".
	Kind string `json:"kind,omitempty"`
	// Burst is the mmpp2 burst-state rate multiplier (> 1).
	Burst float64 `json:"burst,omitempty"`
	// BurstFrac is the long-run fraction of time spent bursting (0,1).
	BurstFrac float64 `json:"burst_frac,omitempty"`
	// Cycle is the mean mmpp2 calm+burst cycle length in seconds.
	Cycle float64 `json:"cycle,omitempty"`
	// FlashAt / FlashDur bound the flash-crowd window in seconds from run
	// start; FlashMult is the rate multiplier inside it.
	FlashAt   float64 `json:"flash_at,omitempty"`
	FlashDur  float64 `json:"flash_dur,omitempty"`
	FlashMult float64 `json:"flash_mult,omitempty"`
}

// Poisson reports whether the spec is the default memoryless stream.
func (a ArrivalSpec) Poisson() bool {
	return a.Kind == "" || a.Kind == "poisson"
}

// Build returns the inter-arrival sampler for the given request rate.
// MMPP2 and FlashCrowd samplers are stateful: build one per generating
// loop, never share across goroutines.
func (a ArrivalSpec) Build(rate float64) (dist.Sampler, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("workload: arrival rate %g invalid: want finite and > 0", rate)
	}
	switch a.Kind {
	case "", "poisson":
		return dist.Exponential{Rate: rate}, nil
	case "mmpp2":
		return dist.NewMMPP2FromRate(rate, a.Burst, a.BurstFrac, a.Cycle)
	case "flash":
		return dist.NewFlashCrowd(rate, a.FlashMult, a.FlashAt, a.FlashDur)
	default:
		return nil, fmt.Errorf("workload: unknown arrival kind %q", a.Kind)
	}
}

// InferenceSpec turns the workload into 100% two-phase inference requests:
// every request is an `infer <in> <out>` op with token counts drawn from
// the given distributions (clamped to [1, protocol.MaxInferTokens]). The
// key-space fields of the enclosing Config are ignored.
type InferenceSpec struct {
	InTokens  SizeDist `json:"in_tokens"`
	OutTokens SizeDist `json:"out_tokens"`
}

// MaxMultiGet caps the multi-get fan-out width; wider requests stop
// resembling cache traffic and start stressing the parser instead. The
// protocol's line bound (protocol.MaxLineLen) is sized for it.
const MaxMultiGet = protocol.MaxGetKeys

// Config is the JSON workload description Treadmill consumes.
type Config struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// GetFraction is the share of requests that are GETs. Production
	// memcached pools are GET-dominated (~0.9+).
	GetFraction float64 `json:"get_fraction"`
	// DeleteFraction is the share of requests that are DELETEs
	// (invalidations). The remainder after GETs and DELETEs are SETs.
	DeleteFraction float64 `json:"delete_fraction,omitempty"`
	// Keys is the key-space size.
	Keys int `json:"keys"`
	// KeySkew is the Zipf exponent for key popularity (0 = uniform).
	KeySkew float64 `json:"key_skew"`
	// ValueSize describes SET value sizes in bytes.
	ValueSize SizeDist `json:"value_size"`
	// KeyPrefix namespaces keys so concurrent workloads don't collide.
	KeyPrefix string `json:"key_prefix,omitempty"`
	// MultiGet, when > 1, widens every GET into a multi-key get over that
	// many distinct ranks (the scatter-gather fan-out shape: one request,
	// N shard lookups, response gated on the slowest leg).
	MultiGet int `json:"multi_get,omitempty"`
	// Arrival selects the inter-arrival process for open-loop controllers
	// that honor it (zero value = Poisson).
	Arrival ArrivalSpec `json:"arrival,omitempty"`
	// Inference, when non-nil, replaces the GET/SET mix with two-phase
	// inference requests.
	Inference *InferenceSpec `json:"inference,omitempty"`
}

// LeanCompatible reports whether the workload can ride the zero-alloc
// NextLean encode path: plain single-key GET/SET/DELETE traffic. Multi-get
// and inference requests carry per-request structure Lean cannot express.
func (c Config) LeanCompatible() bool {
	return c.MultiGet <= 1 && c.Inference == nil
}

// Default returns the GET-dominated mixed workload used across the
// experiments: 90% GETs over a 100k-key space with production-like skew
// and ~1KB lognormal values.
func Default() Config {
	return Config{
		Name:        "memcached-mixed",
		GetFraction: 0.9,
		Keys:        100000,
		KeySkew:     0.99,
		ValueSize:   SizeDist{Kind: "lognormal", Mean: 1024, CV2: 1.0},
		KeyPrefix:   "tm",
	}
}

// Inference returns the LLM-style inference workload: every request is a
// two-phase `infer` op with lognormal token counts (mean 256-token prompts,
// mean 64-token completions), matching the simulator's
// sim.InferenceServerConfig so the same scenario runs in both planes.
func Inference() Config {
	return Config{
		Name:        "llm-inference",
		GetFraction: 1,
		Keys:        1,
		ValueSize:   SizeDist{Kind: "constant", Value: 64},
		KeyPrefix:   "inf",
		Inference: &InferenceSpec{
			InTokens:  SizeDist{Kind: "lognormal", Mean: 256, CV2: 0.5},
			OutTokens: SizeDist{Kind: "lognormal", Mean: 64, CV2: 0.3},
		},
	}
}

// FanoutMultiGet returns a scatter-gather workload: GET-only multi-gets of
// width k over a small hot key space with 128-byte values, the shape that
// makes the slowest-leg effect visible at modest rates.
func FanoutMultiGet(k int) Config {
	return Config{
		Name:        fmt.Sprintf("fanout-multiget-%d", k),
		GetFraction: 1,
		Keys:        1024,
		KeySkew:     0.99,
		ValueSize:   SizeDist{Kind: "constant", Value: 128},
		KeyPrefix:   "fan",
		MultiGet:    k,
	}
}

// Load reads a Config from a JSON file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("workload: read %s: %w", path, err)
	}
	return Parse(data)
}

// Parse decodes a Config from JSON bytes and validates it.
func Parse(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("workload: parse: %w", err)
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func (c Config) validate() error {
	if c.GetFraction < 0 || c.GetFraction > 1 {
		return fmt.Errorf("workload: get_fraction %g out of [0,1]", c.GetFraction)
	}
	if c.DeleteFraction < 0 || c.GetFraction+c.DeleteFraction > 1 {
		return fmt.Errorf("workload: get_fraction %g + delete_fraction %g exceeds 1",
			c.GetFraction, c.DeleteFraction)
	}
	if c.Keys < 1 {
		return fmt.Errorf("workload: keys %d must be >= 1", c.Keys)
	}
	if c.KeySkew < 0 {
		return fmt.Errorf("workload: key_skew %g must be >= 0", c.KeySkew)
	}
	// Every key is the prefix plus a rank, and the widest rank is the last:
	// if its key is valid, every key is. Keys reach the wire unchecked on
	// the lean send paths, so this is where a bad prefix is stopped.
	widest := &protocol.Request{Op: protocol.OpGet, Key: string(c.appendKey(nil, c.Keys-1))}
	if err := protocol.ValidateRequest(widest); err != nil {
		return fmt.Errorf("workload: key_prefix %q: %w", c.KeyPrefix, err)
	}
	if _, err := c.ValueSize.Build(); err != nil {
		return err
	}
	if c.MultiGet < 0 || c.MultiGet > MaxMultiGet {
		return fmt.Errorf("workload: multi_get %d out of [0,%d]", c.MultiGet, MaxMultiGet)
	}
	if c.MultiGet > c.Keys {
		return fmt.Errorf("workload: multi_get %d needs keys >= %d for distinct ranks, got %d",
			c.MultiGet, c.MultiGet, c.Keys)
	}
	// Arrival params are rate-independent; validate with a placeholder rate.
	if _, err := c.Arrival.Build(1); err != nil {
		return err
	}
	if c.Inference != nil {
		if _, err := c.Inference.InTokens.Build(); err != nil {
			return fmt.Errorf("workload: inference in_tokens: %w", err)
		}
		if _, err := c.Inference.OutTokens.Build(); err != nil {
			return fmt.Errorf("workload: inference out_tokens: %w", err)
		}
	}
	return nil
}

// Generator produces protocol requests following the configured mix. It is
// not safe for concurrent use; create one per goroutine with independent
// RNG streams.
type Generator struct {
	cfg    Config
	rng    *dist.RNG
	zipf   *dist.Zipf
	values dist.Sampler

	// inTok/outTok are non-nil iff cfg.Inference is set.
	inTok, outTok dist.Sampler
	// rankScratch backs multi-get distinct-rank draws between calls.
	rankScratch []int
}

// NewGenerator builds a Generator for cfg driven by rng.
func NewGenerator(cfg Config, rng *dist.RNG) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	z, err := dist.NewZipf(cfg.Keys, cfg.KeySkew)
	if err != nil {
		return nil, err
	}
	v, err := cfg.ValueSize.Build()
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rng, zipf: z, values: v}
	if cfg.Inference != nil {
		if g.inTok, err = cfg.Inference.InTokens.Build(); err != nil {
			return nil, err
		}
		if g.outTok, err = cfg.Inference.OutTokens.Build(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Key returns the key for a rank, stable across generators for the same
// config.
func (g *Generator) Key(rank int) string {
	var buf [64]byte
	return string(g.AppendKey(buf[:0], rank))
}

// tokenCount draws a token count from s clamped to the protocol's bounds.
func tokenCount(s dist.Sampler, rng *dist.RNG) int {
	n := int(s.Sample(rng) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > protocol.MaxInferTokens {
		n = protocol.MaxInferTokens
	}
	return n
}

// multiRanks draws k distinct key ranks (first one Zipf-popular, the rest
// rejection-sampled against duplicates) into the generator's scratch
// slice. k is capped well below Keys by validation, so the rejection loop
// terminates quickly.
func (g *Generator) multiRanks(first, k int) []int {
	if cap(g.rankScratch) < k {
		g.rankScratch = make([]int, 0, k)
	}
	ranks := g.rankScratch[:0]
	ranks = append(ranks, first)
draw:
	for len(ranks) < k {
		r := g.zipf.Rank(g.rng)
		for _, seen := range ranks {
			if r == seen {
				continue draw
			}
		}
		ranks = append(ranks, r)
	}
	g.rankScratch = ranks
	return ranks
}

// Next returns the next request in the workload's mix.
//
// The RNG draw order for plain workloads (no MultiGet, no Inference) is
// frozen — rank, then mix uniform, then value size — so adding scenario
// features never perturbs existing seeded request sequences.
func (g *Generator) Next() *protocol.Request {
	if g.inTok != nil {
		return &protocol.Request{
			Op:        protocol.OpInfer,
			InTokens:  tokenCount(g.inTok, g.rng),
			OutTokens: tokenCount(g.outTok, g.rng),
		}
	}
	rank := g.zipf.Rank(g.rng)
	key := g.Key(rank)
	u := g.rng.Float64()
	if u < g.cfg.GetFraction {
		if k := g.cfg.MultiGet; k > 1 {
			keys := make([]string, k)
			for i, r := range g.multiRanks(rank, k) {
				keys[i] = g.Key(r)
			}
			return &protocol.Request{Op: protocol.OpGet, Key: keys[0], Keys: keys}
		}
		return &protocol.Request{Op: protocol.OpGet, Key: key}
	}
	if u < g.cfg.GetFraction+g.cfg.DeleteFraction {
		return &protocol.Request{Op: protocol.OpDelete, Key: key}
	}
	n := int(g.values.Sample(g.rng))
	if n < 1 {
		n = 1
	}
	if n > protocol.MaxValueLen {
		n = protocol.MaxValueLen
	}
	value := make([]byte, n)
	for i := range value {
		value[i] = 'a' + byte((i+n)%26)
	}
	return &protocol.Request{Op: protocol.OpSet, Key: key, Value: value}
}

// Lean is an allocation-free request description: the operation plus the
// key rank and value length AppendLean needs to encode it directly onto
// the wire. Both open-loop send paths, the load plane and the classic
// client, use it on LeanCompatible workloads to avoid the per-request heap
// allocations Next incurs (key string, value slice, Request struct).
type Lean struct {
	Op       protocol.Op
	Rank     int
	ValueLen int // 0 unless Op == OpSet
}

// NextLean fills r with the next request in the mix. It consumes the RNG
// stream in exactly the same order as Next, so a generator driven through
// NextLean produces the same request sequence as one driven through Next
// for the same seed. It requires a LeanCompatible config (the sharded load
// plane validates this at construction).
func (g *Generator) NextLean(r *Lean) {
	r.Rank = g.zipf.Rank(g.rng)
	r.ValueLen = 0
	u := g.rng.Float64()
	if u < g.cfg.GetFraction {
		r.Op = protocol.OpGet
		return
	}
	if u < g.cfg.GetFraction+g.cfg.DeleteFraction {
		r.Op = protocol.OpDelete
		return
	}
	r.Op = protocol.OpSet
	n := int(g.values.Sample(g.rng))
	if n < 1 {
		n = 1
	}
	if n > protocol.MaxValueLen {
		n = protocol.MaxValueLen
	}
	r.ValueLen = n
}

// AppendKey appends the key for rank to dst and returns the extended
// slice. The result is byte-identical to Key(rank) without allocating
// (when dst has capacity).
func (g *Generator) AppendKey(dst []byte, rank int) []byte {
	return g.cfg.appendKey(dst, rank)
}

func (c Config) appendKey(dst []byte, rank int) []byte {
	dst = append(dst, c.KeyPrefix...)
	dst = append(dst, '-')
	// Zero-padded %08d; wider ranks grow naturally like Sprintf.
	digits := 1
	for v := rank; v >= 10; v /= 10 {
		digits++
	}
	for i := digits; i < 8; i++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(rank), 10)
}

// AppendLean appends the wire form of r to dst and returns the extended
// slice: the bytes protocol.WriteRequest writes for the Request Next draws
// in r's place. Keys need no check here; Config validation admitted the
// widest one.
func (g *Generator) AppendLean(dst []byte, r *Lean) []byte {
	switch r.Op {
	case protocol.OpGet:
		dst = append(dst, "get "...)
		dst = g.AppendKey(dst, r.Rank)
	case protocol.OpDelete:
		dst = append(dst, "delete "...)
		dst = g.AppendKey(dst, r.Rank)
	case protocol.OpSet:
		dst = append(dst, "set "...)
		dst = g.AppendKey(dst, r.Rank)
		dst = append(dst, " 0 0 "...)
		dst = strconv.AppendInt(dst, int64(r.ValueLen), 10)
		dst = append(dst, '\r', '\n')
		dst = AppendValue(dst, r.ValueLen)
	}
	return append(dst, '\r', '\n')
}

// AppendValue appends the n-byte SET payload pattern to dst, matching the
// bytes Next generates for a value of length n.
func AppendValue(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, 'a'+byte((i+n)%26))
	}
	return dst
}

// MaxKeyLen returns an upper bound on the encoded key length for this
// generator, for sizing encode buffers.
func (g *Generator) MaxKeyLen() int {
	digits := 8
	for v := g.cfg.Keys - 1; v >= 100000000; v /= 10 {
		digits++
	}
	return len(g.cfg.KeyPrefix) + 1 + digits
}

// Preload returns SET requests covering the entire key space, used to warm
// the store before measuring so GETs hit.
func (g *Generator) Preload() []*protocol.Request {
	reqs := make([]*protocol.Request, g.cfg.Keys)
	for i := range reqs {
		n := int(g.values.Sample(g.rng))
		if n < 1 {
			n = 1
		}
		if n > protocol.MaxValueLen {
			n = protocol.MaxValueLen
		}
		value := make([]byte, n)
		for j := range value {
			value[j] = 'a' + byte((j+i)%26)
		}
		reqs[i] = &protocol.Request{Op: protocol.OpSet, Key: g.Key(i), Value: value}
	}
	return reqs
}
