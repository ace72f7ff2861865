package workload

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treadmill/internal/dist"
	"treadmill/internal/protocol"
)

func TestSizeDistBuild(t *testing.T) {
	ok := []SizeDist{
		{Kind: "constant", Value: 100},
		{Kind: "uniform", Lo: 1, Hi: 10},
		{Kind: "lognormal", Mean: 1024, CV2: 1},
		{Kind: "pareto", Xm: 100, Alpha: 2},
	}
	for _, s := range ok {
		if _, err := s.Build(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	bad := []SizeDist{
		{Kind: "constant", Value: 0},
		{Kind: "uniform", Lo: 10, Hi: 1},
		{Kind: "lognormal", Mean: -1},
		{Kind: "pareto", Xm: 0, Alpha: 2},
		{Kind: "gaussian"},
		{},
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestParseAndValidate(t *testing.T) {
	good := `{"name":"w","get_fraction":0.8,"keys":1000,"key_skew":0.9,"value_size":{"kind":"constant","value":64}}`
	c, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "w" || c.GetFraction != 0.8 || c.Keys != 1000 {
		t.Errorf("parsed %+v", c)
	}
	bad := []string{
		`{not json`,
		`{"get_fraction":1.5,"keys":10,"value_size":{"kind":"constant","value":1}}`,
		`{"get_fraction":0.5,"keys":0,"value_size":{"kind":"constant","value":1}}`,
		`{"get_fraction":0.5,"keys":10,"key_skew":-1,"value_size":{"kind":"constant","value":1}}`,
		`{"get_fraction":0.5,"keys":10,"value_size":{"kind":"nope"}}`,
	}
	for _, b := range bad {
		if _, err := Parse([]byte(b)); err == nil {
			t.Errorf("accepted %s", b)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := os.WriteFile(path, []byte(`{"name":"file","get_fraction":1,"keys":5,"value_size":{"kind":"constant","value":8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "file" {
		t.Errorf("name = %q", c.Name)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestGeneratorMix(t *testing.T) {
	cfg := Default()
	cfg.Keys = 1000
	g, err := NewGenerator(cfg, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gets, sets := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		req := g.Next()
		switch req.Op {
		case protocol.OpGet:
			gets++
		case protocol.OpSet:
			sets++
			if len(req.Value) < 1 {
				t.Fatal("empty set value")
			}
		default:
			t.Fatalf("unexpected op %v", req.Op)
		}
		if !strings.HasPrefix(req.Key, cfg.KeyPrefix+"-") {
			t.Fatalf("key %q missing prefix", req.Key)
		}
	}
	if frac := float64(gets) / n; math.Abs(frac-0.9) > 0.02 {
		t.Errorf("get fraction = %g, want ~0.9", frac)
	}
}

func TestGeneratorSkew(t *testing.T) {
	cfg := Default()
	cfg.Keys = 1000
	cfg.KeySkew = 1.2
	cfg.GetFraction = 1
	g, err := NewGenerator(cfg, dist.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	top := g.Key(0)
	if float64(counts[top])/n < 0.05 {
		t.Errorf("hottest key drew only %d/%d; skew not applied", counts[top], n)
	}
}

func TestGeneratorUniformWhenNoSkew(t *testing.T) {
	cfg := Default()
	cfg.Keys = 10
	cfg.KeySkew = 0
	cfg.GetFraction = 1
	g, _ := NewGenerator(cfg, dist.NewRNG(3))
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)/n-0.1) > 0.01 {
			t.Errorf("key %s frequency %g, want ~0.1", k, float64(c)/n)
		}
	}
}

// TestKeyMatchesSprintf pins Key to the "%s-%08d" format it replaced, byte
// for byte, across the zero-padding boundary and past eight digits, and
// checks it costs one allocation: the string.
func TestKeyMatchesSprintf(t *testing.T) {
	cfg := Default()
	g, err := NewGenerator(cfg, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rank := range []int{0, 9, 99_999_999, 100_000_000, 1_234_567_890} {
		if got, want := g.Key(rank), fmt.Sprintf("%s-%08d", cfg.KeyPrefix, rank); got != want {
			t.Errorf("Key(%d) = %q, want %q", rank, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Key(1234) }); allocs > 1 {
		t.Errorf("Key allocated %.1f objects, want 1", allocs)
	}
}

func TestPreloadCoversKeySpace(t *testing.T) {
	cfg := Default()
	cfg.Keys = 500
	g, _ := NewGenerator(cfg, dist.NewRNG(4))
	reqs := g.Preload()
	if len(reqs) != 500 {
		t.Fatalf("preload has %d requests", len(reqs))
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.Op != protocol.OpSet || len(r.Value) == 0 {
			t.Fatalf("bad preload request %+v", r)
		}
		seen[r.Key] = true
	}
	if len(seen) != 500 {
		t.Errorf("preload covered %d distinct keys, want 500", len(seen))
	}
}

func TestGeneratorValueSizeCap(t *testing.T) {
	cfg := Default()
	cfg.Keys = 10
	cfg.GetFraction = 0
	cfg.ValueSize = SizeDist{Kind: "pareto", Xm: 1 << 19, Alpha: 1.01} // heavy tail past the cap
	g, err := NewGenerator(cfg, dist.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if req := g.Next(); len(req.Value) > protocol.MaxValueLen {
			t.Fatalf("value of %d bytes exceeds protocol cap", len(req.Value))
		}
	}
}

func TestNewGeneratorRejectsBadConfig(t *testing.T) {
	cfg := Default()
	cfg.Keys = 0
	if _, err := NewGenerator(cfg, dist.NewRNG(1)); err == nil {
		t.Error("bad config accepted")
	}
}

// TestKeyPrefixValidation: every key is KeyPrefix + "-" + a rank, and the
// lean send paths write keys unchecked, so a prefix that makes any key
// break the protocol's key rule (1..250 bytes, no space, control byte or
// DEL) must be rejected up front.
func TestKeyPrefixValidation(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		keys   int
		ok     bool
	}{
		{"tm", 100, true},
		{"", 100, true},
		{strings.Repeat("p", 241), 100, true},            // widest key is 250 bytes
		{strings.Repeat("p", 241), 1_000_000_000, false}, // ...until a ninth digit
		{strings.Repeat("p", 242), 100, false},
		{"a b\r\nstats", 100, false},
		{"tab\t", 100, false},
		{"del\x7f", 100, false},
	} {
		cfg := Default()
		cfg.KeyPrefix, cfg.Keys = tc.prefix, tc.keys
		if _, err := NewGenerator(cfg, dist.NewRNG(1)); (err == nil) != tc.ok {
			t.Errorf("prefix %q with %d keys: err = %v, want ok=%v", tc.prefix, tc.keys, err, tc.ok)
		}
	}
}

func TestGeneratorDeleteMix(t *testing.T) {
	cfg := Default()
	cfg.Keys = 500
	cfg.GetFraction = 0.7
	cfg.DeleteFraction = 0.2
	g, err := NewGenerator(cfg, dist.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[protocol.Op]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[g.Next().Op]++
	}
	if frac := float64(counts[protocol.OpGet]) / n; math.Abs(frac-0.7) > 0.02 {
		t.Errorf("get fraction = %g", frac)
	}
	if frac := float64(counts[protocol.OpDelete]) / n; math.Abs(frac-0.2) > 0.02 {
		t.Errorf("delete fraction = %g", frac)
	}
	if frac := float64(counts[protocol.OpSet]) / n; math.Abs(frac-0.1) > 0.02 {
		t.Errorf("set fraction = %g", frac)
	}
}

func TestDeleteFractionValidation(t *testing.T) {
	cfg := Default()
	cfg.DeleteFraction = -0.1
	if _, err := NewGenerator(cfg, dist.NewRNG(1)); err == nil {
		t.Error("negative delete fraction accepted")
	}
	cfg = Default()
	cfg.GetFraction = 0.9
	cfg.DeleteFraction = 0.2
	if _, err := NewGenerator(cfg, dist.NewRNG(1)); err == nil {
		t.Error("fractions summing past 1 accepted")
	}
}
