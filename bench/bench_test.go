package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"treadmill/internal/runner"
)

func TestExactQuantile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {0.99, 49.6}, {1, 50},
	} {
		if got := exactQuantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("exactQuantile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := exactQuantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value: %g", got)
	}
	if got := exactQuantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty input: %g, want NaN", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the driver's acceptance check recomputes spreads with it.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{50, 10, 40, 20, 30}, 15, 30, 45},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(c.xs)
		if s.N != len(c.xs) || s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1=%g median=%g q3=%g", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if got := summarize([]float64{50, 10, 40, 20, 30}).relSpread(); got != 1 {
		t.Errorf("relSpread = %g, want (45-15)/30 = 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50},  // overlaps span 2: [20,30) counts once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // outlives the parent: only [90,100) counts
		{ID: 5, Parent: 3, StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTilingCheck(t *testing.T) {
	good := &tracer{spans: []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 0, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 40, EndNs: 100},
	}}
	if !good.finish() {
		t.Error("sequential children that fill the parent must tile")
	}
	if good.spans[0].SelfNs != 0 || good.spans[1].SelfNs != 40 {
		t.Errorf("self times %d, %d", good.spans[0].SelfNs, good.spans[1].SelfNs)
	}
	escaping := &tracer{spans: []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 90, EndNs: 120},
	}}
	if escaping.finish() {
		t.Error("a child that outlives its parent must not tile")
	}
	oversum := &tracer{spans: []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 0, EndNs: 70},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 100},
	}}
	if oversum.finish() {
		t.Error("children whose durations sum past the parent must not tile")
	}
}

func TestFingerprint(t *testing.T) {
	qs := []float64{0.5, 0.99}
	mk := func() []runner.Sample {
		a := runner.Sample{Levels: []int{0, 1}, Quantiles: map[float64]float64{}}
		a.Quantiles[0.99] = 3.5e-4 // inserted in the other order on purpose
		a.Quantiles[0.5] = 1.25e-4
		b := runner.Sample{Levels: []int{1, 1}, Quantiles: map[float64]float64{0.5: 2e-4, 0.99: 9e-4}}
		return []runner.Sample{a, b}
	}
	base := fingerprint(mk(), qs)
	for i := 0; i < 20; i++ {
		if got := fingerprint(mk(), qs); got != base {
			t.Fatalf("fingerprint not stable: %016x then %016x", base, got)
		}
	}
	// Pinned value: the hash is part of golden.json's meaning.
	if want := uint64(0x9ab072dcd2c6ef0f); base != want {
		t.Errorf("fingerprint = %016x, want %016x", base, want)
	}
	flipped := mk()
	flipped[1].Quantiles[0.99] = math.Nextafter(9e-4, 1)
	if fingerprint(flipped, qs) == base {
		t.Error("a one-ulp change must change the fingerprint")
	}
	relevelled := mk()
	relevelled[0].Levels[0] = 1
	if fingerprint(relevelled, qs) == base {
		t.Error("a level change must change the fingerprint")
	}
}

func TestCheckRate(t *testing.T) {
	lean, _ := liveSpecFor("live_lean", false)
	// 2 000 000 arrivals: the 1 % floor applies.
	if v := checkRate(lean, 1_985_000, 20*time.Second); v != "" {
		t.Errorf("0.75%% short of offered must pass: %s", v)
	}
	if v := checkRate(lean, 1_970_000, 20*time.Second); v == "" {
		t.Error("1.5% short of offered must fail")
	}
	// 10 000 arrivals: four sigma is 4 %, so 3 % short passes and 5 % fails.
	kv, _ := liveSpecFor("live_kv", false)
	if v := checkRate(kv, 9_700, 500*time.Millisecond); v != "" {
		t.Errorf("3%% short on 10k arrivals must pass: %s", v)
	}
	if v := checkRate(kv, 9_500, 500*time.Millisecond); v == "" {
		t.Error("5% short on 10k arrivals must fail")
	}
}

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the harness prints. They must say the same thing.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("duplicate metric %s", m.Name)
		}
		seen[m.Name] = true
	}
}

func quickConfig(t *testing.T, workload string) runConfig {
	t.Helper()
	golden, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{workload: workload, seed: 1, seconds: 1, quick: true, golden: golden, outDir: t.TempDir()}
}

// lastLine decodes the driver's JSON object from the end of out, insisting
// on exactly the four keys of the contract.
func lastLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var d driverLine
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return d
}

// TestQuickEndToEnd exercises every workload through the same entry point
// the driver uses, at smoke size: exact correctness checks on, timing
// checks off.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback servers")
	}
	for _, w := range workloads {
		var out bytes.Buffer
		if code := runOne(context.Background(), quickConfig(t, w.Name), false, &out); code != 0 {
			t.Fatalf("%s: exit code %d\n%s", w.Name, code, out.String())
		}
		d := lastLine(t, out.String())
		if !d.Correct || d.Attempted < 1 || d.Failed != 0 {
			t.Errorf("%s: %+v", w.Name, d)
		}
		if len(d.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics on the driver line, want %d", w.Name, len(d.Metrics), len(endToEnd))
		}
		for _, def := range endToEnd {
			m, ok := d.Metrics[def.Name]
			if !ok || m.Unit != def.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", w.Name, def.Name, m, ok)
			}
		}
	}
}

func TestQuickTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback servers")
	}
	cfg := quickConfig(t, "live_kv")
	var out bytes.Buffer
	if code := runOne(context.Background(), cfg, true, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	d := lastLine(t, out.String())
	if !d.Correct || len(d.Metrics) != len(perLayer) {
		t.Errorf("correct=%v, %d metrics, want %d", d.Correct, len(d.Metrics), len(perLayer))
	}
	for _, def := range perLayer {
		if m, ok := d.Metrics[def.Name]; !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v)", def.Name, m, ok)
		}
	}
	if v := d.Metrics["sim.events_per_req"].Value; v < 4 {
		t.Errorf("sim.events_per_req = %g: a request crosses at least four hops", v)
	}

	// The spans written out must tile: children inside their parent, and
	// the children of every walked request summing to at most the parent.
	data, err := os.ReadFile(cfg.outDir + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	children := map[int]int64{}
	walked := 0
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.SelfNs < 0 || s.EndNs < s.StartNs {
			t.Fatalf("span %+v", s)
		}
		if p, ok := byID[s.Parent]; ok {
			children[p.ID] += s.EndNs - s.StartNs
			if p.Req != 0 && s.Req != p.Req {
				t.Errorf("span %d of request %d hangs under request %d", s.ID, s.Req, p.Req)
			}
		}
		if s.Name == "request_walk" {
			walked++
		}
	}
	for id, sum := range children {
		if p := byID[id]; sum > p.EndNs-p.StartNs {
			t.Errorf("children of span %d (%s) sum to %d ns, parent lasts %d ns", id, p.Name, sum, p.EndNs-p.StartNs)
		}
	}
	if walked == 0 {
		t.Error("no walked request in the trace")
	}
}

// A wrong golden fingerprint is a failed correctness check: the run says
// correct=false, counts every experiment as failed and exits non-zero.
func TestCorruptGoldenFailsTheRun(t *testing.T) {
	cfg := quickConfig(t, "sim_factorial")
	if _, ok := cfg.golden["sim_factorial/quick"]["1"]; !ok {
		t.Fatal("golden.json has no entry for the quick sim_factorial run at seed 1")
	}
	var out bytes.Buffer
	if code := runOne(context.Background(), cfg, false, &out); code != 0 {
		t.Fatalf("committed golden: exit code %d\n%s", code, out.String())
	}
	cfg.golden = map[string]map[string]string{"sim_factorial/quick": {"1": "0000000000000bad"}}
	out.Reset()
	if code := runOne(context.Background(), cfg, false, &out); code == 0 {
		t.Fatalf("corrupted golden: exit code 0\n%s", out.String())
	}
	d := lastLine(t, out.String())
	if d.Correct || d.Failed != d.Attempted {
		t.Errorf("corrupted golden: %+v", d)
	}
	if !strings.Contains(out.String(), "differs from golden") {
		t.Errorf("no violation printed:\n%s", out.String())
	}
}
