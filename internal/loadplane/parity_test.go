package loadplane

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"treadmill/internal/dist"
	"treadmill/internal/protocol"
	"treadmill/internal/workload"
)

// TestScheduleParity pins the bit-identity contract: the dealer's
// schedule must reproduce the classic single-loop generator's arrival
// times and connection assignment exactly, per seed. The reference below
// performs the same time.Time arithmetic loadgen.OpenLoop.Run performs —
// if either side changes its draw order or rounding, this fails.
func TestScheduleParity(t *testing.T) {
	cases := []struct {
		seed  uint64
		rate  float64
		conns int
		dur   time.Duration
	}{
		{1, 5000, 4, 2 * time.Second},
		{42, 137.5, 1, 10 * time.Second},
		{7, 20000, 64, 500 * time.Millisecond},
		{1234567, 3, 7, 30 * time.Second},
	}
	for _, tc := range cases {
		// Reference: the classic loop, verbatim (loadgen.OpenLoop.Run).
		rng := dist.NewRNG(tc.seed)
		_ = rng.Fork() // workload stream fork
		inter := dist.Exponential{Rate: tc.rate}
		start := time.Now()
		deadline := start.Add(tc.dur)
		next := start
		var refOff []int64
		var refConn []int32
		i := 0
		for {
			next = next.Add(time.Duration(inter.Sample(rng) * float64(time.Second)))
			if next.After(deadline) {
				break
			}
			refOff = append(refOff, next.Sub(start).Nanoseconds())
			refConn = append(refConn, int32(i%tc.conns))
			i++
		}

		var gotOff []int64
		var gotConn []int32
		Schedule(tc.seed, tc.rate, tc.conns, tc.dur.Nanoseconds(), func(off int64, conn int32) bool {
			gotOff = append(gotOff, off)
			gotConn = append(gotConn, conn)
			return true
		})

		if len(gotOff) != len(refOff) {
			t.Fatalf("seed %d: %d arrivals, reference has %d", tc.seed, len(gotOff), len(refOff))
		}
		for j := range refOff {
			if gotOff[j] != refOff[j] || gotConn[j] != refConn[j] {
				t.Fatalf("seed %d arrival %d: got (%d, conn %d), reference (%d, conn %d)",
					tc.seed, j, gotOff[j], gotConn[j], refOff[j], refConn[j])
			}
		}
	}
}

// TestScheduleShardMergeParity: dealing arrivals to shards by conn%nshards
// and merging the per-shard sequences back in time order must reproduce
// the undealt schedule — the property that makes the sharded plane's
// aggregate arrival process bit-identical to the single loop's.
func TestScheduleShardMergeParity(t *testing.T) {
	const seed, rate, conns, nshards = 99, 10000, 24, 5
	durNs := int64(2 * time.Second)

	type arrival struct {
		off  int64
		conn int32
	}
	var all []arrival
	shards := make([][]arrival, nshards)
	Schedule(seed, rate, conns, durNs, func(off int64, conn int32) bool {
		all = append(all, arrival{off, conn})
		si := int(conn) % nshards
		shards[si] = append(shards[si], arrival{off, conn})
		return true
	})

	// Merge per-shard sequences by arrival time (stable on ties by shard
	// scan order — ties are measure-zero for continuous inter-arrivals,
	// and a shard fires its own ties in dealt order anyway).
	idx := make([]int, nshards)
	var merged []arrival
	for {
		best, bestShard := int64(1)<<62, -1
		for s := 0; s < nshards; s++ {
			if idx[s] < len(shards[s]) && shards[s][idx[s]].off < best {
				best, bestShard = shards[s][idx[s]].off, s
			}
		}
		if bestShard < 0 {
			break
		}
		merged = append(merged, shards[bestShard][idx[bestShard]])
		idx[bestShard]++
	}
	if len(merged) != len(all) {
		t.Fatalf("merged %d arrivals, schedule has %d", len(merged), len(all))
	}
	for i := range all {
		if merged[i] != all[i] {
			t.Fatalf("arrival %d: merged %+v, schedule %+v", i, merged[i], all[i])
		}
	}
}

// TestNextLeanParity: the allocation-free request generator must consume
// the RNG stream identically to Next, yielding the same op/key/value
// sequence for the same seed, and AppendLean must encode the bytes
// WriteRequest writes for Next's request.
func TestNextLeanParity(t *testing.T) {
	cfg := workload.Default()
	cfg.Keys = 5000
	cfg.DeleteFraction = 0.05
	full, err := workload.NewGenerator(cfg, dist.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	lean, err := workload.NewGenerator(cfg, dist.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var lr workload.Lean
	buf := make([]byte, 0, 64)
	var want bytes.Buffer
	var wire []byte
	w := bufio.NewWriter(&want)
	for i := 0; i < 20000; i++ {
		req := full.Next()
		lean.NextLean(&lr)
		if lr.Op != req.Op {
			t.Fatalf("request %d: op %v != %v", i, lr.Op, req.Op)
		}
		buf = lean.AppendKey(buf[:0], lr.Rank)
		if string(buf) != req.Key {
			t.Fatalf("request %d: key %q != %q", i, buf, req.Key)
		}
		if lr.ValueLen != len(req.Value) {
			t.Fatalf("request %d: value len %d != %d", i, lr.ValueLen, len(req.Value))
		}
		if lr.ValueLen > 0 {
			val := workload.AppendValue(nil, lr.ValueLen)
			if string(val) != string(req.Value) {
				t.Fatalf("request %d: value bytes differ", i)
			}
		}
		want.Reset()
		if err := protocol.WriteRequest(w, req); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if wire = lean.AppendLean(wire[:0], &lr); !bytes.Equal(wire, want.Bytes()) {
			t.Fatalf("request %d: AppendLean wrote %q, WriteRequest %q", i, wire, want.Bytes())
		}
	}
}
