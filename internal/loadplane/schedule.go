package loadplane

import (
	"time"

	"treadmill/internal/dist"
)

// The dealer materializes the open-loop arrival schedule ahead of real
// time and deals it to shards in chunks. A single sequential generator —
// not per-shard streams — draws the inter-arrival samples, because the
// reference schedule is a prefix sum over one RNG stream: sharding the
// draws would change every arrival time. Per-shard RNG streams drive the
// workload generators instead, where no cross-shard ordering exists.

// Schedule replays the exact arrival schedule loadgen.OpenLoop.Run
// produces for (seed, rate, conns): the same RNG construction (one seed,
// one discarded fork for the workload stream), the same exponential
// samples truncated to whole nanoseconds, the same round-robin
// connection assignment, the same off-the-end termination. emit receives
// each arrival's offset from run start and its connection index, in
// nondecreasing time order; returning false stops the schedule early.
//
// Bit-identity with the single-loop generator is load-bearing (seeded
// reproducibility across engine versions) and pinned by
// TestScheduleParity; change neither independently.
func Schedule(seed uint64, rate float64, conns int, durNs int64, emit func(offNs int64, conn int32) bool) {
	rng := dist.NewRNG(seed)
	_ = rng.Fork() // the classic loop forks its workload stream first
	inter := dist.Exponential{Rate: rate}
	var off int64
	var i uint64
	for {
		off += int64(time.Duration(inter.Sample(rng) * float64(time.Second)))
		if off > durNs {
			return
		}
		if !emit(off, int32(i%uint64(conns))) {
			return
		}
		i++
	}
}

// chunk is one dealt batch of arrivals for a single shard.
type chunk struct {
	off  []int64
	conn []int32
}

// chunkArrivals is a dealt chunk's length (12 KB). With dealerRunway chunks
// queued behind the one firing, a shard at 50 k arrivals/s has about 100 ms
// of schedule dealt ahead of it.
const chunkArrivals = 1024

// dealerRunway bounds how many chunks may queue per shard; with the chunk
// the dealer is filling and the one the shard is firing, at most
// dealerRunway+2 chunks per shard are live, which caps how far ahead of
// real time the schedule is materialized (memory stays O(shards), not
// O(schedule)).
const dealerRunway = 4
