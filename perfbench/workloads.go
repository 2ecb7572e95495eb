package main

import (
	"vapro/internal/collector"
	"vapro/internal/trace"
)

// Compressed time axis of the synthetic workloads (EXPERIMENTS.md,
// "compressed time axis"): 9.6 ms analysis windows every 4.8 ms of
// virtual time, with 2.4 ms heat-map buckets of about four fragments per
// rank. A batch of synthBatch fragments spans about one stride of its
// rank's clock, so one round of batches over the ranks closes about one
// window: 512 fragments per window instead of 7.5 s of them.
var synthWindows = windowing{period: 9_600_000, stride: 4_800_000, bucket: 2_400_000}

// commIOWindows fits the comm/IO stream's shorter fragments (about
// 0.5 ms against 0.6 ms) and its lower offered rate: a slightly shorter
// stride keeps its open loop above 200 windows.
var commIOWindows = windowing{period: 7_200_000, stride: 3_600_000, bucket: 1_800_000}

const (
	synthRanks = 64
	synthBatch = 8 // fragments per client batch
	ms         = int64(1_000_000)
	// Timed noise episodes start 40 strides into the open loop and last
	// five strides.
	episodeFrom = 40 * 4_800_000
	episodeTo   = 45 * 4_800_000
)

// synthSpecs returns the synthetic workloads; tiny shrinks them to a
// size the package tests can run in seconds.
func synthSpecs(tiny bool) map[string]synthSpec {
	resident := 64_000
	if tiny {
		resident = 20_000
	}
	live := synthSpec{
		name: "live-1d",
		gen: genSpec{shape: shape1D, ranks: synthRanks, batch: synthBatch, episodes: []episode{
			// Two ranks run 2× slower for five windows; TOT_INS is
			// unchanged, so their fragments stay in their clusters.
			{ranks: []int{5, 37}, kind: trace.Comp, from: episodeFrom, to: episodeTo, factor: 2},
		}},
		win:      synthWindows,
		resident: resident,
		offered:  52_000,
		wire:     true,
	}
	durable := synthSpec{
		name: "durable-commio",
		gen: genSpec{shape: shapeCommIO, ranks: synthRanks, batch: synthBatch, episodes: []episode{
			{ranks: []int{9}, kind: trace.IO, from: episodeFrom, to: episodeTo, factor: 2},
		}},
		win:      commIOWindows,
		resident: resident,
		offered:  30_000,
		wire:     true,
		journal:  true,
	}
	sharded := shardedSpec()
	sharded.resident = resident
	for _, s := range []*synthSpec{&live, &durable, &sharded} {
		if tiny {
			s.offered /= 4
		}
	}
	return map[string]synthSpec{live.name: live, durable.name: durable, sharded.name: sharded}
}

const (
	shardCount = 4
	shardSpace = 1024
)

// shardedSpec builds the sharded workload. A quarter of the ranks run
// the subset edge. Episode (a) slows two ranks owned by different shards
// for five windows; episode (b) slows, for the whole run, the subset
// edge on every subset rank shard 0 owns. Shard 0 then holds no fast
// member of that edge to normalize against — the defect ROADMAP's first
// open item describes, kept so it shows in miss_frac.
func shardedSpec() synthSpec {
	subset := map[int]bool{}
	var owned []int
	for r := 0; r < synthRanks; r += 4 {
		subset[r] = true
		if collector.ShardOwner(r, shardCount) == 0 {
			owned = append(owned, r)
		}
	}
	a := []int{1}
	for r := 2; r < synthRanks && len(a) < 2; r++ {
		if !subset[r] && collector.ShardOwner(r, shardCount) != collector.ShardOwner(1, shardCount) {
			a = append(a, r)
		}
	}
	return synthSpec{
		name: "sharded-4",
		gen: genSpec{shape: shapeSubset, ranks: synthRanks, batch: synthBatch, subset: subset, episodes: []episode{
			{ranks: a, kind: trace.Comp, from: episodeFrom, to: episodeTo, factor: 2},
			{ranks: owned, kind: trace.Comp, state: subsetState, whole: true, factor: 2},
		}},
		win:     synthWindows,
		offered: 55_000,
		shards:  shardCount,
		space:   shardSpace,
	}
}
