package detect

import (
	"math"
	"sort"

	"vapro/internal/sim"
)

// Spatial merge: the rank-sharded collector tier runs one analysis
// plane per shard, each over only its resident ranks, and combines the
// per-shard window results here into one global view. The merge is a
// strip concatenation — every rank row of the merged heat map is copied
// verbatim from the rank's owning shard — so its cost is O(ranks ×
// windows) regardless of how many fragments the shards ingested.
// Region growing then runs over the merged grid, which is what lets a
// variance region span a shard boundary: two adjacent rank rows owned
// by different shards stitch into one 4-connected component exactly as
// they would in an unsharded pass. Stale cells copied from any shard's
// outage accounting keep their exclusion.

// MergeStats reports what one merge pass combined.
type MergeStats struct {
	// Strips counts per-class heat-map strips copied out of per-shard
	// results (one per (class, shard) pair that contributed rows).
	Strips int
	// Stitched counts merged regions whose rank rows span more than one
	// owning shard — regions that exist only because of the merge.
	Stitched int
}

// Merger combines per-shard detection results into one global Result.
// Like the Analyzer it is warm: region growing over the merged grid
// carries unchanged regions across overlapped windows, so the steady
// merge cost is the strip copy plus regrowth of changed cells only.
// A Merger is not safe for concurrent Merge calls.
type Merger struct {
	carry [numClasses]*regionCarryState
}

// NewMerger returns a Merger with cold region-carry state.
func NewMerger() *Merger { return &Merger{} }

// Merge combines per-shard results over a global rank space of size
// ranks. owner maps each rank to the index in parts that owns it; a
// rank whose owner slot is nil (shard down, nothing delivered) keeps
// NaN cells, exactly as an unsharded run that received none of its
// fragments would. Per-shard maps must share window geometry (bucket
// width and origin — the tier analyzes one global window, so they do);
// a part whose geometry disagrees is treated as absent for that class.
// Samples are owner-filtered (a misrouted fragment analyzed by a
// non-owning shard must not double-attach) and k-way merged in start
// order, ties resolved by part order.
func (m *Merger) Merge(parts []*Result, ranks int, owner func(rank int) int, opt Options) (*Result, MergeStats) {
	if opt.Window <= 0 {
		opt.Window = 500 * sim.Millisecond
	}
	if opt.Threshold <= 0 {
		opt.Threshold = 0.85
	}
	res := &Result{
		Maps:        make(map[Class]*HeatMap),
		Samples:     make(map[Class][]Sample),
		Coverage:    make(map[Class]float64),
		TotalTimeNS: make(map[Class]int64),
		FixedTimeNS: make(map[Class]int64),
	}
	var stats MergeStats

	// Coverage merges exactly: the per-shard results expose their raw
	// int64 time sums, so the merged fractions equal a single global
	// pass over the union of the shards' fragments.
	var total, fixed [numClasses]int64
	for _, p := range parts {
		if p == nil {
			continue
		}
		res.FixedClusters += p.FixedClusters
		res.SmallClusters += p.SmallClusters
		for c := 0; c < numClasses; c++ {
			total[c] += p.TotalTimeNS[Class(c)]
			fixed[c] += p.FixedTimeNS[Class(c)]
		}
	}
	var allTotal, allFixed int64
	for c := 0; c < numClasses; c++ {
		allTotal += total[c]
		allFixed += fixed[c]
		if total[c] > 0 {
			res.Coverage[Class(c)] = float64(fixed[c]) / float64(total[c])
		}
		if total[c] != 0 || fixed[c] != 0 {
			res.TotalTimeNS[Class(c)] = total[c]
			res.FixedTimeNS[Class(c)] = fixed[c]
		}
	}
	if allTotal > 0 {
		res.OverallCoverage = float64(allFixed) / float64(allTotal)
	}

	for c := 0; c < numClasses; c++ {
		class := Class(c)

		// Geometry comes from the first shard that built a map for this
		// class; the merged width is the max over agreeing shards (a
		// shard whose resident ranks went quiet early just has a
		// narrower strip — its missing columns stay NaN).
		var window sim.Duration
		var origin sim.Time
		windows := 0
		found := false
		for _, p := range parts {
			if p == nil {
				continue
			}
			h := p.Maps[class]
			if h == nil {
				continue
			}
			if !found {
				window, origin, found = h.Window, h.Origin, true
			}
			if h.Window != window || h.Origin != origin {
				continue
			}
			if h.Windows > windows {
				windows = h.Windows
			}
		}
		if !found || windows == 0 || ranks <= 0 {
			m.carry[c] = nil
			continue
		}

		merged := &HeatMap{Class: class, Ranks: ranks, Windows: windows, Window: window, Origin: origin}
		merged.Cells = make([]float64, ranks*windows)
		for i := range merged.Cells {
			merged.Cells[i] = math.NaN()
		}
		contributed := make([]bool, len(parts))
		for r := 0; r < ranks; r++ {
			o := owner(r)
			if o < 0 || o >= len(parts) || parts[o] == nil {
				continue
			}
			h := parts[o].Maps[class]
			if h == nil || h.Window != window || h.Origin != origin || r >= h.Ranks {
				continue
			}
			copy(merged.Cells[r*windows:r*windows+h.Windows], h.Cells[r*h.Windows:(r+1)*h.Windows])
			if h.Stale != nil {
				for w := 0; w < h.Windows; w++ {
					if h.Stale[r*h.Windows+w] {
						if merged.Stale == nil {
							merged.Stale = make([]bool, len(merged.Cells))
						}
						merged.Stale[r*windows+w] = true
					}
				}
			}
			contributed[o] = true
		}
		for _, u := range contributed {
			if u {
				stats.Strips++
			}
		}

		// Owner-filtered k-way merge of the per-shard sample streams
		// (each already start-sorted by the shard's own pass). The merge
		// walks the source slices in place — each head skips samples its
		// part does not own — so the only per-tick allocation is the
		// merged output itself; materializing filtered copies first used
		// to dominate the merge's allocation profile.
		owned := func(i int, s *Sample) bool {
			return s.Rank >= 0 && s.Rank < ranks && owner(s.Rank) == i
		}
		srcs := make([][]Sample, len(parts))
		heads := make([]int, len(parts))
		want := 0
		for i, p := range parts {
			if p == nil {
				continue
			}
			src := p.Samples[class]
			srcs[i] = src
			for j := range src {
				if owned(i, &src[j]) {
					want++
				}
			}
			for heads[i] < len(src) && !owned(i, &src[heads[i]]) {
				heads[i]++
			}
		}
		samples := make([]Sample, 0, want)
		for len(samples) < want {
			best := -1
			for i := range srcs {
				if heads[i] >= len(srcs[i]) {
					continue
				}
				if best == -1 || srcs[i][heads[i]].Start < srcs[best][heads[best]].Start {
					best = i
				}
			}
			samples = append(samples, srcs[best][heads[best]])
			heads[best]++
			for heads[best] < len(srcs[best]) && !owned(best, &srcs[best][heads[best]]) {
				heads[best]++
			}
		}

		res.Maps[class] = merged
		res.Samples[class] = samples

		var regs []Region
		if opt.DisableIncremental {
			m.carry[c] = nil
			regs = growRegions(merged, samples, opt)
		} else {
			var next *regionCarryState
			regs, next, _, _ = growRegionsCarry(m.carry[c], merged, samples, opt)
			m.carry[c] = next
		}
		for i := range regs {
			first := owner(regs[i].RankMin)
			for r := regs[i].RankMin + 1; r <= regs[i].RankMax; r++ {
				if owner(r) != first {
					stats.Stitched++
					break
				}
			}
		}
		res.Regions = append(res.Regions, regs...)
	}

	sort.Slice(res.Regions, func(i, j int) bool { return res.Regions[i].LossNS > res.Regions[j].LossNS })
	return res, stats
}
