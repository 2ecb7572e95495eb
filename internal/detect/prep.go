package detect

import (
	"math"
	"time"

	"vapro/internal/cluster"
	"vapro/internal/stg"
)

// prepElem is the window-independent part of one STG element's analysis,
// memoized per element generation alongside the clustering cache. The
// normalized samples of an element depend only on its full fragment
// population (clustering and the per-cluster fastest member never look
// at the analysis window — the window just filters which samples feed
// the heat map), so they are computed once per element generation and
// every overlapped window selects from them by span index instead of
// re-walking every cluster member.
//
// The samples live in per-class chunked stores (see store.go). When the
// element advances by an append-only generation step (the clustering
// cache hands back a structured Delta instead of Full), advance()
// appends the batch's samples instead of rebuilding.
type prepElem struct {
	gen     stg.Gen
	nfrags  int
	copt    cluster.Options
	ref     ClusterRef
	minFrag int

	fixedClusters int
	smallClusters int

	// stores holds one sample store per class present in the element
	// (nil for absent classes).
	stores [numClasses]*sampleStore
	// fixedAll is the covered (fixed-workload) time per class over the
	// whole population — the full-range fast path for elemOut.fixed;
	// totalAll is the matching all-fragment time.
	fixedAll [numClasses]int64
	totalAll [numClasses]int64

	// class is the element's class; mixed marks a vertex whose
	// fragments span several classes (it rebuilds on every generation).
	class Class
	mixed bool

	// cstate[ci] is cluster ci's normalization state; ids[ci] is its
	// stable id and slotOf[id] maps an id back to its current cluster
	// index (-1 once retired).
	cstate []clustState
	ids    []int32
	slotOf []int32
	nextID int32
}

// clustState tracks what one cluster's emission depends on, so an
// append touching the cluster can be applied as a delta: the fastest
// member (monotone — it only improves), the per-rank population counts
// (monotone — they only grow, so a rank crosses the coverage threshold
// at most once), and the covered time contributed to fixedAll.
type clustState struct {
	// emitted: the cluster is Fixed with a valid best and its members
	// are present in the store. perRank may be non-nil while emitted is
	// false (a fixed cluster whose members all have Elapsed<=0).
	emitted bool
	best    int64
	fixedNS int64
	perRank map[int]int
	// perRankNS sums elapsed per rank so a coverage crossing can flip a
	// rank's whole prior contribution without revisiting stored
	// samples; nStored counts the cluster's samples living in the store
	// (for delta validation and retirement accounting).
	perRankNS map[int]int64
	nStored   int32
}

// rebuildReason says why prepFor rebuilt an element's prep instead of
// advancing it (advanced: it did not).
type rebuildReason uint8

const (
	advanced rebuildReason = iota
	// rebuildCold: no prep was memoized for the element yet.
	rebuildCold
	// rebuildMixed: a mixed-kind vertex, which never advances.
	rebuildMixed
	// rebuildCompaction: the advance would have pushed retired samples
	// past a quarter of the store.
	rebuildCompaction
	// rebuildDelta: the clustering delta was Full, advanced from a
	// stale generation, or failed validation.
	rebuildDelta
)

func minFragments(opt Options) int {
	if opt.Cluster.MinFragments <= 0 {
		return 5
	}
	return opt.Cluster.MinFragments
}

// stored is the number of samples ever appended to p's stores.
func (p *prepElem) stored() uint64 {
	var n uint64
	for _, st := range p.stores {
		if st != nil {
			n += uint64(st.n)
		}
	}
	return n
}

// prepFor returns the memoized window-independent analysis of one
// element: unchanged generations reuse it as-is, append-only advances
// patch it through advance(), and everything else rebuilds. The
// clustering cache is consulted unconditionally so its hit/miss
// accounting keeps meaning "analysis passes that reused a clustering",
// warm prep or not. Under DisableIncremental the clustering delta is
// always Full, so every new generation rebuilds.
func (a *Analyzer) prepFor(key cluster.Key, gen stg.Gen, frags stg.Log, opt Options, ref ClusterRef) *prepElem {
	met := a.met
	var t0 time.Time
	if met != nil {
		t0 = time.Now()
	}
	var cl cluster.Result
	var d cluster.Delta
	if opt.DisableIncremental {
		cl = a.cache.RunBatch(key, gen, frags, opt.Cluster)
		d = cluster.Delta{Full: true}
	} else {
		cl, d = a.cache.RunInc(key, gen, frags, opt.Cluster)
	}
	if met != nil {
		a.clock.clusterNS.Add(since(t0))
	}
	if h := a.clusterHook; h != nil {
		h(key, gen, frags, cl, d)
	}
	a.mu.Lock()
	p := a.preps[key]
	a.mu.Unlock()
	if p != nil && p.gen == gen && p.nfrags == frags.Len() && p.copt == opt.Cluster {
		return p
	}
	if met != nil {
		t0 = time.Now()
	}
	reason := rebuildCold
	if p != nil {
		n0 := p.stored()
		if reason = p.advance(frags, cl, d, opt, gen); reason == advanced {
			if met != nil {
				a.clock.normNS.Add(since(t0))
				met.PrepIncremental.Inc()
				met.DirtySpanPct.Observe(int64(d.Ratio*100 + 0.5))
				met.StoreAppends.Add(p.stored() - n0)
			}
			return p
		}
	}
	p = buildPrep(frags, cl, ref, opt, gen)
	if met != nil {
		a.clock.normNS.Add(since(t0))
		met.rebuilt(reason)
		met.StoreAppends.Add(p.stored())
	}
	a.mu.Lock()
	a.preps[key] = p
	a.mu.Unlock()
	return p
}

// window fills out with the element's contribution to one analysis
// window — exactly what normalizeElement(frags, cl, ref, opt, start,
// end) computes, but as references into the memoized full-population
// prep: whole marks an unbounded pass (every live sample), sel[c] names
// the selected store positions otherwise. The merge step materializes
// each selected sample exactly once into the final right-sized result
// slice.
func (p *prepElem) window(start, end int64, out *elemOut) {
	out.prep = p
	out.fixedClusters = p.fixedClusters
	out.smallClusters = p.smallClusters
	if start == math.MinInt64 && end == math.MaxInt64 {
		out.whole = true
		out.fixed = p.fixedAll
		out.total = p.totalAll
		return
	}
	for c, st := range p.stores {
		if st == nil {
			continue
		}
		out.sel[c], out.fixed[c] = p.selectLive(st, start, end)
		out.total[c] = st.frags.sumOverlapping(start, end)
	}
}
