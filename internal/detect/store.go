package detect

import (
	"math"
	"sort"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// Chunked append-only sample storage: the one prep representation.
//
// Every element — 1-D computation edges, multi-D communication and IO
// vertices, UseExtraMetrics runs, mixed-kind vertices — keeps its
// normalized samples in one chunked append log per class present, next
// to a segmented span index over that log and another over the class's
// fragments. An append-only generation step then costs O(batch): grown
// clusters append just their new members, rebuilt clusters retire
// their old stable id and re-emit under a fresh one, and nothing
// already stored is moved or rewritten.
//
// Storage order is free. Stage 2 of Analyzer.run sorts every class's
// merged samples by the total key sampleLess (Start, owning element,
// fragment index) before anything folds over them, so the order an
// element emits its samples in is never observable: selection and
// materialization simply walk the store.
//
// A stored record is compact — start, elapsed, rank and fragment index
// — and the mutable per-sample fields are derived at materialization
// from the owning cluster's current state: Perf from the monotone
// fastest member, Covered from the monotone per-rank counts, and the
// cluster index through a stable cluster id recorded at append time. A
// rebuilt cluster retires its id, which makes its old samples dead;
// dead positions are skipped at selection time and reclaimed by a
// compaction rebuild once they exceed a quarter of the store.
//
// The span indexes are segmented (one sorted segment appended per
// advance, geometrically merged so lookups stay O(log² n) and appends
// amortize to O(log n) — the classic logarithmic method), because a
// flat sorted array can't absorb O(batch) inserts in place.
//
// Mixed-kind vertices build into the same stores but never advance: a
// cluster there can span several classes, so its covered time would
// have to be tracked per class. They rebuild on every generation.

const (
	storeChunkShift = 10
	storeChunkSize  = 1 << storeChunkShift
	storeChunkMask  = storeChunkSize - 1
	// storeFirstChunkCap is the first chunk's initial capacity: small
	// elements (most vertices) stay small, and the first chunk grows
	// geometrically to storeChunkSize like any slice.
	storeFirstChunkCap = 32
)

// storeRec is one stored sample: the fields a Sample copies verbatim
// from its fragment. Rank and fragment index are int32 — the wire
// intake rejects ranks outside [0, MaxInt32].
type storeRec struct {
	start, elapsed int64
	rank, frag     int32
}

// storeChunk holds up to storeChunkSize records plus each record's
// stable cluster id (for lazy derivation and liveness).
type storeChunk struct {
	recs []storeRec
	cid  []int32
}

// sampleStore is one class's share of an element prep: the chunked
// append log of its samples and the segmented span indexes over those
// samples and over the class's fragments. Positions are dense int32s:
// chunk = pos>>storeChunkShift, offset = pos&storeChunkMask. Positions
// are never reused; samples die when their cluster id is retired.
type sampleStore struct {
	chunks []*storeChunk
	n      int32 // appended, including dead
	dead   int32 // retired by cluster rebuilds
	// samples indexes store positions by span; frags indexes fragment
	// indexes of this class (the coverage denominator counts every
	// fragment, not just emitted cluster members).
	samples segIndex
	frags   segIndex
}

// live is the number of samples whose cluster is still current.
func (st *sampleStore) live() int { return int(st.n - st.dead) }

// append stores one record and returns its position. Amortized
// allocation-free: two slice allocations per full chunk.
func (st *sampleStore) append(r storeRec, cid int32) int32 {
	pos := st.n
	ci := int(pos >> storeChunkShift)
	if ci == len(st.chunks) {
		c := storeChunkSize
		if ci == 0 {
			c = storeFirstChunkCap
		}
		st.chunks = append(st.chunks, &storeChunk{
			recs: make([]storeRec, 0, c),
			cid:  make([]int32, 0, c),
		})
	}
	ch := st.chunks[ci]
	if len(ch.recs) == cap(ch.recs) {
		// Only the first chunk starts below storeChunkSize.
		c := min(2*cap(ch.recs), storeChunkSize)
		ch.recs = append(make([]storeRec, 0, c), ch.recs...)
		ch.cid = append(make([]int32, 0, c), ch.cid...)
	}
	ch.recs = append(ch.recs, r)
	ch.cid = append(ch.cid, cid)
	st.n++
	return pos
}

func (st *sampleStore) at(pos int32) (*storeRec, int32) {
	ch, off := st.chunks[pos>>storeChunkShift], pos&storeChunkMask
	return &ch.recs[off], ch.cid[off]
}

// segSpans is one sorted segment of a segmented span index: entries
// ordered by (start, position), positions ascending within equal
// starts because appends always carry larger positions than everything
// already indexed.
type segSpans struct {
	pos        []int32
	starts     []int64
	elapsed    []int64
	maxElapsed int64
}

func (s *segSpans) push(pos int32, start, elapsed int64) {
	s.pos = append(s.pos, pos)
	s.starts = append(s.starts, start)
	s.elapsed = append(s.elapsed, elapsed)
}

// segIndex is the segmented span index: one segment appended per
// advance, geometrically merged so the segment count stays O(log n).
type segIndex struct {
	segs []segSpans
}

// add sorts one segment and appends it, re-establishing the geometric
// invariant: a segment at least half the size of its predecessor is
// merged into it (repeatedly), which amortizes total merge work to
// O(n log n) over the store's lifetime.
func (ix *segIndex) add(seg segSpans) {
	if len(seg.pos) == 0 {
		return
	}
	sortSeg(&seg)
	ix.segs = append(ix.segs, seg)
	for len(ix.segs) >= 2 {
		a := &ix.segs[len(ix.segs)-2]
		b := &ix.segs[len(ix.segs)-1]
		if len(b.pos)*2 < len(a.pos) {
			break
		}
		ix.segs[len(ix.segs)-2] = mergeSegs(*a, *b)
		ix.segs = ix.segs[:len(ix.segs)-1]
	}
}

// mergeSegs merges two sorted segments. a predates b, so on equal
// starts a's entries keep the earlier slots (their positions are
// smaller), preserving the (start, position) order.
func mergeSegs(a, b segSpans) segSpans {
	n := len(a.pos) + len(b.pos)
	out := segSpans{
		pos:        make([]int32, 0, n),
		starts:     make([]int64, 0, n),
		elapsed:    make([]int64, 0, n),
		maxElapsed: max(a.maxElapsed, b.maxElapsed),
	}
	i, j := 0, 0
	for i < len(a.pos) || j < len(b.pos) {
		if j >= len(b.pos) || (i < len(a.pos) && a.starts[i] <= b.starts[j]) {
			out.push(a.pos[i], a.starts[i], a.elapsed[i])
			i++
		} else {
			out.push(b.pos[j], b.starts[j], b.elapsed[j])
			j++
		}
	}
	return out
}

// candidates returns the [lo, hi) band of one segment whose spans can
// overlap [start, end); each candidate still needs the exact
// start+elapsed > start check. A span [s, s+e) overlaps iff s < end
// && s+e > start, which needs s > start-maxElapsed (saturating: start
// near MinInt64 would wrap).
func (s *segSpans) candidates(start, end int64) (lo, hi int) {
	thresh := start - s.maxElapsed
	if s.maxElapsed > 0 && thresh > start {
		thresh = math.MinInt64
	}
	lo = sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > thresh })
	hi = sort.Search(len(s.starts), func(i int) bool { return s.starts[i] >= end })
	return lo, hi
}

// sumOverlapping totals elapsed over spans overlapping [start, end)
// across every segment (int64 sums are order-free, so the segment
// partition is invisible).
func (ix *segIndex) sumOverlapping(start, end int64) int64 {
	var sum int64
	for si := range ix.segs {
		s := &ix.segs[si]
		lo, hi := s.candidates(start, end)
		for i := lo; i < hi; i++ {
			if s.starts[i]+s.elapsed[i] > start {
				sum += s.elapsed[i]
			}
		}
	}
	return sum
}

// sortSeg sorts one segment by (start, position) and fills maxElapsed.
func sortSeg(s *segSpans) {
	n := len(s.pos)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if s.starts[ia] != s.starts[ib] {
			return s.starts[ia] < s.starts[ib]
		}
		return s.pos[ia] < s.pos[ib]
	})
	out := segSpans{
		pos:     make([]int32, n),
		starts:  make([]int64, n),
		elapsed: make([]int64, n),
	}
	for i, o := range idx {
		out.pos[i] = s.pos[o]
		out.starts[i] = s.starts[o]
		out.elapsed[i] = s.elapsed[o]
		out.maxElapsed = max(out.maxElapsed, s.elapsed[o])
	}
	*s = out
}

// buildPrep runs the full-population normalization once (the same walk
// normalizeElement does with an unbounded window) and emits it into the
// element's per-class stores, with per-cluster append state (per-rank
// counts and elapsed sums for coverage crossings, stored-sample counts
// for validation).
func buildPrep(frags stg.Log, cl cluster.Result, ref ClusterRef, opt Options, gen stg.Gen) *prepElem {
	p := &prepElem{gen: gen, nfrags: frags.Len(), copt: opt.Cluster, ref: ref, minFrag: minFragments(opt)}
	if frags.Len() > 0 {
		p.class = ClassOf(frags.At(0).Kind)
	}
	var fsegs [numClasses]segSpans
	for i := 0; i < frags.Len(); i++ {
		f := frags.At(i)
		c := ClassOf(f.Kind)
		if c != p.class {
			p.mixed = true
		}
		if p.stores[c] == nil {
			p.stores[c] = &sampleStore{}
		}
		fsegs[c].push(int32(i), f.Start, f.Elapsed)
		p.totalAll[c] += f.Elapsed
	}

	nc := len(cl.Clusters)
	p.cstate = make([]clustState, nc)
	p.ids = make([]int32, nc)
	p.slotOf = make([]int32, nc)
	for ci := range p.ids {
		p.ids[ci] = int32(ci)
		p.slotOf[ci] = int32(ci)
	}
	p.nextID = int32(nc)

	var segs [numClasses]segSpans
	for ci := range cl.Clusters {
		c := &cl.Clusters[ci]
		if !c.Fixed {
			p.smallClusters++
			continue
		}
		p.fixedClusters++
		cst := p.walkCluster(frags, c)
		if cst.emitted {
			for _, m := range c.Members {
				f := frags.At(m)
				class := ClassOf(f.Kind)
				if cst.perRank[f.Rank] >= p.minFrag {
					p.fixedAll[class] += f.Elapsed
				}
				p.stores[class].emit(&segs[class], f, m, p.ids[ci])
			}
		}
		p.cstate[ci] = cst
	}
	for c, st := range p.stores {
		if st != nil {
			st.samples.add(segs[c])
			st.frags.add(fsegs[c])
		}
	}
	return p
}

// walkCluster computes a fixed cluster's normalization state from its
// members: per-rank counts and elapsed sums, the fastest member, and —
// when that best is valid (some member ran for a positive time) — the
// emission bookkeeping the caller then stores the members under.
func (p *prepElem) walkCluster(frags stg.Log, c *cluster.Cluster) clustState {
	cst := clustState{perRank: make(map[int]int, 8), perRankNS: make(map[int]int64, 8)}
	best := int64(math.MaxInt64)
	for _, m := range c.Members {
		f := frags.At(m)
		cst.perRank[f.Rank]++
		cst.perRankNS[f.Rank] += f.Elapsed
		if e := f.Elapsed; e > 0 && e < best {
			best = e
		}
	}
	if best == math.MaxInt64 {
		return cst
	}
	cst.emitted, cst.best = true, best
	for _, m := range c.Members {
		f := frags.At(m)
		if cst.perRank[f.Rank] >= p.minFrag {
			cst.fixedNS += f.Elapsed
		}
	}
	cst.nStored = int32(len(c.Members))
	return cst
}

// emit appends fragment m as a sample of cluster id and records it in
// the pending index segment.
func (st *sampleStore) emit(seg *segSpans, f *trace.Fragment, m int, id int32) {
	pos := st.append(storeRec{start: f.Start, elapsed: f.Elapsed, rank: int32(f.Rank), frag: int32(m)}, id)
	seg.push(pos, f.Start, f.Elapsed)
}

// advance patches the prep with an append-only clustering delta in
// O(batch), in place, and reports advanced — or why the caller must
// rebuild instead. Prefix and tail clusters keep their state (only the
// tail's slot mapping shifts), grown emitted clusters append just their
// added members, rebuilt clusters retire their old id (their old
// samples die in place) and re-emit under a fresh one. Nothing already
// stored is touched; the lazily-derived fields absorb best and coverage
// movement. When retiring would push dead samples past a quarter of
// the store it refuses with rebuildCompaction, leaving the prep
// untouched for the rebuild.
func (p *prepElem) advance(frags stg.Log, cl cluster.Result, d cluster.Delta, opt Options, gen stg.Gen) rebuildReason {
	oldN := p.nfrags
	nn := frags.Len()
	if p.mixed {
		return rebuildMixed
	}
	for i := oldN; i < nn; i++ {
		if ClassOf(frags.At(i).Kind) != p.class {
			return rebuildMixed
		}
	}
	if d.Full || p.copt != opt.Cluster || d.From != p.gen || nn <= oldN || len(cl.Assign) != nn {
		return rebuildDelta
	}
	minFrag := p.minFrag
	oldNC := len(p.cstate)
	newNC := len(cl.Clusters)
	if len(p.ids) != oldNC ||
		d.Prefix < 0 || d.Prefix > d.TailNew || d.TailNew > newNC ||
		d.Prefix > d.TailOld || d.TailOld > oldNC ||
		d.TailNew-d.Prefix != len(d.Dirty) ||
		newNC-d.TailNew != oldNC-d.TailOld {
		return rebuildDelta
	}
	// Validate the whole delta and count retirements before mutating any
	// shared state (the per-rank maps are updated in place below, and a
	// compaction-triggering advance must leave the prep untouched).
	var deaths int32
	claimed := make(map[int]bool, len(d.Dirty))
	for di, dr := range d.Dirty {
		if dr.OldIndex < 0 {
			continue
		}
		if dr.OldIndex < d.Prefix || dr.OldIndex >= d.TailOld || claimed[dr.OldIndex] {
			return rebuildDelta
		}
		claimed[dr.OldIndex] = true
		cc := &cl.Clusters[d.Prefix+di]
		os := &p.cstate[dr.OldIndex]
		if os.emitted {
			if int(os.nStored) != len(cc.Members)-len(dr.AddedPos) {
				return rebuildDelta
			}
			if !cc.Fixed {
				// Defensive: growth can't un-fix a cluster, but if it
				// ever did the fresh walk below retires the emission.
				deaths += os.nStored
			}
		} else if os.nStored != 0 {
			return rebuildDelta
		}
	}
	// Unclaimed clusters in the dirty region were rebuilt wholesale:
	// everything they stored dies.
	for oi := d.Prefix; oi < d.TailOld; oi++ {
		if !claimed[oi] {
			deaths += p.cstate[oi].nStored
		}
	}
	class := p.class
	st := p.stores[class]
	if 4*(st.dead+deaths) > st.n {
		return rebuildCompaction
	}

	newIDs := make([]int32, newNC)
	newState := make([]clustState, newNC)
	copy(newIDs, p.ids[:d.Prefix])
	copy(newState, p.cstate[:d.Prefix])
	shiftOld := d.TailOld - d.TailNew
	for ci := d.TailNew; ci < newNC; ci++ {
		newIDs[ci] = p.ids[ci+shiftOld]
		newState[ci] = p.cstate[ci+shiftOld]
	}

	var seg segSpans
	for di, dr := range d.Dirty {
		ci := d.Prefix + di
		cc := &cl.Clusters[ci]
		if dr.OldIndex >= 0 && p.cstate[dr.OldIndex].emitted && cc.Fixed {
			// Grown emitted cluster: append only the added members.
			cst := p.cstate[dr.OldIndex] // shares (and intentionally updates) the maps
			id := p.ids[dr.OldIndex]
			for _, ap := range dr.AddedPos {
				m := cc.Members[ap]
				f := frags.At(m)
				n := cst.perRank[f.Rank] + 1
				cst.perRank[f.Rank] = n
				if n == minFrag {
					// This rank just crossed coverage: everything it
					// already contributed flips covered at once.
					cst.fixedNS += cst.perRankNS[f.Rank]
				}
				if n >= minFrag {
					cst.fixedNS += f.Elapsed
				}
				cst.perRankNS[f.Rank] += f.Elapsed
				if e := f.Elapsed; e > 0 && e < cst.best {
					cst.best = e
				}
				st.emit(&seg, f, m, id)
				cst.nStored++
			}
			newIDs[ci] = id
			newState[ci] = cst
			continue
		}
		// Rebuilt composition, a cluster newly grown into emission, or a
		// still-small cluster: fresh walk under a fresh id (the old id —
		// if any — is simply not carried forward, which retires its
		// stored samples).
		id := p.nextID
		p.nextID++
		newIDs[ci] = id
		if !cc.Fixed {
			continue
		}
		cst := p.walkCluster(frags, cc)
		if cst.emitted {
			for _, m := range cc.Members {
				st.emit(&seg, frags.At(m), m, id)
			}
		}
		newState[ci] = cst
	}

	// Commit: retire dead ids in the slot map, install the new ones.
	for _, id := range p.ids {
		p.slotOf[id] = -1
	}
	for int(p.nextID) > len(p.slotOf) {
		p.slotOf = append(p.slotOf, -1)
	}
	for ci, id := range newIDs {
		p.slotOf[id] = int32(ci)
	}
	p.ids = newIDs
	p.cstate = newState
	st.dead += deaths

	// Scalar aggregates from the committed state.
	p.fixedAll[class] = 0
	p.fixedClusters, p.smallClusters = 0, 0
	for ci := range cl.Clusters {
		p.fixedAll[class] += newState[ci].fixedNS
		if cl.Clusters[ci].Fixed {
			p.fixedClusters++
		} else {
			p.smallClusters++
		}
	}
	fseg := segSpans{
		pos:     make([]int32, 0, nn-oldN),
		starts:  make([]int64, 0, nn-oldN),
		elapsed: make([]int64, 0, nn-oldN),
	}
	for i := oldN; i < nn; i++ {
		f := frags.At(i)
		fseg.push(int32(i), f.Start, f.Elapsed)
		p.totalAll[class] += f.Elapsed
	}
	st.samples.add(seg)
	st.frags.add(fseg)

	p.gen = gen
	p.nfrags = nn
	return advanced
}

// selectLive returns the live positions of st overlapping [start, end)
// (in segment order — see the file comment for why order is free), plus
// the covered elapsed sum over the selection.
func (p *prepElem) selectLive(st *sampleStore, start, end int64) (sel []int32, fixed int64) {
	for si := range st.samples.segs {
		s := &st.samples.segs[si]
		lo, hi := s.candidates(start, end)
		for i := lo; i < hi; i++ {
			if s.starts[i]+s.elapsed[i] <= start {
				continue
			}
			pos := s.pos[i]
			r, cid := st.at(pos)
			slot := p.slotOf[cid]
			if slot < 0 {
				continue // cluster rebuilt; sample retired
			}
			sel = append(sel, pos)
			if p.cstate[slot].perRank[int(r.rank)] >= p.minFrag {
				fixed += s.elapsed[i]
			}
		}
	}
	return sel, fixed
}

// sample materializes one stored record, deriving the mutable fields
// from current cluster state: Perf against the cluster's current
// fastest member, Covered from the current per-rank counts, ClusterRef
// through the slot map. ok is false for a retired sample.
func (p *prepElem) sample(st *sampleStore, pos int32) (s Sample, ok bool) {
	r, cid := st.at(pos)
	slot := p.slotOf[cid]
	if slot < 0 {
		return s, false
	}
	cst := &p.cstate[slot]
	s = Sample{Rank: int(r.rank), Start: r.start, Elapsed: r.elapsed, Perf: 1.0, FragIndex: int(r.frag)}
	if s.Elapsed > 0 {
		s.Perf = float64(cst.best) / float64(s.Elapsed)
	}
	s.Covered = cst.perRank[s.Rank] >= p.minFrag
	s.ClusterRef = p.ref
	s.ClusterRef.Cluster = int(slot)
	return s, true
}

// appendSamples materializes class c's contribution into buf: every
// live sample when sel is nil, the selected positions otherwise.
func (p *prepElem) appendSamples(buf []Sample, c Class, sel []int32) []Sample {
	st := p.stores[c]
	if sel != nil {
		for _, pos := range sel {
			s, _ := p.sample(st, pos)
			buf = append(buf, s)
		}
		return buf
	}
	for pos := int32(0); pos < st.n; pos++ {
		if s, ok := p.sample(st, pos); ok {
			buf = append(buf, s)
		}
	}
	return buf
}
