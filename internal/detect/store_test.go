package detect

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// TestSampleStoreHatchEquivalenceFuzz pins the store-backed incremental
// analyzer bit-identical to the batch oracle (DisableIncremental, a
// cold analyzer per burst) over every element shape the store carries:
// 1-D computation edges (zero-norm snippets and dense ties included),
// multi-D communication and IO vertices with zero-byte operations,
// mixed-kind vertices, and UseExtraMetrics runs. Norm jitter straddling
// the cut threshold keeps clusters re-forming, so stored samples retire
// and stores compact; the tallies below fail the test if any of those
// paths never ran across the schedules.
func TestSampleStoreHatchEquivalenceFuzz(t *testing.T) {
	schedules := 60
	if testing.Short() {
		schedules = 15
	}
	var tally storeFuzzTally
	t.Cleanup(func() {
		for name, n := range map[string]uint64{
			"advance": tally.advances.Load(), "comm/IO advance": tally.vertexAdvances.Load(),
			"retirement": tally.retired.Load(), "compaction": tally.compactions.Load(),
			"mixed rebuild": tally.mixed.Load(),
		} {
			if n == 0 {
				t.Errorf("no %s across %d schedules: the fuzz no longer covers that path", name, schedules)
			}
		}
	})
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("sched%03d", sched), func(t *testing.T) {
			t.Parallel()
			runStoreSchedule(t, int64(9300+sched), &tally)
		})
	}
}

type storeFuzzTally struct {
	advances, vertexAdvances, retired, compactions, mixed atomic.Uint64
}

func runStoreSchedule(t *testing.T, seed int64, tally *storeFuzzTally) {
	rng := rand.New(rand.NewSource(seed))
	ranks := 2 + rng.Intn(3)

	opt := DefaultOptions()
	opt.Window = sim.Duration(1+rng.Intn(15)) * sim.Millisecond
	opt.Threshold = []float64{0.7, 0.85, 0.95}[rng.Intn(3)]
	opt.Parallelism = rng.Intn(3)
	if rng.Intn(4) == 0 {
		opt.Cluster.MinFragments = 2
	}
	if rng.Intn(3) == 0 {
		opt.Cluster.UseExtraMetrics = true
	}

	g := stg.New()
	inc := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	inc.SetMetrics(met)

	clock := make([]int64, ranks)
	edges := []trace.EdgeKey{{From: 1, To: 2}, {From: 2, To: 3}}
	commOps := []trace.Args{
		{Op: trace.Op("Allreduce"), Bytes: 1 << 12, Peer: -1},
		{Op: trace.Op("Send"), Bytes: 1 << 16, Peer: 1, Tag: 7},
		{Op: trace.Op("Barrier")}, // zero bytes: a zero-norm seed
	}
	ioOps := []trace.Args{
		{Op: trace.Op("write"), Bytes: 1 << 20, FD: 3},
		{Op: trace.Op("read"), Bytes: 4096, FD: 4},
		{Op: trace.Op("fsync"), FD: 3}, // zero bytes
	}
	jitter := func(a trace.Args) trace.Args {
		// Straddle the 5% band now and then, so vertex clusters
		// re-form too.
		if a.Bytes > 0 && rng.Intn(4) == 0 {
			a.Bytes += rng.Intn(a.Bytes / 8)
		}
		return a
	}

	bursts := 4 + rng.Intn(5)
	for b := 0; b < bursts; b++ {
		n := 5 + rng.Intn(60)
		batch := make([]trace.Fragment, 0, n)
		for i := 0; i < n; i++ {
			rank := rng.Intn(ranks)
			if rng.Intn(12) == 0 {
				clock[rank] += int64(rng.Intn(30)) * 1_000_000
			}
			el := int64(200_000 + rng.Intn(2_000_000))
			f := trace.Fragment{Rank: rank, Start: clock[rank], Elapsed: el}
			switch rng.Intn(8) {
			case 0, 1: // all-comm vertex
				f.Kind, f.State, f.Args = trace.Comm, 20, jitter(commOps[rng.Intn(len(commOps))])
			case 2: // all-IO vertex
				f.Kind, f.State, f.Args = trace.IO, 21, jitter(ioOps[rng.Intn(len(ioOps))])
			case 3: // mixed-kind vertex
				f.State = 22
				if rng.Intn(2) == 0 {
					f.Kind, f.Args = trace.Comm, commOps[rng.Intn(len(commOps))]
				} else {
					f.Kind, f.Args = trace.IO, ioOps[rng.Intn(len(ioOps))]
				}
			default:
				ek := edges[rng.Intn(len(edges))]
				f.Kind, f.From, f.State = trace.Comp, ek.From, ek.To
				switch rng.Intn(4) {
				case 0: // zero-workload snippets
				case 1: // dense ties straddling the cut threshold
					f.Counters.TotIns = uint64(1 + rng.Intn(4))
				default:
					class := uint64(1 + rng.Intn(3))
					f.Counters.TotIns = class*100_000 + uint64(rng.Intn(7000))
				}
				f.Counters.LoadStores = f.Counters.TotIns / uint64(2+rng.Intn(2))
			}
			clock[rank] += el
			batch = append(batch, f)
		}
		g.AddBatch(batch)

		// A vertex prep that survives a pass under a new generation was
		// advanced, not rebuilt (a rebuild installs a fresh prep).
		before := make(map[*prepElem]stg.Gen)
		for key, p := range inc.preps {
			if !key.IsEdge {
				before[p] = p.gen
			}
		}
		bopt := opt
		bopt.DisableIncremental = true
		var got, want *Result
		if rng.Intn(2) == 0 {
			ws := int64(rng.Intn(30)) * 1_000_000
			we := ws + int64(5+rng.Intn(50))*1_000_000
			got = inc.RunWindow(g, ranks, opt, ws, we)
			want = NewAnalyzer().RunWindow(g, ranks, bopt, ws, we)
		} else {
			got = inc.Run(g, ranks, opt)
			want = NewAnalyzer().Run(g, ranks, bopt)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: store-backed result diverged from batch", b)
		}
		for _, p := range inc.preps {
			if gen, ok := before[p]; ok && gen != p.gen {
				tally.vertexAdvances.Add(1)
			}
			if st := p.stores[p.class]; st != nil && st.dead > 0 {
				tally.retired.Add(1)
			}
		}
	}
	tally.advances.Add(met.PrepIncremental.Load())
	tally.compactions.Add(met.PrepRebuildCompaction.Load())
	tally.mixed.Add(met.PrepRebuildMixed.Load())
}

// TestSampleStoreCommIOSteadyState streams exact-repeat palettes into
// one all-comm and one all-IO vertex for 48 bursts: after the cold
// build every generation must advance through the store — zero mixed,
// compaction or delta rebuilds — and stay identical to the batch
// oracle.
func TestSampleStoreCommIOSteadyState(t *testing.T) {
	const ranks = 4
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)

	rng := rand.New(rand.NewSource(11))
	pal := []trace.Fragment{
		{Kind: trace.Comm, State: 30, Args: trace.Args{Op: trace.Op("Allreduce"), Bytes: 1 << 12, Peer: -1}},
		{Kind: trace.Comm, State: 30, Args: trace.Args{Op: trace.Op("Send"), Bytes: 1 << 16, Peer: 1, Tag: 7}},
		{Kind: trace.Comm, State: 30, Args: trace.Args{Op: trace.Op("Barrier")}},
		{Kind: trace.IO, State: 31, Args: trace.Args{Op: trace.Op("write"), Bytes: 1 << 20, FD: 3}},
		{Kind: trace.IO, State: 31, Args: trace.Args{Op: trace.Op("read"), Bytes: 4096, FD: 4}},
	}
	clock := make([]int64, ranks)
	emit := func(f trace.Fragment, rank int) trace.Fragment {
		f.Rank, f.Start, f.Elapsed = rank, clock[rank], int64(300_000+rng.Intn(600_000))
		clock[rank] += f.Elapsed
		return f
	}
	// The cold burst carries every palette entry on every rank, so no
	// later append seeds a new cluster.
	var batch []trace.Fragment
	for rank := 0; rank < ranks; rank++ {
		for rep := 0; rep < 6; rep++ {
			for _, f := range pal {
				batch = append(batch, emit(f, rank))
			}
		}
	}
	for b := 0; b < 48; b++ {
		if b > 0 {
			batch = batch[:0]
			for i := 0; i < 24; i++ {
				batch = append(batch, emit(pal[rng.Intn(len(pal))], rng.Intn(ranks)))
			}
		}
		g.AddBatch(batch)
		var got, want *Result
		bopt := opt
		bopt.DisableIncremental = true
		if b%2 == 0 {
			got = a.Run(g, ranks, opt)
			want = NewAnalyzer().Run(g, ranks, bopt)
		} else {
			end := clock[0]
			got = a.RunWindow(g, ranks, opt, end-10_000_000, end)
			want = NewAnalyzer().RunWindow(g, ranks, bopt, end-10_000_000, end)
		}
		if !equalResults(got, want) {
			t.Fatalf("burst %d: result diverged from batch", b)
		}
	}
	if n := met.PrepRebuilds.Load() - met.PrepRebuildCold.Load(); n != 0 {
		t.Fatalf("%d non-cold prep rebuilds (mixed %d, compaction %d, delta %d)", n,
			met.PrepRebuildMixed.Load(), met.PrepRebuildCompaction.Load(), met.PrepRebuildDelta.Load())
	}
	if cold := met.PrepRebuildCold.Load(); cold != 2 {
		t.Fatalf("%d cold rebuilds, want one per vertex", cold)
	}
	if adv := met.PrepIncremental.Load(); adv != 2*47 {
		t.Fatalf("%d prep advances, want %d", adv, 2*47)
	}
}

// TestSampleStoreAdvanceAllocsScale pins the store advance at O(batch):
// advancing a comm vertex by 64-fragment batches allocates about the
// same per advance at ~100k resident samples as at ~10k (a path that
// re-copied the population per advance would show a 10x gap).
func TestSampleStoreAdvanceAllocsScale(t *testing.T) {
	small := storeAdvanceBytes(t, 10_000)
	large := storeAdvanceBytes(t, 100_000)
	t.Logf("bytes per 64-fragment advance: %.0f at 10k resident, %.0f at 100k", small, large)
	if large > 2*small {
		t.Fatalf("advance at 100k resident allocates %.0f B vs %.0f B at 10k: not O(batch)", large, small)
	}
}

// storeAdvanceBytes builds a comm vertex prep over resident fragments
// and returns the mean bytes one 64-fragment advance allocates
// (clustering runs outside the measurement).
func storeAdvanceBytes(t *testing.T, resident int) float64 {
	const batch, rounds = 64, 32
	rng := rand.New(rand.NewSource(3))
	pal := []trace.Args{
		{Op: trace.Op("Allreduce"), Bytes: 1 << 12, Peer: -1},
		{Op: trace.Op("Send"), Bytes: 1 << 16, Peer: 1, Tag: 7},
		{Op: trace.Op("Recv"), Bytes: 256, Peer: 0, Tag: 7},
		{Op: trace.Op("Barrier")},
	}
	var clock int64
	frag := func(i int) trace.Fragment {
		f := trace.Fragment{Rank: i % 64, Kind: trace.Comm, State: 40, Start: clock,
			Elapsed: int64(100_000 + rng.Intn(50_000)), Args: pal[i%len(pal)]}
		clock += 10_000
		return f
	}
	var frags stg.Log
	for i := 0; i < resident; i++ {
		frags.Append(frag(i))
	}
	opt := DefaultOptions()
	key := cluster.VertexKey(40)
	cache := cluster.NewCache()
	gen := stg.Gen{Count: uint64(frags.Len())}
	cl, _ := cache.RunInc(key, gen, frags, opt.Cluster)
	p := buildPrep(frags, cl, ClusterRef{Vertex: 40}, opt, gen)

	var total uint64
	var ms runtime.MemStats
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			frags.Append(frag(frags.Len()))
		}
		gen.Count = uint64(frags.Len())
		cl, d := cache.RunInc(key, gen, frags, opt.Cluster)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		reason := p.advance(frags, cl, d, opt, gen)
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
		if reason != advanced {
			t.Fatalf("resident %d round %d: advance refused (reason %d)", resident, r, reason)
		}
	}
	return float64(total) / rounds
}

// TestSampleStoreCompaction drives an edge whose head clusters keep
// re-forming (each burst's smaller norms move the greedy cut) while a
// large stable cluster keeps the per-burst dirty ratio low, so dead
// samples accumulate until the store refuses to advance and compacts.
// The analyzer must stay exact throughout and must actually compact.
func TestSampleStoreCompaction(t *testing.T) {
	g := stg.New()
	a := NewAnalyzer()
	met := NewMetrics(obs.NewRegistry())
	a.SetMetrics(met)
	opt := DefaultOptions()
	opt.Window = 5 * sim.Millisecond
	opt.Cluster.MinFragments = 2

	var clock int64
	emitBatch := func(norms []uint64) {
		batch := make([]trace.Fragment, 0, len(norms))
		for _, nv := range norms {
			el := int64(1_000_000)
			batch = append(batch, trace.Fragment{
				Rank: 0, Kind: trace.Comp, From: 1, State: 2,
				Start: clock, Elapsed: el,
				Counters: trace.CountersView{TotIns: nv},
			})
			clock += el
		}
		g.AddBatch(batch)
	}

	// Stable ballast far above the churning head region.
	ballast := make([]uint64, 400)
	for i := range ballast {
		ballast[i] = 50_000_000
	}
	head := make([]uint64, 0, 24)
	for i := 0; i < 12; i++ {
		head = append(head, 2_000_000)
	}
	for i := 0; i < 12; i++ {
		head = append(head, 2_090_000)
	}
	emitBatch(append(append([]uint64{}, ballast...), head...))

	check := func(b int) {
		got := a.Run(g, 1, opt)
		bopt := opt
		bopt.DisableIncremental = true
		want := NewAnalyzer().Run(g, 1, bopt)
		if !equalResults(got, want) {
			t.Fatalf("burst %d: result diverged from batch", b)
		}
	}
	check(-1)

	// Each burst shifts the head's cluster boundary downward: the head
	// clusters re-form (retiring their stored samples) while the
	// ballast cluster is untouched prefix/tail.
	norm := uint64(1_950_000)
	for b := 0; b < 40 && met.PrepRebuildCompaction.Load() == 0; b++ {
		emitBatch([]uint64{norm, norm, norm, norm})
		norm -= 45_000
		check(b)
	}
	if met.PrepRebuildCompaction.Load() == 0 {
		t.Fatalf("store never compacted (appends=%d, rebuilds=%d, advances=%d)",
			met.StoreAppends.Load(), met.PrepRebuilds.Load(), met.PrepIncremental.Load())
	}
}

// TestSampleStoreAppendAllocs pins the store append hot path: a full
// chunk costs three allocations per 1024 records (the first chunk a few
// more while it grows from storeFirstChunkCap), so a 4096-record
// append run must stay within a small constant (no per-record allocs).
func TestSampleStoreAppendAllocs(t *testing.T) {
	const n = 4096
	avg := testing.AllocsPerRun(10, func() {
		st := &sampleStore{}
		for i := 0; i < n; i++ {
			st.append(storeRec{start: int64(i), elapsed: 10, rank: int32(i & 3), frag: int32(i)}, int32(i&7))
		}
	})
	// First chunk ≈ 13 (struct + 6 geometric steps × 2 slices), 3 full
	// chunks × 3, chunk-pointer slice growth ≈ 3; leave headroom for
	// allocator noise but forbid anything per-record.
	if avg > 32 {
		t.Fatalf("sampleStore append allocated %.1f times per %d records; want <= 32", avg, n)
	}
}
