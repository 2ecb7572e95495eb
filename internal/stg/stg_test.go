package stg

import (
	"testing"
	"testing/quick"

	"vapro/internal/trace"
)

func fragComp(rank int, from, to uint64, start, elapsed int64) trace.Fragment {
	return trace.Fragment{Rank: rank, Kind: trace.Comp, From: from, State: to, Start: start, Elapsed: elapsed}
}

func fragComm(rank int, state uint64, start, elapsed int64) trace.Fragment {
	return trace.Fragment{Rank: rank, Kind: trace.Comm, State: state, Start: start, Elapsed: elapsed}
}

func TestAddRouting(t *testing.T) {
	g := New()
	g.Add(fragComp(0, 1, 2, 0, 10))
	g.Add(fragComm(0, 2, 10, 5))
	if g.NumEdges() != 1 || g.NumVertices() != 1 || g.NumFragments() != 2 {
		t.Fatalf("routing: %s", g)
	}
	if e := g.Edge(trace.EdgeKey{From: 1, To: 2}); e == nil || e.Fragments.Len() != 1 {
		t.Fatal("comp fragment not on edge")
	}
	if v := g.Vertex(2); v == nil || v.Fragments.Len() != 1 || v.Kind != trace.Comm {
		t.Fatal("comm fragment not on vertex")
	}
}

func TestSuccessors(t *testing.T) {
	g := New()
	g.Add(fragComp(0, 1, 2, 0, 1))
	g.Add(fragComp(0, 1, 3, 0, 1))
	g.Add(fragComp(0, 2, 3, 0, 1))
	succ := g.Successors(1)
	if len(succ) != 2 || succ[0] != 2 || succ[1] != 3 {
		t.Fatalf("successors: %v", succ)
	}
}

func TestDeterministicIteration(t *testing.T) {
	build := func() *Graph {
		g := New()
		for i := uint64(0); i < 50; i++ {
			g.Add(fragComp(0, i, i+1, 0, 1))
			g.Add(fragComm(0, i, 0, 1))
		}
		return g
	}
	a, b := build(), build()
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i].Key != be[i].Key {
			t.Fatal("edge iteration order not deterministic")
		}
	}
	av, bv := a.Vertices(), b.Vertices()
	for i := range av {
		if av[i].Key != bv[i].Key {
			t.Fatal("vertex iteration order not deterministic")
		}
	}
}

// Property: fragment conservation — every added fragment is findable,
// and Merge preserves the total.
func TestFragmentConservation(t *testing.T) {
	f := func(seeds []uint16) bool {
		g1, g2 := New(), New()
		n := 0
		for i, s := range seeds {
			fr := fragComp(i%4, uint64(s%7), uint64(s%5), int64(i), 1)
			if s%3 == 0 {
				fr.Kind = trace.Comm
			}
			if i%2 == 0 {
				g1.Add(fr)
			} else {
				g2.Add(fr)
			}
			n++
		}
		g1.Merge(g2)
		return g1.NumFragments() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsMaintainedOnAdd(t *testing.T) {
	g := New()
	if _, _, ok := g.Bounds(); ok {
		t.Fatal("empty graph reported bounds")
	}
	g.Add(fragComp(0, 1, 2, 100, 50)) // [100, 150)
	g.Add(fragComp(0, 1, 2, 20, 10))  // [20, 30)
	g.Add(fragComm(0, 2, 400, 25))    // [400, 425)
	e := g.Edge(trace.EdgeKey{From: 1, To: 2})
	if e.MinStart != 20 || e.MaxEnd != 150 {
		t.Fatalf("edge bounds [%d, %d)", e.MinStart, e.MaxEnd)
	}
	v := g.Vertex(2)
	if v.MinStart != 400 || v.MaxEnd != 425 {
		t.Fatalf("vertex bounds [%d, %d)", v.MinStart, v.MaxEnd)
	}
	lo, hi, ok := g.Bounds()
	if !ok || lo != 20 || hi != 425 {
		t.Fatalf("graph bounds [%d, %d) ok=%v", lo, hi, ok)
	}
}

// TestOverlapsExactOnGaps: element envelopes can cover a window that no
// fragment touches; Overlaps must confirm per fragment, not per bound.
func TestOverlapsExactOnGaps(t *testing.T) {
	g := New()
	g.Add(fragComp(0, 1, 2, 0, 10))   // [0, 10)
	g.Add(fragComp(0, 1, 2, 200, 10)) // [200, 210)
	if !g.Overlaps(0, 5) || !g.Overlaps(205, 300) {
		t.Fatal("missed real overlap")
	}
	if g.Overlaps(50, 150) {
		t.Fatal("bounds-gap window reported as overlapping")
	}
	if g.Overlaps(10, 200) {
		t.Fatal("half-open boundary treated as overlap")
	}
}

func TestPutMatchesAdd(t *testing.T) {
	added, put := New(), New()
	frags := []trace.Fragment{
		fragComp(0, 1, 2, 50, 10),
		fragComp(1, 1, 2, 5, 10),
	}
	vfrags := []trace.Fragment{fragComm(0, 9, 70, 5)}
	for _, f := range frags {
		added.Add(f)
	}
	for _, f := range vfrags {
		added.Add(f)
	}
	put.PutEdge(trace.EdgeKey{From: 1, To: 2}, LogOf(frags))
	put.PutVertex(9, trace.Comm, LogOf(vfrags))
	if put.NumFragments() != added.NumFragments() {
		t.Fatalf("frag count %d, want %d", put.NumFragments(), added.NumFragments())
	}
	ea, ep := added.Edge(trace.EdgeKey{From: 1, To: 2}), put.Edge(trace.EdgeKey{From: 1, To: 2})
	if ep.Gen.Count != ea.Gen.Count || ep.MinStart != ea.MinStart || ep.MaxEnd != ea.MaxEnd {
		t.Fatalf("edge meta: put %+v, add %+v", ep, ea)
	}
	va, vp := added.Vertex(9), put.Vertex(9)
	if vp.Gen.Count != va.Gen.Count || vp.MinStart != va.MinStart || vp.MaxEnd != va.MaxEnd || vp.Kind != va.Kind {
		t.Fatalf("vertex meta: put %+v, add %+v", vp, va)
	}
	// Replacing with a grown log adjusts the count and bounds. The log
	// is a fresh copy, not the one the edge holds, so nothing proves
	// the old fragments are its prefix: the watermark must take an
	// epoch bump.
	grown := LogOf(append(append([]trace.Fragment(nil), frags...), fragComp(2, 1, 2, 500, 10)))
	epoch0 := put.Edge(trace.EdgeKey{From: 1, To: 2}).Gen.Epoch
	put.PutEdge(trace.EdgeKey{From: 1, To: 2}, grown.Snapshot())
	if put.NumFragments() != 4 {
		t.Fatalf("frag count after regrow: %d", put.NumFragments())
	}
	if ep := put.Edge(trace.EdgeKey{From: 1, To: 2}); ep.MaxEnd != 510 || ep.Gen.Count != 3 || ep.Gen.Epoch != epoch0+1 {
		t.Fatalf("edge meta after regrow: %+v", ep)
	}
	// A later snapshot of the same log extends the one the edge holds,
	// so the epoch is kept.
	grown.Append(fragComp(3, 1, 2, 600, 10))
	put.PutEdge(trace.EdgeKey{From: 1, To: 2}, grown.Snapshot())
	if ep2 := put.Edge(trace.EdgeKey{From: 1, To: 2}); ep2.Gen.Epoch != epoch0+1 || ep2.Gen.Count != 4 || ep2.MaxEnd != 610 {
		t.Fatalf("edge after extension: %+v", ep2)
	}
}

func TestGenSince(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		g.Add(fragComp(0, 1, 2, int64(i*10), 5))
	}
	e := g.Edge(trace.EdgeKey{From: 1, To: 2})
	mark := e.Gen
	if mark.Count != 5 || !mark.Before(e.Gen) {
		t.Fatalf("gen %+v must be its own watermark", mark)
	}
	for i := 5; i < 8; i++ {
		g.Add(fragComp(0, 1, 2, int64(i*10), 5))
	}
	// Positions [mark.Count, e.Gen.Count) are what arrived since mark.
	if !mark.Before(e.Gen) || e.Gen.Count != 8 || e.Fragments.At(int(mark.Count)).Start != 50 {
		t.Fatalf("since(mark): gen %+v", e.Gen)
	}
	// A watermark from another epoch is unanswerable.
	if (Gen{Epoch: mark.Epoch + 1, Count: 1}).Before(e.Gen) {
		t.Fatal("cross-epoch watermark must not be before")
	}
	// A watermark from the future (count beyond the log) likewise.
	if (Gen{Epoch: e.Gen.Epoch, Count: e.Gen.Count + 1}).Before(e.Gen) {
		t.Fatal("future watermark must not be before")
	}
}

func TestStats(t *testing.T) {
	g := New()
	g.Add(fragComp(0, 1, 2, 0, 100))
	g.Add(fragComm(0, 2, 100, 50))
	g.Add(trace.Fragment{Rank: 0, Kind: trace.IO, State: 3, Elapsed: 25})
	s := g.Stats()
	if s.CompFragments != 1 || s.CommFragments != 1 || s.IOFragments != 1 {
		t.Fatalf("stats counts: %+v", s)
	}
	if s.TotalCompTime != 100 || s.TotalVertexTime != 75 {
		t.Fatalf("stats times: %+v", s)
	}
}

func TestNames(t *testing.T) {
	g := New()
	g.SetName(5, "cg.f:1170")
	if g.Name(5) != "cg.f:1170" {
		t.Fatal("name not recorded")
	}
	if g.Name(trace.EntryState.Key) != trace.EntryState.Name {
		t.Fatal("entry name missing")
	}
	if g.Name(999) == "" {
		t.Fatal("unknown key must render something")
	}
	// First name wins.
	g.SetName(5, "other")
	if g.Name(5) != "cg.f:1170" {
		t.Fatal("name overwritten")
	}
}

func TestMergeNames(t *testing.T) {
	a, b := New(), New()
	b.SetName(1, "site-a")
	a.Merge(b)
	if a.Name(1) != "site-a" {
		t.Fatal("merge dropped names")
	}
}

func TestExtendPreservesEpoch(t *testing.T) {
	g := New()
	// Extend on a missing element behaves like a run of Adds.
	g.ExtendEdge(trace.EdgeKey{From: 1, To: 2}, []trace.Fragment{
		fragComp(0, 1, 2, 0, 10), fragComp(1, 1, 2, 5, 10),
	})
	e := g.Edge(trace.EdgeKey{From: 1, To: 2})
	if e == nil || e.Gen != (Gen{Epoch: 0, Count: 2}) {
		t.Fatalf("extend-create gen: %+v", e)
	}
	if e.MinStart != 0 || e.MaxEnd != 15 {
		t.Fatalf("extend-create bounds: [%d,%d)", e.MinStart, e.MaxEnd)
	}
	// Repeated extends keep the epoch no matter how often the backing
	// array reallocates, and bounds/counts track every append.
	for i := 0; i < 100; i++ {
		g.ExtendEdge(e.Key, []trace.Fragment{fragComp(0, 1, 2, int64(20+i*10), 10)})
	}
	if e.Gen != (Gen{Epoch: 0, Count: 102}) {
		t.Fatalf("extend gen after growth: %+v", e.Gen)
	}
	if e.MaxEnd != 20+99*10+10 {
		t.Fatalf("extend bounds after growth: %d", e.MaxEnd)
	}
	if g.NumFragments() != 102 {
		t.Fatalf("fragment accounting: %d", g.NumFragments())
	}
	// Empty extends are no-ops (no watermark movement).
	g.ExtendEdge(e.Key, nil)
	if e.Gen.Count != 102 {
		t.Fatal("empty extend moved the watermark")
	}

	g.ExtendVertex(7, trace.Comm, []trace.Fragment{fragComm(0, 7, 0, 5)})
	g.ExtendVertex(7, trace.Comm, []trace.Fragment{fragComm(1, 7, 10, 5)})
	v := g.Vertex(7)
	if v == nil || v.Gen != (Gen{Epoch: 0, Count: 2}) || v.Kind != trace.Comm {
		t.Fatalf("vertex extend: %+v", v)
	}
	if v.MinStart != 0 || v.MaxEnd != 15 {
		t.Fatalf("vertex extend bounds: [%d,%d)", v.MinStart, v.MaxEnd)
	}
}

func TestExtendMatchesAdd(t *testing.T) {
	// A graph grown by ExtendEdge batches must be indistinguishable —
	// gen, bounds, fragments — from one grown by per-fragment Add.
	a, b := New(), New()
	batch := []trace.Fragment{
		fragComp(0, 1, 2, 0, 10), fragComp(1, 1, 2, 3, 4), fragComp(0, 1, 2, 20, 1),
	}
	for _, f := range batch {
		a.Add(f)
	}
	b.ExtendEdge(trace.EdgeKey{From: 1, To: 2}, batch)
	ae, be := a.Edge(trace.EdgeKey{From: 1, To: 2}), b.Edge(trace.EdgeKey{From: 1, To: 2})
	if ae.Gen != be.Gen || ae.MinStart != be.MinStart || ae.MaxEnd != be.MaxEnd || ae.Fragments.Len() != be.Fragments.Len() {
		t.Fatalf("extend != add: %+v vs %+v", ae, be)
	}
}

// TestPutLogKeepsEpochAcrossRealloc pins the prefix rule the merged
// view relies on: putting ever longer snapshots of one log keeps the
// epoch through every first-chunk reallocation and chunk boundary,
// and only a log that does not extend the held one rebases.
func TestPutLogKeepsEpochAcrossRealloc(t *testing.T) {
	src, view := New(), New()
	k := trace.EdgeKey{From: 1, To: 2}
	for i := 0; i < 3*ChunkLen+5; i++ {
		src.Add(fragComp(0, 1, 2, int64(i*10), 10))
		view.PutEdge(k, src.Edge(k).Fragments.Snapshot())
		if e := view.Edge(k); e.Gen != (Gen{Count: uint64(i + 1)}) || e.MaxEnd != int64(i*10+10) {
			t.Fatalf("after %d appends: gen %+v max end %d", i+1, e.Gen, e.MaxEnd)
		}
	}
	e := view.Edge(k)
	// A shrink is not an extension, even of the same log.
	older := src.Edge(k).Fragments.Snapshot()
	src.Add(fragComp(0, 1, 2, 0, 10))
	view.PutEdge(k, src.Edge(k).Fragments.Snapshot())
	view.PutEdge(k, older)
	if e.Gen != (Gen{Epoch: 1, Count: uint64(older.Len())}) {
		t.Fatalf("shrink kept the epoch: %+v", e.Gen)
	}
	// A copy holding the same fragments is a different log: rebase.
	var cp Log
	older.Runs(0, older.Len(), func(_ int, run []trace.Fragment) { cp.Append(run...) })
	view.PutEdge(k, cp)
	if e.Gen != (Gen{Epoch: 2, Count: uint64(older.Len())}) || e.MinStart != 0 {
		t.Fatalf("copy kept the epoch: %+v [%d,%d)", e.Gen, e.MinStart, e.MaxEnd)
	}

	src.Add(trace.Fragment{Rank: 0, Kind: trace.IO, State: 9, Start: 0, Elapsed: 5})
	view.PutVertex(9, trace.IO, src.Vertex(9).Fragments.Snapshot())
	src.Add(trace.Fragment{Rank: 1, Kind: trace.IO, State: 9, Start: 5, Elapsed: 5})
	view.PutVertex(9, trace.IO, src.Vertex(9).Fragments.Snapshot())
	if v := view.Vertex(9); v.Gen != (Gen{Count: 2}) || v.MaxEnd != 10 {
		t.Fatalf("vertex put rebased: %+v", v.Gen)
	}
}
