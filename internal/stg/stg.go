// Package stg implements the State Transition Graph of §3.2: vertices
// are program running states (call-sites or call-paths), edges are the
// transitions between them (the computation snippets separating two
// external invocations). Fragments attach to vertices (communication,
// IO, sync, probe invocations) and to edges (computation), which is the
// organization the fixed-workload clustering of §3.4 runs over.
package stg

import (
	"fmt"
	"sort"

	"vapro/internal/trace"
)

// Gen is an element's generation watermark, the handle consumers use to
// ask "what arrived since I last looked" instead of "did anything
// change". Each element's fragments are an append-only Log: Count is
// the log length (one generation per appended fragment) and Epoch
// identifies the log itself. Epoch moves only when the log is
// wholesale-replaced by one that is not provably an extension of it
// (see PutVertex) — after an epoch bump, positions from older
// generations are meaningless and consumers must re-read everything.
// The zero Gen is "before anything", valid against any element.
//
// Downstream incremental consumers (cluster.Cache and the detect preps)
// key their memoized per-element state on Gen and use Count deltas to
// process only the newly appended suffix.
type Gen struct {
	Epoch uint64
	Count uint64
}

// Before reports whether g is an earlier watermark of the same append
// log as cur — i.e. the fragments at positions [g.Count, cur.Count) are
// exactly what arrived between the two observations.
func (g Gen) Before(cur Gen) bool {
	return g.Epoch == cur.Epoch && g.Count <= cur.Count
}

// elem is the fragment state Vertex and Edge share.
type elem struct {
	Fragments Log
	// Gen is the generation watermark of the fragment log (see Gen).
	Gen Gen
	// MinStart/MaxEnd bound the time spans of the attached fragments
	// ([MinStart, MaxEnd)), maintained on append so window overlap
	// checks can reject whole elements without scanning fragments.
	MinStart, MaxEnd int64
}

// Vertex is one running state with the invocation fragments observed in
// that state.
type Vertex struct {
	Key  uint64
	Name string
	Kind trace.Kind // dominant fragment kind at this vertex
	elem
}

// Edge is one state transition with the computation fragments observed
// on it.
type Edge struct {
	Key trace.EdgeKey
	elem
}

// append adds frags to the element's own log: one generation per
// fragment, bounds widened over the batch.
func (e *elem) append(frags ...trace.Fragment) {
	if len(frags) == 0 {
		return
	}
	if e.Fragments.Len() == 0 {
		e.MinStart, e.MaxEnd = frags[0].Start, frags[0].End()
	}
	e.Fragments.Append(frags...)
	e.Gen.Count += uint64(len(frags))
	e.widen(frags)
}

// widen extends the element's span bounds over run.
func (e *elem) widen(run []trace.Fragment) {
	for i := range run {
		e.MinStart = min(e.MinStart, run[i].Start)
		e.MaxEnd = max(e.MaxEnd, run[i].End())
	}
}

// put replaces the element's log by frags and returns the change in
// fragment count. Gen.Count becomes the log length, which is the
// watermark an equivalent run of appends would carry, so downstream
// memoization keys stay aligned. The epoch is kept when the old log is
// provably a prefix of frags (Log.extends) — the replacement is then
// indistinguishable from a run of appends, and only the new suffix is
// scanned for bounds; anything else rebases onto a new epoch.
func (e *elem) put(frags Log) int {
	delta := frags.Len() - e.Fragments.Len()
	from := e.Fragments.Len()
	if !frags.extends(&e.Fragments) {
		e.Gen.Epoch++
		from = 0
	}
	e.Gen.Count = uint64(frags.Len())
	e.Fragments = frags
	if from == 0 {
		e.MinStart, e.MaxEnd = 0, 0
		if frags.Len() > 0 {
			f := frags.At(0)
			e.MinStart, e.MaxEnd = f.Start, f.End()
		}
	}
	e.Fragments.Runs(from, frags.Len(), func(_ int, run []trace.Fragment) { e.widen(run) })
	return delta
}

// Graph is a State Transition Graph built from a fragment stream. The
// zero value is not ready; construct with New. Graph is not safe for
// concurrent mutation; the collector serializes Add calls per graph.
type Graph struct {
	vertices map[uint64]*Vertex
	edges    map[trace.EdgeKey]*Edge
	names    map[uint64]string
	frags    int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[uint64]*Vertex),
		edges:    make(map[trace.EdgeKey]*Edge),
		names:    make(map[uint64]string),
	}
}

// SetName records a human-readable name for a state key (for reports).
func (g *Graph) SetName(key uint64, name string) { g.names = setName(g.names, key, name) }

func setName(m map[uint64]string, key uint64, name string) map[uint64]string {
	if name != "" {
		if _, ok := m[key]; !ok {
			m[key] = name
		}
	}
	return m
}

// EachName calls fn for every recorded state name (iteration order is
// unspecified).
func (g *Graph) EachName(fn func(key uint64, name string)) {
	for k, n := range g.names {
		fn(k, n)
	}
}

// Name returns the recorded name of a state key.
func (g *Graph) Name(key uint64) string {
	if n, ok := g.names[key]; ok {
		return n
	}
	if key == trace.EntryState.Key {
		return trace.EntryState.Name
	}
	return fmt.Sprintf("state(%x)", key)
}

// edge returns the edge for key, creating it empty if needed.
func (g *Graph) edge(key trace.EdgeKey) *Edge {
	e, ok := g.edges[key]
	if !ok {
		e = &Edge{Key: key}
		g.edges[key] = e
	}
	return e
}

// vertex returns the vertex for key, creating it with kind if needed.
func (g *Graph) vertex(key uint64, kind trace.Kind) *Vertex {
	v, ok := g.vertices[key]
	if !ok {
		v = &Vertex{Key: key, Kind: kind}
		g.vertices[key] = v
	}
	return v
}

// Add attaches one fragment: computation fragments to the edge
// (From→State), everything else to the vertex State.
func (g *Graph) Add(f trace.Fragment) {
	g.frags++
	if f.Kind == trace.Comp {
		g.edge(f.Edge()).append(f)
		return
	}
	g.vertex(f.State, f.Kind).append(f)
}

// PutVertex wholesale-replaces (or creates) a vertex's log. The
// collector's merged view uses this to alias a server's log snapshot
// (see Log): each refresh puts a longer snapshot of the same log, which
// keeps the epoch, while a log that does not extend the old one
// rebases it (see elem.put). A fresh log the caller built becomes the
// vertex's own; a snapshot stays read-only, so ExtendVertex on it
// panics. kind is (re)assigned on every call — a replaced element's
// dominant kind can change when its sources do.
func (g *Graph) PutVertex(key uint64, kind trace.Kind, frags Log) {
	v := g.vertex(key, kind)
	v.Kind = kind
	g.frags += v.put(frags)
}

// PutEdge wholesale-replaces (or creates) an edge's log (see
// PutVertex).
func (g *Graph) PutEdge(key trace.EdgeKey, frags Log) {
	g.frags += g.edge(key).put(frags)
}

// ExtendVertex appends newFrags to a vertex's own log (creating the
// vertex if needed). An extend IS a run of appends, exactly like Add,
// just batched, so the epoch is preserved by construction. The
// collector's merged view uses this to keep cross-server elements'
// epochs warm: each refresh appends only the per-server suffixes its
// cursors report as new.
func (g *Graph) ExtendVertex(key uint64, kind trace.Kind, newFrags []trace.Fragment) {
	if len(newFrags) == 0 {
		return
	}
	g.frags += len(newFrags)
	g.vertex(key, kind).append(newFrags...)
}

// ExtendEdge appends newFrags to an edge's own log (see ExtendVertex).
func (g *Graph) ExtendEdge(key trace.EdgeKey, newFrags []trace.Fragment) {
	if len(newFrags) == 0 {
		return
	}
	g.frags += len(newFrags)
	g.edge(key).append(newFrags...)
}

// Bounds returns the [min Start, max End) envelope over every fragment
// in the graph, or ok=false when the graph holds no fragments.
func (g *Graph) Bounds() (minStart, maxEnd int64, ok bool) {
	for _, e := range g.edges {
		if e.Fragments.Len() == 0 {
			continue
		}
		if !ok {
			minStart, maxEnd, ok = e.MinStart, e.MaxEnd, true
		} else {
			minStart = min(minStart, e.MinStart)
			maxEnd = max(maxEnd, e.MaxEnd)
		}
	}
	for _, v := range g.vertices {
		if v.Fragments.Len() == 0 {
			continue
		}
		if !ok {
			minStart, maxEnd, ok = v.MinStart, v.MaxEnd, true
		} else {
			minStart = min(minStart, v.MinStart)
			maxEnd = max(maxEnd, v.MaxEnd)
		}
	}
	return minStart, maxEnd, ok
}

// Overlaps reports whether any fragment overlaps [start, end). Element
// bounds reject non-overlapping elements in O(1); only elements whose
// envelope intersects the window are scanned, because an envelope hit
// does not prove a fragment hit (spans can straddle a gap).
func (g *Graph) Overlaps(start, end int64) bool {
	for _, e := range g.edges {
		if e.overlaps(start, end) {
			return true
		}
	}
	for _, v := range g.vertices {
		if v.overlaps(start, end) {
			return true
		}
	}
	return false
}

func (e *elem) overlaps(start, end int64) bool {
	if e.Fragments.Len() == 0 || e.MinStart >= end || e.MaxEnd <= start {
		return false
	}
	for i := 0; i < e.Fragments.Len(); i++ {
		if f := e.Fragments.At(i); f.Start < end && f.End() > start {
			return true
		}
	}
	return false
}

// AddBatch attaches a batch of fragments.
func (g *Graph) AddBatch(frags []trace.Fragment) {
	for i := range frags {
		g.Add(frags[i])
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumFragments returns the total number of attached fragments.
func (g *Graph) NumFragments() int { return g.frags }

// Vertices returns the vertices sorted by key (deterministic iteration).
func (g *Graph) Vertices() []*Vertex {
	out := make([]*Vertex, 0, len(g.vertices))
	for _, v := range g.vertices {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Edges returns the edges sorted by key (deterministic iteration).
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.From != out[j].Key.From {
			return out[i].Key.From < out[j].Key.From
		}
		return out[i].Key.To < out[j].Key.To
	})
	return out
}

// Vertex returns the vertex for key, or nil.
func (g *Graph) Vertex(key uint64) *Vertex { return g.vertices[key] }

// Edge returns the edge for key, or nil.
func (g *Graph) Edge(key trace.EdgeKey) *Edge { return g.edges[key] }

// Successors returns the distinct destination states reachable from the
// state `from`, sorted.
func (g *Graph) Successors(from uint64) []uint64 {
	var out []uint64
	for k := range g.edges {
		if k.From == from {
			out = append(out, k.To)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds other into g (used when concatenating per-window graphs or
// per-server shards).
func (g *Graph) Merge(other *Graph) {
	addRun := func(_ int, run []trace.Fragment) {
		for i := range run {
			g.Add(run[i])
		}
	}
	for _, v := range other.Vertices() {
		v.Fragments.Runs(0, v.Fragments.Len(), addRun)
	}
	for _, e := range other.Edges() {
		e.Fragments.Runs(0, e.Fragments.Len(), addRun)
	}
	for k, n := range other.names {
		g.SetName(k, n)
	}
}

// Stats summarizes the graph for reports.
type Stats struct {
	Vertices, Edges int
	CompFragments   int
	CommFragments   int
	IOFragments     int
	OtherFragments  int
	TotalCompTime   int64 // ns
	TotalVertexTime int64 // ns
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: len(g.vertices), Edges: len(g.edges)}
	for _, e := range g.edges {
		s.CompFragments += e.Fragments.Len()
		e.Fragments.Runs(0, e.Fragments.Len(), func(_ int, run []trace.Fragment) {
			for i := range run {
				s.TotalCompTime += run[i].Elapsed
			}
		})
	}
	for _, v := range g.vertices {
		v.Fragments.Runs(0, v.Fragments.Len(), func(_ int, run []trace.Fragment) {
			for i := range run {
				s.TotalVertexTime += run[i].Elapsed
				switch run[i].Kind {
				case trace.Comm:
					s.CommFragments++
				case trace.IO:
					s.IOFragments++
				default:
					s.OtherFragments++
				}
			}
		})
	}
	return s
}

// String renders a compact dot-like description (small graphs only).
func (g *Graph) String() string {
	out := fmt.Sprintf("STG{%d vertices, %d edges, %d fragments}", len(g.vertices), len(g.edges), g.frags)
	return out
}
