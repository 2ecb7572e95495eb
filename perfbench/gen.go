package main

import (
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// shape selects the fragment mix a synthetic workload emits.
type shape int

const (
	// shape1D is a computation-heavy stream: 8 edges × 5 TOT_INS
	// classes, with 1 fragment in 32 an Allreduce. Almost all analysis
	// runs through 1-D clustering.
	shape1D shape = iota
	// shapeCommIO puts 5/8 of the fragments on communication vertices
	// and 2/8 on IO vertices, each state drawing its arguments from a
	// fixed palette of exact repeats, so most fragments are clustered
	// in several dimensions.
	shapeCommIO
	// shapeSubset is shape1D plus one edge that only the ranks in
	// genSpec.subset run; they spend half their fragments on it.
	shapeSubset
)

// Element keys of the synthetic streams.
const (
	edgeBase    = 1    // computation edge e runs From edgeBase+e to edgeBase+e+1
	subsetState = 500  // head of the rank-subset edge (From subsetState-1)
	commBase    = 1000 // communication vertex states
	ioBase      = 2000 // IO vertex states
)

// episode is one injected slowdown. Fragments of the episode's ranks
// and kind whose start lies in [origin+from, origin+to) take factor
// times longer; a whole-run episode applies at every virtual time.
// state, when non-zero, restricts the slowdown to one element (the
// fragment's State).
type episode struct {
	ranks    []int
	kind     trace.Kind
	state    uint64
	from, to int64
	whole    bool
	factor   int64
}

// genSpec fixes a synthetic stream. Two generators built from the same
// spec and seed emit byte-identical batches.
type genSpec struct {
	shape    shape
	ranks    int
	batch    int          // fragments per batch
	subset   map[int]bool // ranks that run the subset edge (shapeSubset)
	episodes []episode
}

// gen emits per-rank fragment batches round-robin over the ranks. Each
// rank keeps its own virtual clock, so the monitor's watermark moves
// one stride every few rounds and windows close at a steady pace.
type gen struct {
	spec   genSpec
	rng    *sim.RNG
	clocks []int64
	cursor int
	origin int64 // virtual time the timed episodes are relative to; -1 until set
	buf    []trace.Fragment
	frags  int
}

func newGen(spec genSpec, seed uint64) *gen {
	return &gen{
		spec:   spec,
		rng:    sim.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(spec.shape) + 1),
		clocks: make([]int64, spec.ranks),
		origin: -1,
	}
}

// clone returns an independent copy positioned where g is.
func (g *gen) clone() *gen {
	c := *g
	rng := *g.rng
	c.rng = &rng
	c.clocks = append([]int64(nil), g.clocks...)
	c.buf = nil
	return &c
}

// setOrigin anchors the timed episodes at the current virtual time, so
// they land in the phase that starts now whatever the phases before it
// sent.
func (g *gen) setOrigin() { g.origin = g.high() }

// high is the largest rank clock.
func (g *gen) high() int64 {
	var h int64
	for _, c := range g.clocks {
		if c > h {
			h = c
		}
	}
	return h
}

// watermark is the smallest rank clock: the virtual time every rank
// has passed.
func (g *gen) watermark() int64 {
	w := g.clocks[0]
	for _, c := range g.clocks[1:] {
		if c < w {
			w = c
		}
	}
	return w
}

// next returns the next batch. The slice aliases a buffer the
// following call overwrites; every consumer on the path copies or
// encodes the batch before returning.
func (g *gen) next() (rank int, frags []trace.Fragment) {
	rank = g.cursor
	g.cursor = (g.cursor + 1) % g.spec.ranks
	if cap(g.buf) < g.spec.batch {
		g.buf = make([]trace.Fragment, 0, g.spec.batch)
	}
	b := g.buf[:0]
	for i := 0; i < g.spec.batch; i++ {
		f := g.fragment(rank)
		f.Start = g.clocks[rank]
		f.Elapsed *= g.slowdown(&f)
		g.clocks[rank] += f.Elapsed
		b = append(b, f)
	}
	g.buf = b
	g.frags += len(b)
	return rank, b
}

// jitter returns base spread uniformly by ±5%, with one fragment in
// 256 a 1.5× outlier, so heat-map cells carry ordinary noise.
func (g *gen) jitter(base int64) int64 {
	el := base - base/20 + int64(g.rng.Intn(int(base/10)+1))
	if g.rng.Intn(256) == 0 {
		el += el / 2
	}
	return el
}

func (g *gen) compute(rank int) trace.Fragment {
	if g.spec.shape == shapeSubset && g.spec.subset[rank] && g.rng.Intn(2) == 0 {
		return trace.Fragment{
			Rank: rank, Kind: trace.Comp, From: subsetState - 1, State: subsetState,
			Elapsed:  g.jitter(800_000),
			Counters: trace.CountersView{TotIns: 4_000_000 + uint64(g.rng.Intn(1000))},
		}
	}
	e := uint64(g.rng.Intn(8))
	class := uint64(1 + g.rng.Intn(5))
	return trace.Fragment{
		Rank: rank, Kind: trace.Comp, From: edgeBase + e, State: edgeBase + e + 1,
		Elapsed:  g.jitter(int64(class) * 200_000),
		Counters: trace.CountersView{TotIns: class*1_000_000 + uint64(g.rng.Intn(1000))},
	}
}

func (g *gen) fragment(rank int) trace.Fragment {
	switch g.spec.shape {
	case shapeCommIO:
		switch r := g.rng.Intn(8); {
		case r < 5: // communication vertex, 4 exact byte classes per state
			st := g.rng.Intn(8)
			sz := 1 << uint(10+g.rng.Intn(4))
			return trace.Fragment{
				Rank: rank, Kind: trace.Comm, State: uint64(commBase + st),
				Elapsed: g.jitter(300_000 + int64(sz)*40),
				Args:    trace.Args{Op: trace.Op("Allreduce"), Bytes: sz, Peer: -1, Tag: st},
			}
		case r < 7: // IO vertex, 3 exact byte classes per state
			st := g.rng.Intn(4)
			sz := 1 << uint(12+g.rng.Intn(3))
			return trace.Fragment{
				Rank: rank, Kind: trace.IO, State: uint64(ioBase + st),
				Elapsed: g.jitter(200_000 + int64(sz)*20),
				Args:    trace.Args{Op: trace.Op("write"), Bytes: sz, FD: 3 + st},
			}
		}
		return g.compute(rank)
	default:
		if g.rng.Intn(32) == 0 {
			st := g.rng.Intn(8)
			return trace.Fragment{
				Rank: rank, Kind: trace.Comm, State: uint64(commBase + st),
				Elapsed: g.jitter(400_000),
				Args:    trace.Args{Op: trace.Op("Allreduce"), Bytes: 4096, Peer: -1, Tag: st},
			}
		}
		return g.compute(rank)
	}
}

// slowdown is the factor the active episodes apply to f, which already
// carries its start time.
func (g *gen) slowdown(f *trace.Fragment) int64 {
	k := int64(1)
	for i := range g.spec.episodes {
		ep := &g.spec.episodes[i]
		if ep.kind != f.Kind || (ep.state != 0 && ep.state != f.State) || !hasRank(ep.ranks, f.Rank) {
			continue
		}
		if ep.whole || (g.origin >= 0 && f.Start >= g.origin+ep.from && f.Start < g.origin+ep.to) {
			k *= ep.factor
		}
	}
	return k
}

func hasRank(ranks []int, r int) bool {
	for _, x := range ranks {
		if x == r {
			return true
		}
	}
	return false
}
