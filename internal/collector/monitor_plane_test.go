package collector

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// planeRanks is the rank count of the mixed monitor stream.
const planeRanks = 16

// mixedStream builds a deterministic 16-rank run that cycles each rank
// through a computation edge, a message send and a file read, with
// seeded jitter and one slowdown per class: computation on every fifth
// rank during [40ms, 70ms), communication on rank 7 during [20ms, 50ms)
// and IO on rank 12 during [55ms, 85ms). Batches are interleaved across
// ranks by the seeded RNG, each rank's batches in order.
func mixedStream(seed int64) []Batch {
	rng := rand.New(rand.NewSource(seed))
	perRank := make([][]Batch, planeRanks)
	for r := 0; r < planeRanks; r++ {
		t := int64(r) * 1_000
		var batch []trace.Fragment
		for i := 0; t < 100_000_000; i++ {
			f := trace.Fragment{Rank: r, Start: t}
			switch i % 3 {
			case 0:
				f.Kind, f.From, f.State = trace.Comp, 1, 2
				f.Elapsed = 1_000_000 + rng.Int63n(20_000)
				f.Counters = trace.CountersView{TotIns: 1_000_000, Cycles: 500_000}
				if r%5 == 0 && t >= 40_000_000 && t < 70_000_000 {
					f.Elapsed *= 2
				}
			case 1:
				f.Kind, f.From, f.State = trace.Comm, 2, 3
				f.Elapsed = 400_000 + rng.Int63n(10_000)
				f.Args = trace.Args{Op: trace.Op("Send"), Bytes: 4096, Peer: (r + 1) % planeRanks}
				if r == 7 && t >= 20_000_000 && t < 50_000_000 {
					f.Elapsed *= 2
				}
			default:
				f.Kind, f.From, f.State = trace.IO, 3, 1
				f.Elapsed = 300_000 + rng.Int63n(10_000)
				f.Args = trace.Args{Op: trace.Op("read"), Bytes: 65536, Peer: -1, FD: 3}
				if r == 12 && t >= 55_000_000 && t < 85_000_000 {
					f.Elapsed *= 3
				}
			}
			batch = append(batch, f)
			t += f.Elapsed
			if len(batch) == 1+rng.Intn(12) {
				perRank[r] = append(perRank[r], Batch{Rank: r, Fragments: batch})
				batch = nil
			}
		}
		if len(batch) > 0 {
			perRank[r] = append(perRank[r], Batch{Rank: r, Fragments: batch})
		}
	}
	var out []Batch
	heads := make([]int, planeRanks)
	for remaining := planeRanks; remaining > 0; {
		r := rng.Intn(planeRanks)
		if heads[r] == len(perRank[r]) {
			continue
		}
		out = append(out, perRank[r][heads[r]])
		if heads[r]++; heads[r] == len(perRank[r]) {
			remaining--
		}
	}
	return out
}

// planeOptions returns matching pool and monitor options for the mixed
// stream, with every class allowed to raise events.
func planeOptions(servers int) (Options, MonitorOptions) {
	opt := DefaultOptions()
	opt.Servers = servers
	opt.Period = 20 * sim.Millisecond
	opt.Overlap = 10 * sim.Millisecond
	opt.Detect.Window = 5 * sim.Millisecond
	mopt := DefaultMonitorOptions(planeRanks)
	mopt.Period, mopt.Overlap, mopt.Detect = opt.Period, opt.Overlap, opt.Detect
	mopt.MinRegionLoss = sim.Millisecond
	mopt.Classes = []detect.Class{detect.Computation, detect.Communication, detect.IOClass}
	return opt, mopt
}

// feedPlane delivers the stream to sink, then flushes and drains it.
func feedPlane(stream []Batch, sink interface {
	Consume(rank int, frags []trace.Fragment)
	Flush()
	Drain() []Event
}) []Event {
	for _, b := range stream {
		sink.Consume(b.Rank, b.Fragments)
	}
	sink.Flush()
	return sink.Drain()
}

// requireSameEvents compares two event streams exactly: window bounds,
// stage, armed groups and every region's class, rank range, cells,
// mean performance bits and loss.
func requireSameEvents(t *testing.T, label string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.WindowStart != w.WindowStart || g.WindowEnd != w.WindowEnd ||
			g.Stage != w.Stage || g.ArmedAfter != w.ArmedAfter || len(g.Regions) != len(w.Regions) {
			t.Fatalf("%s: event %d header differs:\n got [%v,%v) stage %d armed %v, %d regions\nwant [%v,%v) stage %d armed %v, %d regions",
				label, i, g.WindowStart, g.WindowEnd, g.Stage, g.ArmedAfter, len(g.Regions),
				w.WindowStart, w.WindowEnd, w.Stage, w.ArmedAfter, len(w.Regions))
		}
		for j := range w.Regions {
			gr, wr := g.Regions[j], w.Regions[j]
			if gr.Class != wr.Class || gr.RankMin != wr.RankMin || gr.RankMax != wr.RankMax ||
				gr.Cells != wr.Cells || gr.LossNS != wr.LossNS ||
				math.Float64bits(gr.MeanPerf) != math.Float64bits(wr.MeanPerf) {
				t.Fatalf("%s: event %d region %d differs:\n got %+v\nwant %+v", label, i, j,
					regionHeader(gr), regionHeader(wr))
			}
		}
	}
}

func regionHeader(r detect.Region) detect.Region {
	r.Samples = nil
	return r
}

// TestMonitorViewOrderInvariance: the monitor windows over its pool's
// merged view, whose per-element fragment order depends on how many
// servers the ranks are spread over. The events must not: a pool of
// 1, 2 or 4 servers fed the same stream reports identical events.
func TestMonitorViewOrderInvariance(t *testing.T) {
	classes := map[detect.Class]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		stream := mixedStream(seed)
		var base []Event
		for _, servers := range []int{1, 2, 4} {
			opt, mopt := planeOptions(servers)
			pool := NewPool(planeRanks, opt)
			if pool.Servers() != servers {
				t.Fatalf("pool has %d servers, want %d", pool.Servers(), servers)
			}
			events := feedPlane(stream, NewMonitor(pool, mopt))
			if servers == 1 {
				base = events
				for _, ev := range events {
					for _, reg := range ev.Regions {
						classes[reg.Class] = true
					}
				}
				continue
			}
			requireSameEvents(t, fmt.Sprintf("seed %d servers %d", seed, servers), events, base)
		}
		if len(base) == 0 {
			t.Fatalf("seed %d: the mixed stream raised no events", seed)
		}
	}
	if len(classes) < 2 {
		t.Fatalf("events cover only %d class(es); the stream should raise several", len(classes))
	}
}

// TestShardedMonitorMatchesMonitor: the two monitors share one window
// loop, so a sharded monitor over a one-shard tier reports exactly the
// events a monitor over a one-server pool does.
func TestShardedMonitorMatchesMonitor(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		stream := mixedStream(seed)
		opt, mopt := planeOptions(1)
		want := feedPlane(stream, NewMonitor(NewPool(planeRanks, opt), mopt))
		if len(want) == 0 {
			t.Fatalf("seed %d: no events", seed)
		}
		tier := NewShardedPool(planeRanks, 1, opt)
		got := feedPlane(stream, NewShardedMonitor(tier, mopt))
		tier.Close()
		requireSameEvents(t, fmt.Sprintf("seed %d sharded", seed), got, want)
	}
}

// TestMonitorHoldsNoSecondCopy: a monitor keeps no fragments of its
// own, so fronting a pool with one costs no more heap than the pool
// alone. The monitor waits for more ranks than report, so no window
// closes and the comparison is fragment storage only.
func TestMonitorHoldsNoSecondCopy(t *testing.T) {
	const total = 200_000
	feed := func(sink interface {
		Consume(rank int, frags []trace.Fragment)
	}) {
		rng := rand.New(rand.NewSource(1))
		batch := make([]trace.Fragment, 0, 50)
		next := make([]int64, planeRanks)
		for sent := 0; sent < total; {
			r := rng.Intn(planeRanks)
			batch = batch[:0]
			for i := 0; i < cap(batch); i++ {
				el := 1_000_000 + rng.Int63n(20_000)
				batch = append(batch, trace.Fragment{
					Rank: r, Kind: trace.Comp, From: uint64(1 + i%4), State: uint64(2 + i%4),
					Start: next[r], Elapsed: el,
					Counters: trace.CountersView{TotIns: 1_000_000, Cycles: 500_000},
				})
				next[r] += el
			}
			sink.Consume(r, batch)
			sent += len(batch)
		}
	}
	heapGrowth := func(build func() any) (uint64, any) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return after.HeapAlloc - before.HeapAlloc, keep
	}
	opt, mopt := planeOptions(1)
	mopt.Ranks = 2 * planeRanks
	poolBytes, keep := heapGrowth(func() any {
		pool := NewPool(planeRanks, opt)
		feed(pool)
		if n := pool.FragmentCount(); n != total {
			t.Fatalf("pool holds %d fragments, want %d", n, total)
		}
		return pool
	})
	runtime.KeepAlive(keep)
	keep = nil
	monBytes, keep := heapGrowth(func() any {
		pool := NewPool(planeRanks, opt)
		mon := NewMonitor(pool, mopt)
		feed(mon)
		if n := pool.FragmentCount(); n != total {
			t.Fatalf("monitored pool holds %d fragments, want %d", n, total)
		}
		if ev := mon.Drain(); len(ev) != 0 {
			t.Fatalf("a window closed: %d events", len(ev))
		}
		return mon
	})
	runtime.KeepAlive(keep)
	t.Logf("heap growth: pool %d B, monitor+pool %d B (%.2fx)", poolBytes, monBytes, float64(monBytes)/float64(poolBytes))
	if float64(monBytes) > 1.25*float64(poolBytes) {
		t.Fatalf("monitor+pool heap grew %d B, more than 1.25x the bare pool's %d B", monBytes, poolBytes)
	}
}
