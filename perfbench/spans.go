package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// span is one timed call of the traced run. Spans of one batch share
// (rank, seq); Parent is the index of the enclosing span, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Seq    int64  `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// batchSpans turns the ledger into the span tree of every delivered
// batch: batch → gen, client.consume, wire.transit, sink.consume →
// monitor.tick → detect.{prep,merge,map}. The tick is the analysis
// time the call's window-latency histogram grew by (the slowest plane's,
// for a sharded tier), placed at the end of the call; that plane's
// stages follow in pipeline order from the tick's start.
func batchSpans(recs []batchRec) []span {
	var out []span
	add := func(parent int, name string, b *batchRec, start, end int64) int {
		if end < start {
			end = start
		}
		out = append(out, span{ID: len(out), Parent: parent, Name: name, Rank: b.rank, Seq: b.seq, Start: start, End: end})
		return len(out) - 1
	}
	for i := range recs {
		b := &recs[i]
		if !b.delivered {
			continue
		}
		start := b.sinkStart
		if b.genEnd > 0 {
			start = b.genStart
		}
		root := add(-1, "batch", b, start, b.sinkEnd)
		if b.genEnd > 0 {
			add(root, "gen", b, b.genStart, b.genEnd)
		}
		if b.consEnd > 0 {
			add(root, "client.consume", b, b.consStart, b.consEnd)
			add(root, "wire.transit", b, b.consEnd, b.sinkStart)
		}
		sink := add(root, "sink.consume", b, b.sinkStart, b.sinkEnd)
		if b.windows == 0 {
			continue
		}
		ts := b.sinkEnd - b.tickNS
		if ts < b.sinkStart {
			ts = b.sinkStart
		}
		tick := add(sink, "monitor.tick", b, ts, b.sinkEnd)
		at := ts
		for _, st := range []struct {
			name string
			idx  int
		}{{"detect.prep", 0}, {"detect.merge", 3}, {"detect.map", 4}} {
			end := at + b.stageNS[st.idx]
			if end > b.sinkEnd {
				end = b.sinkEnd
			}
			add(tick, st.name, b, at, end)
			at = end
		}
	}
	return out
}

// selfRow is one layer's line of the self-time table.
type selfRow struct {
	name            string
	count           int
	totalNS, selfNS int64
}

// selfTimes sums, per span name, the span time and the self time: span
// time minus the part of it that child spans cover.
func selfTimes(spans []span) []selfRow {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	rows := map[string]*selfRow{}
	for i := range spans {
		s := &spans[i]
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, hi int64
		hi = s.Start
		for _, iv := range ivs {
			if iv[0] > hi {
				hi = iv[0]
			}
			if iv[1] > hi {
				covered += iv[1] - hi
				hi = iv[1]
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalNS += s.End - s.Start
		r.selfNS += s.End - s.Start - covered
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNS > out[j].selfNS })
	return out
}

// formatSelfTimes renders the self-time table.
func formatSelfTimes(rows []selfRow) string {
	var all int64
	for _, r := range rows {
		all += r.selfNS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.count,
			float64(r.totalNS)/1e6, float64(r.selfNS)/1e6, 100*ratio(float64(r.selfNS), float64(all)))
	}
	return b.String()
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
