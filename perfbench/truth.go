package main

import (
	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/trace"
)

// noiseCell is one injected (rank, heat-map bucket) cell of an alerted
// class: the ground truth miss_frac is scored against.
type noiseCell struct {
	class  detect.Class
	rank   int
	bucket int64
}

// noiseSpan is one injected episode's extent: its class, its ranks and
// the virtual interval [from, to) it was active in.
type noiseSpan struct {
	class    detect.Class
	ranks    []int
	from, to int64
}

// truth is a workload's ground truth in virtual time: the noisy cells
// miss_frac is scored against, and the spans an event region must touch
// not to count as a false alarm.
type truth struct {
	cells []noiseCell
	spans []noiseSpan
}

// windowing is a monitor's analysis geometry. The stride is a whole
// number of heat-map buckets, so every window's cells line up with a
// global bucket grid.
type windowing struct {
	period, stride, bucket int64
}

// classOf maps a fragment kind to the heat-map class it lands in.
func classOf(k trace.Kind) detect.Class {
	switch k {
	case trace.Comm:
		return detect.Communication
	case trace.IO:
		return detect.IOClass
	}
	return detect.Computation
}

// alerted reports whether the monitor raises events for class c (its
// default classes: computation and IO).
func alerted(c detect.Class) bool { return c == detect.Computation || c == detect.IOClass }

// addSpan records noise on ranks over [from, to) in class c: every
// bucket the interval fully covers, up to end, becomes a truth cell.
func (t *truth) addSpan(w windowing, c detect.Class, ranks []int, from, to, end int64) {
	t.spans = append(t.spans, noiseSpan{class: c, ranks: ranks, from: from, to: to})
	if !alerted(c) {
		return
	}
	if to > end {
		to = end
	}
	for _, r := range ranks {
		for b := (from + w.bucket - 1) / w.bucket; (b+1)*w.bucket <= to; b++ {
			t.cells = append(t.cells, noiseCell{class: c, rank: r, bucket: b})
		}
	}
}

// genTruth derives the ground truth of a synthetic stream whose timed
// episodes started at origin, scored over the analyzed range [0, end).
func genTruth(spec genSpec, w windowing, origin, end int64) truth {
	var t truth
	for _, ep := range spec.episodes {
		from, to := origin+ep.from, origin+ep.to
		if ep.whole {
			from, to = 0, end
		}
		t.addSpan(w, classOf(ep.kind), ep.ranks, from, to, end)
	}
	return t
}

// score is the detection quality of one run.
type score struct {
	missFrac, falseAlarmFrac float64
	cells, windows           int
}

// explained reports whether some noise span accounts for reg, an event
// region whose buckets start at base: the span has the region's class,
// one of its ranks lies in the region's rank range, and it overlaps the
// region's time, widened by one bucket for slowed fragments that run
// past the span's end.
func (t truth) explained(w windowing, base int64, reg detect.Region) bool {
	from := (base + int64(reg.WinMin)) * w.bucket
	to := (base + int64(reg.WinMax) + 1) * w.bucket
	for _, sp := range t.spans {
		if sp.class != reg.Class || from >= sp.to+w.bucket || sp.from >= to {
			continue
		}
		for _, r := range sp.ranks {
			if r >= reg.RankMin && r <= reg.RankMax {
				return true
			}
		}
	}
	return false
}

// scoreEvents scores the monitor's events against the truth. A cell is
// covered when an event region of its class spans its rank and bucket.
// A window raised a false alarm when one of its event regions is not
// explained by any noise span; the share is taken over every analyzed
// window, so a whole-run episode on a few ranks leaves the rest of the
// ranks open to false alarms.
func scoreEvents(t truth, w windowing, windows int, events []collector.Event) score {
	s := score{windows: windows}
	covered := func(c noiseCell) bool {
		for i := range events {
			base := int64(events[i].WindowStart) / w.bucket
			for _, reg := range events[i].Regions {
				if reg.Class == c.class && c.rank >= reg.RankMin && c.rank <= reg.RankMax &&
					c.bucket >= base+int64(reg.WinMin) && c.bucket <= base+int64(reg.WinMax) {
					return true
				}
			}
		}
		return false
	}
	missed := 0
	for _, c := range t.cells {
		if !covered(c) {
			missed++
		}
	}
	s.cells = len(t.cells)
	if s.cells > 0 {
		s.missFrac = float64(missed) / float64(s.cells)
	}
	alarmed := map[int64]bool{}
	for i := range events {
		base := int64(events[i].WindowStart) / w.bucket
		for _, reg := range events[i].Regions {
			if !t.explained(w, base, reg) {
				alarmed[int64(events[i].WindowStart)] = true
				break
			}
		}
	}
	if windows > 0 {
		s.falseAlarmFrac = float64(len(alarmed)) / float64(windows)
	}
	return s
}
