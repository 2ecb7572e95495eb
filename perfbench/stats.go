package main

import (
	"math"
	"sort"

	"vapro/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// regDiff reads metric deltas between two registry snapshots.
type regDiff struct{ before, after obs.Snapshot }

func (d regDiff) value(s *obs.Snapshot, name string) float64 {
	if m := s.Get(name); m != nil {
		return m.Value
	}
	return 0
}

// delta is the change of a counter or counting Func.
func (d regDiff) delta(name string) float64 {
	return d.value(&d.after, name) - d.value(&d.before, name)
}

// histSum is the change of a histogram's sum.
func (d regDiff) histSum(name string) float64 {
	a, b := d.after.Get(name), d.before.Get(name)
	if a == nil || a.Hist == nil {
		return 0
	}
	s := float64(a.Hist.Sum)
	if b != nil && b.Hist != nil {
		s -= float64(b.Hist.Sum)
	}
	return s
}

// histQuantile is the q-quantile of the observations a histogram took
// during the phase (bucket-wise difference of the two snapshots).
func (d regDiff) histQuantile(name string, q float64) float64 {
	a, b := d.after.Get(name), d.before.Get(name)
	if a == nil || a.Hist == nil {
		return 0
	}
	h := obs.HistSnapshot{Bounds: a.Hist.Bounds, Counts: append([]uint64(nil), a.Hist.Counts...)}
	if b != nil && b.Hist != nil && len(b.Hist.Counts) == len(h.Counts) {
		for i := range h.Counts {
			h.Counts[i] -= b.Hist.Counts[i]
		}
	}
	for _, c := range h.Counts {
		h.Total += c
	}
	return h.Quantile(q)
}
