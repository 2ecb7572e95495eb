package stg

import (
	"unsafe"

	"vapro/internal/trace"
)

// ChunkLen is the fragment capacity of one log chunk: the most
// fragments that fit Go's largest small-object size class (32 KiB), so
// a chunk is a single pointer-free small object with a few bytes of
// class slack, and an element's tail waste is below 32 KiB.
const ChunkLen = (32 << 10) / int(unsafe.Sizeof(trace.Fragment{}))

// chunk is one fixed-capacity block of a Log. Fragment holds no
// pointers, so the garbage collector never scans a chunk.
type chunk [ChunkLen]trace.Fragment

// Log is an element's append-only fragment log. The first ChunkLen
// fragments live in head, which grows by doubling like a small slice
// (elements that stay small waste nothing new) and stops moving once it
// holds ChunkLen fragments; every later fragment lands in a
// fixed-capacity chunk that never moves either. An append therefore
// never copies a fragment that is already stored.
//
// A Log has one writer, the element that owns it. A copy of the Log
// value taken under the writer's lock is a snapshot: it reads positions
// [0, Len()) race-free while the writer keeps appending, because an
// append only writes positions at or past the snapshot's length and
// only ever replaces head by a fresh array. Snapshot marks the copy
// read-only, so appending to it panics instead of writing into chunks
// the owner shares.
//
// Every snapshot of one log carries that log's identity, so a snapshot
// is provably a prefix of every later snapshot of the same log; Put
// keeps an element's epoch on exactly that rule.
type Log struct {
	head []trace.Fragment // positions [0, min(n, ChunkLen))
	tail []*chunk         // positions [ChunkLen, n)
	n    int
	// origin identifies the log across snapshots: a one-byte
	// allocation made at the first append (an empty log allocates
	// nothing). It stays alive while any snapshot holds it, so no other
	// live log can share its address.
	origin *byte
	ro     bool // a snapshot: read-only
}

// LogOf returns a new log holding a copy of frags.
func LogOf(frags []trace.Fragment) Log {
	var l Log
	l.Append(frags...)
	return l
}

// Len returns the number of fragments in the log.
func (l *Log) Len() int { return l.n }

// At returns the fragment at position i. The fragment is shared with
// the log and every snapshot of it: read it, never write through it.
func (l *Log) At(i int) *trace.Fragment {
	if i < ChunkLen {
		return &l.head[i]
	}
	if i >= l.n {
		panic("stg: log index out of range")
	}
	i -= ChunkLen
	return &l.tail[i/ChunkLen][i%ChunkLen]
}

// Runs calls fn on the fragments at positions [from, to) as contiguous
// runs, in order; off is the log position of run[0]. The runs are
// shared with the log, as with At.
func (l *Log) Runs(from, to int, fn func(off int, run []trace.Fragment)) {
	if from < 0 || to > l.n {
		panic("stg: log range out of range")
	}
	for from < to {
		var run []trace.Fragment
		if from < ChunkLen {
			run = l.head[from:min(to, len(l.head))]
		} else {
			i := from - ChunkLen
			c, o := i/ChunkLen, i%ChunkLen
			run = l.tail[c][o:min(ChunkLen, o+to-from)]
		}
		fn(from, run)
		from += len(run)
	}
}

// Pick returns a fresh slice holding copies of the fragments at the
// given positions, in order (the member list of a cluster, typically).
func (l *Log) Pick(positions []int) []trace.Fragment {
	out := make([]trace.Fragment, len(positions))
	for i, p := range positions {
		out[i] = *l.At(p)
	}
	return out
}

// Snapshot returns a read-only copy of the log (see Log). The caller
// must hold whatever lock serializes the log's writer.
func (l *Log) Snapshot() Log {
	s := *l
	s.ro = true
	return s
}

// extends reports whether old is provably a prefix of l: old is empty,
// or both are snapshots of the same log and l is no shorter.
func (l *Log) extends(old *Log) bool {
	return old.n == 0 || (old.origin == l.origin && l.n >= old.n)
}

// Append adds frags at the end of the log. It panics on a snapshot.
func (l *Log) Append(frags ...trace.Fragment) {
	if len(frags) == 0 {
		return
	}
	if l.ro {
		panic("stg: append to a log snapshot")
	}
	if l.origin == nil {
		l.origin = new(byte)
	}
	for len(frags) > 0 {
		var k int
		if l.n < ChunkLen {
			if len(l.head) == cap(l.head) {
				grown := make([]trace.Fragment, len(l.head), min(max(2*cap(l.head), 1), ChunkLen))
				copy(grown, l.head)
				l.head = grown
			}
			k = min(len(frags), cap(l.head)-len(l.head))
			l.head = append(l.head, frags[:k]...)
		} else {
			o := (l.n - ChunkLen) % ChunkLen
			if o == 0 {
				l.tail = append(l.tail, new(chunk))
			}
			k = copy(l.tail[len(l.tail)-1][o:], frags)
		}
		l.n += k
		frags = frags[k:]
	}
}
