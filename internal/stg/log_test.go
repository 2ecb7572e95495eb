package stg

import (
	"sync"
	"testing"

	"vapro/internal/trace"
)

func logFrag(i int) trace.Fragment {
	return trace.Fragment{Rank: i % 7, Kind: trace.Comp, Start: int64(i), Elapsed: int64(i%13 + 1)}
}

// checkLog verifies that l holds logFrag(0..n-1), through At and Runs.
func checkLog(t *testing.T, l *Log, n int) {
	t.Helper()
	if l.Len() != n {
		t.Fatalf("len %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i++ {
		if *l.At(i) != logFrag(i) {
			t.Fatalf("At(%d) = %+v", i, *l.At(i))
		}
	}
	next := 0
	l.Runs(0, n, func(off int, run []trace.Fragment) {
		if off != next || len(run) == 0 {
			t.Fatalf("run at %d (len %d), want offset %d", off, len(run), next)
		}
		for j := range run {
			if run[j] != logFrag(off+j) {
				t.Fatalf("run fragment %d = %+v", off+j, run[j])
			}
		}
		next += len(run)
	})
	if next != n {
		t.Fatalf("runs covered %d fragments, want %d", next, n)
	}
}

func TestLogAppendAcrossChunks(t *testing.T) {
	for _, batch := range []int{1, 3, ChunkLen - 1, ChunkLen + 2} {
		var l Log
		n := 0
		var stable []*trace.Fragment
		for n < 4*ChunkLen {
			frags := make([]trace.Fragment, batch)
			for j := range frags {
				frags[j] = logFrag(n + j)
			}
			l.Append(frags...)
			n += batch
			if cap(l.head) > ChunkLen {
				t.Fatalf("batch %d: first chunk grew to %d, past the chunk size", batch, cap(l.head))
			}
			// Once the first chunk is full nothing stored ever moves.
			for i, p := range stable {
				if l.At(i) != p {
					t.Fatalf("batch %d: fragment %d moved on append", batch, i)
				}
			}
			if stable == nil && n >= ChunkLen {
				for i := 0; i < n; i++ {
					stable = append(stable, l.At(i))
				}
			}
		}
		checkLog(t, &l, n)
		if len(l.tail) != (n-1)/ChunkLen {
			t.Fatalf("batch %d: %d tail chunks for %d fragments", batch, len(l.tail), n)
		}
	}
}

func TestLogEmptyAllocatesNothing(t *testing.T) {
	var l Log
	l.Append()
	if l.head != nil || l.tail != nil || l.origin != nil {
		t.Fatalf("empty log allocated: %+v", l)
	}
	if l = LogOf(nil); l.Len() != 0 || l.head != nil {
		t.Fatal("LogOf(nil) not empty")
	}
}

func TestLogSnapshotIsReadOnly(t *testing.T) {
	l := LogOf([]trace.Fragment{logFrag(0)})
	s := l.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("append to a snapshot did not panic")
		}
	}()
	s.Append(logFrag(1))
}

// TestLogSnapshotsRaceAppends runs a writer appending three chunks'
// worth of fragments one at a time against a reader that keeps
// snapshotting the log and re-reading everything the snapshot holds.
// Under -race this proves a snapshot shares no mutable memory with the
// writer beyond the lock-protected copy itself.
func TestLogSnapshotsRaceAppends(t *testing.T) {
	const total = 3 * ChunkLen
	var (
		mu   sync.Mutex
		log  Log
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			f := logFrag(i)
			mu.Lock()
			log.Append(f)
			mu.Unlock()
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		mu.Lock()
		snap := log.Snapshot()
		mu.Unlock()
		checkLog(t, &snap, snap.Len())
	}
	checkLog(t, &log, total)
}
