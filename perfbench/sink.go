package main

import (
	"sync"
	"time"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/obs"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// batchRec is everything the benchmark learns about one measured batch.
// Times are ns since the run's epoch; zero means the batch did not
// cross that layer (no client on a direct-fed workload).
type batchRec struct {
	rank, frags      int
	seq              int64 // the batch's per-rank sequence number; -1 when unknown
	phase            int
	due              int64 // when the batch was due to be sent
	genStart, genEnd int64
	consStart        int64 // ResilientClient.Consume
	consEnd          int64
	sinkStart        int64 // the sink call that delivered the batch
	sinkEnd          int64
	windows          int   // windows that sink call closed
	tickNS           int64 // analysis time inside the call (traced runs)
	stageNS          [5]int64
	delivered        bool
}

// Phases of a measured run.
const (
	phaseSaturated = iota + 1
	phaseOpen
	phaseApp
)

const ledgerChunk = 4096

// ledger holds the measured batches in send order. A generator pushes
// each batch before handing it to the client; the sink fills the entry
// of the batch it delivers. Entries live in fixed-size chunks, so
// growth never moves one, and every access takes mu: the generator and
// the wire server's connection goroutine meet only here.
type ledger struct {
	mu      sync.Mutex
	chunks  [][]batchRec
	n       int
	next    int // next entry the sink fills (delivery is FIFO on one connection)
	indexed bool
	badRank int // deliveries whose rank differs from the pushed batch
}

func (l *ledger) at(i int) *batchRec {
	for i/ledgerChunk >= len(l.chunks) {
		l.chunks = append(l.chunks, make([]batchRec, ledgerChunk))
	}
	return &l.chunks[i/ledgerChunk][i%ledgerChunk]
}

// reserve allocates the chunks of the first n entries up front, so a
// run that knows its batch count allocates none while it measures.
func (l *ledger) reserve(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > 0 {
		l.at(n - 1)
	}
}

// push appends a batch and returns its index.
func (l *ledger) push(r batchRec) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := l.n
	*l.at(i) = r
	l.n++
	return i
}

// update applies fn to entry i.
func (l *ledger) update(i int, fn func(*batchRec)) {
	l.mu.Lock()
	fn(l.at(i))
	l.mu.Unlock()
}

// deliver fills the next undelivered entry (or, unindexed, appends
// one: the app workload has no generator ahead of the sink).
func (l *ledger) deliver(r batchRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.indexed {
		r.delivered = true
		*l.at(l.n) = r
		l.n++
		l.next = l.n
		return
	}
	if l.next >= l.n {
		l.badRank++ // a delivery nobody sent
		return
	}
	e := l.at(l.next)
	l.next++
	if e.rank != r.rank || e.frags != r.frags {
		l.badRank++
	}
	e.sinkStart, e.sinkEnd = r.sinkStart, r.sinkEnd
	e.windows, e.tickNS, e.stageNS = r.windows, r.tickNS, r.stageNS
	e.delivered = true
}

// counts returns (pushed, delivered).
func (l *ledger) counts() (int, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n, l.next
}

// all returns a copy of every entry.
func (l *ledger) all() []batchRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]batchRec, l.n)
	for i := range out {
		out[i] = *l.at(i)
	}
	return out
}

// waitDelivered blocks until every pushed batch was delivered or the
// timeout passes, and reports whether delivery completed.
func (l *ledger) waitDelivered(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		n, d := l.counts()
		if d >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// consumer is the analysis side a timingSink fronts: a Monitor or a
// ShardedMonitor.
type consumer interface {
	Consume(rank int, frags []trace.Fragment)
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
}

// timingSink sits between the delivery path (ServeWire, the generator,
// or the traced ranks) and the monitor. It times every call, notes
// whether the call closed windows (vapro_detect_windows_total moved),
// and forwards Metrics, SeqState and Journal so the wire server keeps
// its sequence accounting and journaling. Calls are serialized: the
// monitor analyzes under its own lock anyway, and serializing is what
// lets a window-counter delta be attributed to the call that caused it.
type timingSink struct {
	next    consumer
	met     *collector.Metrics
	seq     *collector.SeqTracker
	jour    *wal.Log
	windows *obs.Counter      // one plane's window counter: moves once per tier tick
	detect  []*detect.Metrics // every plane's detect surface (traced runs)
	led     *ledger
	clock   *clock
	traced  bool

	mu sync.Mutex
	// high is each rank's virtual high-water mark, kept when the sink is
	// fed by traced ranks (no generator knows the watermark then).
	high map[int]int64
	// keep, when non-nil, collects copies of the first codecSample
	// batches for the offline codec and WAL timings.
	keep []sampleBatch
	seqs map[int]uint64
}

// Metrics, SeqState and Journal forward the monitor's surfaces; the
// wire server and ReplayJournal probe for them.
func (s *timingSink) Metrics() *collector.Metrics     { return s.met }
func (s *timingSink) SeqState() *collector.SeqTracker { return s.seq }
func (s *timingSink) Journal() *wal.Log               { return s.jour }

// Consume implements interpose.Sink (traced ranks, direct feeding).
func (s *timingSink) Consume(rank int, frags []trace.Fragment) {
	s.call(rank, frags, func() { s.next.Consume(rank, frags) })
}

// ConsumeSized is the wire server's delivery call.
func (s *timingSink) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	s.call(rank, frags, func() { s.next.ConsumeSized(rank, frags, bytes) })
}

func (s *timingSink) call(rank int, frags []trace.Fragment, fwd func()) {
	entered := s.clock.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.high != nil {
		h := s.high[rank]
		for i := range frags {
			if e := frags[i].Start + frags[i].Elapsed; e > h {
				h = e
			}
		}
		s.high[rank] = h
	}
	if s.keep != nil && len(s.keep) < codecSample {
		s.keep = append(s.keep, sampleBatch{rank: rank, seq: s.seqs[rank], frags: append([]trace.Fragment(nil), frags...)})
		s.seqs[rank]++
	}
	var before []planeSums
	if s.traced {
		before = sumDetect(s.detect)
	}
	w0 := s.windows.Load()
	start := s.clock.now()
	fwd()
	end := s.clock.now()
	r := batchRec{rank: rank, frags: len(frags), seq: -1, phase: phaseApp, due: entered,
		sinkStart: start, sinkEnd: end, windows: int(s.windows.Load() - w0)}
	if s.traced && r.windows > 0 {
		// Planes analyze concurrently: the slowest plane's window time
		// is the tick, and its stages are the tick's children.
		after := sumDetect(s.detect)
		for i := range after {
			if d := after[i].window - before[i].window; d > r.tickNS {
				r.tickNS = d
				for k := range r.stageNS {
					r.stageNS[k] = after[i].stage[k] - before[i].stage[k]
				}
			}
		}
	}
	s.led.deliver(r)
}

// planeSums are one plane's cumulative analysis times: its window time
// and its per-stage span time.
type planeSums struct {
	window int64
	stage  [5]int64
}

func sumDetect(ms []*detect.Metrics) []planeSums {
	out := make([]planeSums, len(ms))
	for i, m := range ms {
		out[i].window = m.WindowNS.Snapshot().Sum
		for k := range out[i].stage {
			out[i].stage[k] = m.Spans.Hist(k).Snapshot().Sum
		}
	}
	return out
}

// clock reads monotonic ns since a run's epoch.
type clock struct{ epoch time.Time }

func newClock() *clock      { return &clock{epoch: time.Now()} }
func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }
