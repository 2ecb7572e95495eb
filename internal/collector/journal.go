package collector

import (
	"fmt"
	"math"

	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Delivery journal: the server-side half of the durability plane. The
// wire server appends every *delivered* frame's payload — post
// sequence dedup, in delivery order — to an append-only wal.Log before
// handing the batch to the sink. Because the journal holds exactly the
// delivered stream in delivery order, replaying it through a fresh
// pool reproduces the fragment logs, the sequence tracker (gaps,
// outages, restarts) and the monitor watermarks bit-identically to the
// uninterrupted run: duplicates were never journaled, so re-observing
// each journaled sequence number makes the same deliver/suppress
// decision the live server made.

// journalProvider is implemented by sinks (Pool via AttachJournal, and
// the Monitor / ShardSink forwards) that carry a
// delivery journal. The wire server probes it at ServeWire time, so
// attach the journal before starting the server.
type journalProvider interface {
	Journal() *wal.Log
}

// ReplayJournal feeds every journaled payload back through the sink,
// in journal (= original delivery) order: decode, re-observe the
// sequence number, deliver. Wire frame/byte counters advance so the
// rebuilt metrics surface reads like the uninterrupted run; nothing is
// re-journaled (the records are already durable). It returns the
// number of frames delivered.
//
// Call it on a freshly built sink before attaching the journal and
// accepting connections; a retransmit arriving after replay dedups
// against the rebuilt tracker exactly as it would have against the
// live one.
func ReplayJournal(jour *wal.Log, sink interface {
	Consume(rank int, frags []trace.Fragment)
}) (frames int, err error) {
	sized, _ := sink.(sizedSink)
	var seq *SeqTracker
	if ss, ok := sink.(seqStater); ok {
		seq = ss.SeqState()
	}
	var met *Metrics
	if mp, ok := sink.(metricsProvider); ok {
		met = mp.Metrics()
	}
	err = jour.Replay(func(payload []byte) error {
		meta, frags, derr := trace.DecodeBatchMeta(payload)
		if derr != nil {
			// Every journaled payload decoded once when it was live and
			// is CRC-guarded on disk, so this is real corruption, not a
			// torn tail (recovery already truncated those).
			return fmt.Errorf("collector: journaled frame undecodable: %w", derr)
		}
		if checkRanks(meta.Rank, frags, math.MaxInt32) != nil {
			// Journals written before the wire server checked ranks can
			// hold a hostile frame; skip it rather than crash the
			// restart.
			if met != nil {
				met.WireFramesRejected.Inc()
			}
			return nil
		}
		if meta.HasSeq && seq != nil {
			minStart, maxEnd := fragSpan(frags)
			deliver, gap := seq.Observe(meta.Rank, meta.Seq, minStart, maxEnd)
			if gap > 0 && met != nil {
				met.WireSeqGaps.Add(gap)
			}
			if !deliver {
				// Unreachable on a fresh tracker (dups were never
				// journaled) but kept for defense: replaying into a
				// non-empty sink must not double-deliver.
				if met != nil {
					met.WireDups.Inc()
				}
				return nil
			}
		}
		if sized != nil {
			sized.ConsumeSized(meta.Rank, frags, len(payload))
		} else {
			sink.Consume(meta.Rank, frags)
		}
		if met != nil {
			met.WireFrames.Inc()
			met.WireBytes.Add(uint64(len(payload)))
		}
		frames++
		return nil
	})
	return frames, err
}

// fragSpan returns the batch's virtual-time extent for outage
// bookkeeping, mirroring the wire server's per-frame scan.
func fragSpan(frags []trace.Fragment) (minStart, maxEnd int64) {
	minStart, maxEnd = int64(math.MaxInt64), int64(math.MinInt64)
	for i := range frags {
		if frags[i].Start < minStart {
			minStart = frags[i].Start
		}
		if e := frags[i].Start + frags[i].Elapsed; e > maxEnd {
			maxEnd = e
		}
	}
	return minStart, maxEnd
}

// AttachJournal hands the pool a delivery journal. The wire server
// probes Journal() from its sink, so attach before ServeWire; the pool
// takes no ownership (the serving process opened it and closes it).
func (p *Pool) AttachJournal(l *wal.Log) { p.jour = l }

// Journal returns the attached delivery journal, nil when none.
func (p *Pool) Journal() *wal.Log { return p.jour }
