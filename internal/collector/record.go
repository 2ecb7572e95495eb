package collector

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vapro/internal/interpose"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Run recording: the record-now, analyze-later workflow the paper's
// tool uses when no server capacity is spared at run time. A recording
// is a delivery journal — the same wal.Log of sequenced wire batches a
// journaled server writes — plus a small JSON run manifest beside the
// segments holding what the frame stream cannot: the rank count, the
// run's makespan and the call-site names.

// ManifestFile is the run manifest's name inside a recorded journal
// directory. Its presence marks the directory as a whole-run recording
// rather than a server's delivery journal.
const ManifestFile = "manifest.json"

// manifestVersion is bumped on incompatible manifest changes.
const manifestVersion = 1

// RunManifest describes a recorded run.
type RunManifest struct {
	Version    int               `json:"version"`
	Ranks      int               `json:"ranks"`
	MakespanNS int64             `json:"makespan_ns"`
	SiteNames  map[uint64]string `json:"site_names,omitempty"`
}

// RecordSink journals every batch it consumes, then forwards it. Each
// batch is encoded as a sequenced wire frame (per-rank sequence numbers
// from 0) and appended to a wal.Log, so the recording replays through
// the same decoder as a server journal.
type RecordSink struct {
	next interpose.Sink
	log  *wal.Log

	mu  sync.Mutex
	seq map[int]uint64
	buf []byte
	err error // first append failure; later batches are not journaled
}

// NewRecordSink opens a fresh journal in dir in front of next. A
// directory that already holds a journal or a manifest is refused, so
// two runs never mix in one recording.
func NewRecordSink(dir string, next interpose.Sink) (*RecordSink, error) {
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err == nil || wal.HasSegments(dir) {
		return nil, fmt.Errorf("collector: %s already holds a journal", dir)
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	return &RecordSink{next: next, log: l, seq: make(map[int]uint64)}, nil
}

// Consume implements interpose.Sink.
func (s *RecordSink) Consume(rank int, frags []trace.Fragment) {
	s.mu.Lock()
	if s.err == nil {
		s.buf = trace.AppendBatchSeq(s.buf[:0], rank, s.seq[rank], frags)
		s.seq[rank]++
		s.err = s.log.Append(s.buf)
	}
	s.mu.Unlock()
	s.next.Consume(rank, frags)
}

// Close seals the journal and writes the run manifest beside it. It
// returns the first error the recording met; the manifest is written
// only when the journal is whole, and through a temporary file renamed
// into place, so a failed recording never leaves a manifest behind.
func (s *RecordSink) Close(m RunManifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("collector: recording to %s: %w", s.log.Dir(), err)
	}
	m.Version = manifestVersion
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := filepath.Join(s.log.Dir(), ManifestFile)
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		os.Remove(path + ".tmp")
		return err
	}
	return os.Rename(path+".tmp", path)
}

// readRunManifest reads and validates the manifest in dir.
func readRunManifest(dir string) (*RunManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	var m RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("collector: corrupt run manifest: %w", err)
	}
	switch {
	case m.Version != manifestVersion:
		return nil, fmt.Errorf("collector: run manifest version %d, want %d", m.Version, manifestVersion)
	case m.Ranks <= 0:
		return nil, fmt.Errorf("collector: run manifest without ranks")
	case m.MakespanNS < 0:
		return nil, fmt.Errorf("collector: run manifest with negative makespan")
	}
	return &m, nil
}

// LoadRecording reads a recorded run: its manifest, and the journaled
// frames decoded in journal order into one STG named by the manifest's
// call-sites. The directory is only read, never repaired: a damaged
// or missing segment, a frame that does not decode, a rank outside the
// manifest's rank space and a journal without frames are errors, and
// the files stay as they were.
func LoadRecording(dir string) (*RunManifest, *stg.Graph, error) {
	m, err := readRunManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	g := stg.New()
	frames := 0
	err = wal.ReadDir(dir, func(payload []byte) error {
		meta, frags, derr := trace.DecodeBatchMeta(payload)
		if derr != nil {
			return fmt.Errorf("collector: recorded frame undecodable: %w", derr)
		}
		if err := checkRanks(meta.Rank, frags, m.Ranks-1); err != nil {
			return fmt.Errorf("%w in a %d-rank recording", err, m.Ranks)
		}
		g.AddBatch(frags)
		frames++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if frames == 0 {
		return nil, nil, fmt.Errorf("collector: recording in %s holds no journaled frames", dir)
	}
	for k, n := range m.SiteNames {
		g.SetName(k, n)
	}
	return m, g, nil
}
