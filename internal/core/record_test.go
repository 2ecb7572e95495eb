package core

import (
	"maps"
	"os"
	"path/filepath"
	"testing"

	"vapro/internal/collector"
	"vapro/internal/trace"
)

type discardSink struct{}

func (discardSink) Consume(int, []trace.Fragment) {}

// writeRecording records a tiny two-rank run into dir, with or without
// journaled frames, and returns the manifest's bytes.
func writeRecording(t *testing.T, dir string, frames bool) []byte {
	t.Helper()
	rec, err := collector.NewRecordSink(dir, discardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if frames {
		for r := 0; r < 2; r++ {
			rec.Consume(r, []trace.Fragment{{Rank: r, Kind: trace.Comp, From: 1, State: 2, Elapsed: 1000}})
		}
	}
	if err := rec.Close(collector.RunManifest{Ranks: 2, MakespanNS: 1000}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, collector.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAnalyzeJournalRejectsBadRecordings: a hostile or missing
// manifest, or a manifest that does not describe its journal, is an
// error from AnalyzeJournal, never a panic.
func TestAnalyzeJournalRejectsBadRecordings(t *testing.T) {
	cases := []struct {
		name     string
		frames   bool
		manifest func(valid []byte) []byte // nil keeps the written one
		remove   string                    // glob of files to delete
		segment  func(seg []byte) []byte   // rewrites the journal's segment
	}{
		{name: "truncated manifest", frames: true, manifest: func(v []byte) []byte { return v[:len(v)/2] }},
		{name: "manifest not JSON", frames: true, manifest: func([]byte) []byte { return []byte("VWAL\x01") }},
		{name: "zero ranks", frames: true, manifest: func([]byte) []byte { return []byte(`{"version":1,"ranks":0,"makespan_ns":1000}`) }},
		{name: "negative ranks", frames: true, manifest: func([]byte) []byte { return []byte(`{"version":1,"ranks":-3,"makespan_ns":1000}`) }},
		{name: "negative makespan", frames: true, manifest: func([]byte) []byte { return []byte(`{"version":1,"ranks":2,"makespan_ns":-1}`) }},
		{name: "unknown version", frames: true, manifest: func([]byte) []byte { return []byte(`{"version":9,"ranks":2,"makespan_ns":1000}`) }},
		{name: "frame rank outside manifest ranks", frames: true, manifest: func([]byte) []byte { return []byte(`{"version":1,"ranks":1,"makespan_ns":1000}`) }},
		{name: "empty journal", frames: false},
		{name: "missing manifest", frames: true, remove: collector.ManifestFile},
		{name: "manifest without a journal", frames: true, remove: "wal-*.seg"},
		{name: "flipped byte in a segment", frames: true, segment: func(b []byte) []byte { b[len(b)-5] ^= 0x40; return b }},
		{name: "torn segment tail", frames: true, segment: func(b []byte) []byte { return b[:len(b)-3] }},
		{name: "bad segment header", frames: true, segment: func(b []byte) []byte { b[1] ^= 0xff; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			valid := writeRecording(t, dir, tc.frames)
			path := filepath.Join(dir, collector.ManifestFile)
			if tc.manifest != nil {
				if err := os.WriteFile(path, tc.manifest(valid), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.remove != "" {
				files, _ := filepath.Glob(filepath.Join(dir, tc.remove))
				for _, f := range files {
					if err := os.Remove(f); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.segment != nil {
				seg := filepath.Join(dir, "wal-00000001.seg")
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(seg, tc.segment(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := snapshotDir(t, dir)
			res, err := AnalyzeJournal(dir, DefaultOptions().Collector.Detect)
			if err == nil {
				t.Fatalf("analyzed to %d fragments, want an error", res.Graph.NumFragments())
			}
			t.Log(err)
			// Analysis only reads: a damaged recording stays as it was.
			if after := snapshotDir(t, dir); !maps.Equal(before, after) {
				t.Fatalf("AnalyzeJournal changed the recording: %d files before, %d after", len(before), len(after))
			}
		})
	}

	// The untouched recording analyzes.
	dir := t.TempDir()
	writeRecording(t, dir, true)
	res, err := AnalyzeJournal(dir, DefaultOptions().Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != 2 || res.Graph.NumFragments() != 2 {
		t.Fatalf("valid recording: %d ranks, %d fragments", res.Ranks, res.Graph.NumFragments())
	}
}

// snapshotDir returns every file in dir by name with its bytes.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestRecordRefusesUsedDirectory: a second run recorded into the same
// directory is refused instead of mixing two runs in one journal.
func TestRecordRefusesUsedDirectory(t *testing.T) {
	dir := t.TempDir()
	writeRecording(t, dir, true)
	if _, err := collector.NewRecordSink(dir, discardSink{}); err == nil {
		t.Fatal("recorded over an existing recording")
	}
}
