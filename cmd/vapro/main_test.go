package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vapro/internal/collector"
)

// TestMain lets a test re-run this binary as the vapro command: with
// VAPRO_RUN_MAIN set, the process runs main() on its remaining
// arguments instead of the tests, so exit codes are observable.
func TestMain(m *testing.M) {
	if os.Getenv("VAPRO_RUN_MAIN") == "1" {
		os.Args = append([]string{"vapro"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVapro runs the command with args and returns its stdout, stderr
// and exit code.
func runVapro(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VAPRO_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

func TestParseKVs(t *testing.T) {
	kv := parseKVs("node=2,start=0.5,end=1.25,share=0.5")
	want := map[string]float64{"node": 2, "start": 0.5, "end": 1.25, "share": 0.5}
	for k, v := range want {
		if kv[k] != v {
			t.Fatalf("%s = %v, want %v", k, kv[k], v)
		}
	}
	// Whitespace around keys is tolerated; malformed pairs are skipped.
	kv = parseKVs(" slow =3,,junk")
	if kv["slow"] != 3 {
		t.Fatalf("trimmed key: %v", kv)
	}
	if len(kv) != 1 {
		t.Fatalf("junk accepted: %v", kv)
	}
}

// TestRecordUnwritableTarget: a -record directory that cannot be
// created fails the run with a message and exit status 1, and leaves
// no manifest behind.
func TestRecordUnwritableTarget(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(file, "rec")
	_, stderr, code := runVapro(t, "-app", "CG", "-ranks", "2", "-size", "0.05", "-record", target)
	if code != 1 || !strings.HasPrefix(stderr, "vapro: ") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with a message", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(target, collector.ManifestFile)); err == nil {
		t.Fatal("failed recording left a manifest")
	}
}

// TestRecordAnalyzeReport: `vapro analyze -journal` on a recording
// prints the live run's report, apart from the app label.
func TestRecordAnalyzeReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	live, stderr, code := runVapro(t, "-app", "CG", "-ranks", "2", "-size", "0.05", "-record", dir)
	if code != 0 {
		t.Fatalf("record run: exit %d: %s", code, stderr)
	}
	off, stderr, code := runVapro(t, "analyze", "-journal", dir)
	if code != 0 {
		t.Fatalf("analyze: exit %d: %s", code, stderr)
	}
	_, live, _ = strings.Cut(live, "\n") // the "recorded … to …" line
	if want := strings.Replace(live, "CG:", "recording:", 1); off != want {
		t.Fatalf("offline report differs from the live one:\n%s\nwant:\n%s", off, want)
	}

	// Report flags on a journal without a manifest are refused.
	if err := os.Remove(filepath.Join(dir, collector.ManifestFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runVapro(t, "analyze", "-journal", dir, "-diagnose"); code != 2 {
		t.Fatalf("report flags on a server journal: exit %d, want 2", code)
	}
}
