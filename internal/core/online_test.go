package core

import (
	"bytes"
	"io"
	"testing"

	"vapro/internal/apps"
	"vapro/internal/diagnose"
	"vapro/internal/noise"
	"vapro/internal/sim"
)

func TestRunOnline(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 16
	opt.Collector.Period = 200 * sim.Millisecond
	opt.Collector.Overlap = 100 * sim.Millisecond
	opt.Collector.Detect.Window = 50 * sim.Millisecond

	// Quiet run first: no events, stage stays at 1.
	quiet := RunOnline(apps.NewCG(10), opt)
	if len(quiet.Events) != 0 {
		t.Fatalf("quiet online run produced %d events", len(quiet.Events))
	}
	if quiet.Monitor.Stage() != 1 {
		t.Fatal("quiet run escalated")
	}

	// Noisy run: events appear and the armed groups widen mid-run.
	sch := noise.NewSchedule()
	sch.Add(noise.NodeCPUContention(0, sim.Time(800*sim.Millisecond), sim.Time(1500*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := RunOnline(apps.NewCG(30), opt)
	if len(res.Events) == 0 {
		t.Fatal("online monitor missed injected noise")
	}
	ev := res.Events[0]
	if len(ev.Regions) == 0 {
		t.Fatal("event without regions")
	}
	if !ev.ArmedAfter.Has(sim.GroupBackend) {
		t.Fatal("no progressive arming after detection")
	}
	if res.Monitor.Stage() <= 1 {
		t.Fatal("stage did not escalate")
	}
	// The offline view is still available.
	if res.Detection == nil || res.Graph.NumFragments() == 0 {
		t.Fatal("offline analysis missing from online result")
	}
}

func TestRecordAnalyzeRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	opt.Record = true
	sch := noise.NewSchedule()
	sch.Add(noise.CPUContention(0, 1, sim.Time(700*sim.Millisecond), sim.Time(1200*sim.Millisecond), 0.5))
	opt.Noise = sch
	res := RunTraced(apps.NewCG(10), opt)
	if res.Recording == nil {
		t.Fatal("Record option produced no recording")
	}

	var buf bytes.Buffer
	if err := res.SaveRecording(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := AnalyzeRecording(&buf, opt.Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	if re.Graph.NumFragments() != res.Graph.NumFragments() {
		t.Fatalf("fragments: %d vs %d", re.Graph.NumFragments(), res.Graph.NumFragments())
	}
	if re.Detection.OverallCoverage != res.Detection.OverallCoverage {
		t.Fatalf("coverage differs after round trip: %v vs %v",
			re.Detection.OverallCoverage, res.Detection.OverallCoverage)
	}
	if len(re.Detection.Regions) != len(res.Detection.Regions) {
		t.Fatalf("regions: %d vs %d", len(re.Detection.Regions), len(res.Detection.Regions))
	}
	// Diagnosis works on the reloaded data.
	if len(re.Detection.Regions) > 0 {
		rep := re.Diagnose(&re.Detection.Regions[0], diagnose.DefaultOptions())
		if rep == nil {
			t.Fatal("no diagnosis from reloaded recording")
		}
	}
}

// TestRunOnlineRecordRoundTrip: an online run with Record keeps the raw
// stream the monitor saw, and the saved recording reloads with the
// same fragments.
func TestRunOnlineRecordRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 8
	opt.Record = true
	opt.Collector.Period = 200 * sim.Millisecond
	opt.Collector.Overlap = 100 * sim.Millisecond
	opt.Collector.Detect.Window = 50 * sim.Millisecond
	res := RunOnline(apps.NewCG(10), opt)
	if res.Recording == nil {
		t.Fatal("Record option produced no recording")
	}
	var buf bytes.Buffer
	if err := res.SaveRecording(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := AnalyzeRecording(&buf, opt.Collector.Detect)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Graph.NumFragments(); n == 0 || re.Graph.NumFragments() != n {
		t.Fatalf("fragments: %d reloaded vs %d online", re.Graph.NumFragments(), n)
	}
}

func TestSaveRecordingWithoutRecord(t *testing.T) {
	opt := DefaultOptions()
	opt.Ranks = 4
	res := RunTraced(apps.NewCG(2), opt)
	if err := res.SaveRecording(io.Discard); err == nil {
		t.Fatal("unrecorded run saved")
	}
}
