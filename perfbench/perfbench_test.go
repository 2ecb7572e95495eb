package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// encodeStream encodes the first n batches a generator emits.
func encodeStream(spec genSpec, seed uint64, n int) []byte {
	g := newGen(spec, seed)
	var out []byte
	for i := 0; i < n; i++ {
		rank, b := g.next()
		out = trace.AppendBatchSeq(out, rank, uint64(i), b)
	}
	return out
}

func TestGeneratedStreamDeterministic(t *testing.T) {
	for name, spec := range synthSpecs(false) {
		a := encodeStream(spec.gen, 1, 2000)
		b := encodeStream(spec.gen, 1, 2000)
		c := encodeStream(spec.gen, 2, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 produced two different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 produced the same stream", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at test size, untraced and
// traced, and checks that the run is correct and prints exactly the
// metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range bj.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bj.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runCfg{seed: 1, seconds: 1.5, traced: traced, outDir: t.TempDir(), tiny: true}
			res, err := measure(name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: output checks failed: %v", name, traced, res.failures)
			}
			sum, err := summarize(res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var got []string
			for k := range sum.Metrics {
				got = append(got, k)
			}
			w := append([]string(nil), want[traced]...)
			sort.Strings(got)
			sort.Strings(w)
			if !slices.Equal(got, w) {
				t.Errorf("%s trace=%v: printed metrics %v, BENCHMARK.json %v", name, traced, got, w)
			}
			if sum.Attempted < 1 || sum.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, traced, sum.Attempted, sum.Failed)
			}
			if traced && len(res.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "batch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "sink.consume", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "monitor.tick", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "gen", Start: 50, End: 70}, // overlaps sink.consume
	}
	got := map[string]int64{}
	for _, r := range selfTimes(spans) {
		got[r.name] = r.selfNS
	}
	want := map[string]int64{"batch": 40, "sink.consume": 20, "monitor.tick": 30, "gen": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestShardedFalseAlarmScored checks that sharded-4's whole-run episode
// does not hide false alarms: a region on a noise-free rank counts, one
// on the slowed subset ranks or on an episode (a) rank in its span does
// not.
func TestShardedFalseAlarmScored(t *testing.T) {
	spec := shardedSpec()
	w := spec.win
	origin := 100 * w.stride
	const windows = 400
	end := int64(windows-1)*w.stride + w.period
	tr := genTruth(spec.gen, w, origin, end)
	slowA, slowB := spec.gen.episodes[0].ranks, spec.gen.episodes[1].ranks
	noisy := map[int]bool{}
	for _, r := range append(append([]int(nil), slowA...), slowB...) {
		noisy[r] = true
	}
	clean := -1
	for r := 0; r < spec.gen.ranks && clean < 0; r++ {
		if !noisy[r] {
			clean = r
		}
	}
	event := func(window int, rank int) collector.Event {
		start := int64(window) * w.stride
		return collector.Event{WindowStart: sim.Time(start), WindowEnd: sim.Time(start + w.period),
			Regions: []detect.Region{{Class: detect.Computation, RankMin: rank, RankMax: rank, WinMin: 0, WinMax: 1}}}
	}
	quiet := 10 // a window long before episode (a)
	inA := int((origin + spec.gen.episodes[0].from) / w.stride)

	if s := scoreEvents(tr, w, windows, []collector.Event{event(quiet, slowB[0]), event(inA, slowA[0])}); s.falseAlarmFrac != 0 {
		t.Errorf("regions on slowed ranks scored as false alarms: %v", s.falseAlarmFrac)
	}
	s := scoreEvents(tr, w, windows, []collector.Event{event(quiet, clean), event(quiet+1, slowA[0])})
	if want := 2.0 / windows; s.falseAlarmFrac != want || s.windows != windows {
		t.Errorf("false_alarm_frac = %v over %d windows, want %v over %d", s.falseAlarmFrac, s.windows, want, windows)
	}
}
