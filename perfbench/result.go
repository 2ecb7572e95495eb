package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"vapro/internal/collector"
	"vapro/internal/diagnose"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics BENCHMARK.json bounds: every workload
// reports each of them, none of them can be zero, and each is steady
// enough on a shared VM to gate on. The other end-to-end metrics,
// throughput and latency among them, are printed and logged only
// (README.md says why).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_b_per_frag", "B", "lower"},
	{"alloc_b_per_frag", "B", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// cross reports 0 (see README.md).
var perLayer = []metricDef{
	{"client.consume_ns_per_batch", "ns", "lower"},
	{"client.spill_peak", "count", "lower"},
	{"trace.encode_ns_per_frag", "ns", "lower"},
	{"trace.decode_ns_per_frag", "ns", "lower"},
	{"trace.bytes_per_frag", "B", "lower"},
	{"intake.consume_ns_per_frag", "ns", "lower"},
	{"intake.drain_batches_p50", "count", "lower"},
	{"intake.stalls", "count", "lower"},
	{"monitor.tick_ms_p50", "ms", "lower"},
	{"monitor.tick_ms_p95", "ms", "lower"},
	{"monitor.windows", "count", "higher"},
	{"monitor.tick_share", "ratio", "lower"},
	{"detect.prep_ms", "ms", "lower"},
	{"detect.cluster_ms", "ms", "lower"},
	{"detect.normalize_ms", "ms", "lower"},
	{"detect.merge_ms", "ms", "lower"},
	{"detect.map_ms", "ms", "lower"},
	{"detect.prep_incremental_ratio", "ratio", "higher"},
	{"detect.region_carry_ratio", "ratio", "higher"},
	{"cluster.inc_hit_ratio", "ratio", "higher"},
	{"cluster.fallback_multid", "count", "lower"},
	{"cluster.fallback_dirty", "count", "lower"},
	{"ols.rank1_updates_per_frag", "ratio", "higher"},
	{"ols.refactors", "count", "lower"},
	{"wal.append_ns_per_frame", "ns", "lower"},
	{"wal.bytes_per_frag", "B", "lower"},
	{"wal.replay_fps", "fragments/s", "higher"},
	{"shard.strips_merged", "count", "lower"},
	{"shard.regions_stitched", "count", "higher"},
	{"shard.resident_skew", "ratio", "lower"},
	{"interpose.ns_per_interception", "ns", "lower"},
	{"interpose.bytes_out_per_frag", "B", "lower"},
	{"runtime.alloc_b_per_frag", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"gen.lag_p95_ms", "ms", "lower"},
	{"trace_overhead", "ratio", "higher"},
}

// metricVal is one measured value with its sample count.
type metricVal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one run of one workload.
type result struct {
	workload  string
	cfg       runCfg
	metrics   []metricVal // end-to-end and reported-only metrics
	layerVals []metricVal // per-layer metrics
	attempted int
	failed    int
	// failedBatches are the batches lost or never delivered (loss_frac).
	failedBatches int
	failures      []string
	spans         []span
	// steal is the share of the machine's CPU time the hypervisor stole
	// while the run measured.
	steal float64
}

func newResult(workload string, cfg runCfg) *result {
	return &result{workload: workload, cfg: cfg}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metricVal{name, v, unit, n})
}

func (r *result) layer(name string, v float64, unit string) {
	r.layerVals = append(r.layerVals, metricVal{name, v, unit, 1})
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) (metricVal, bool) {
	for _, m := range append(append([]metricVal(nil), r.metrics...), r.layerVals...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricVal{}, false
}

// correct reports whether every output check passed.
func (r *result) correct() bool { return len(r.failures) == 0 }

// windowLatency sets the detection-latency metrics: for every window a
// sink call closed in the phase, the time from the due time of the
// batch that closed it to the return of that call.
func (r *result) windowLatency(recs []batchRec, phase int) {
	var lat []float64
	for i := range recs {
		b := &recs[i]
		if b.phase != phase || !b.delivered {
			continue
		}
		for w := 0; w < b.windows; w++ {
			lat = append(lat, float64(b.sinkEnd-b.due)/1e6)
		}
	}
	r.set("window_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	r.set("window_p95_ms", quantile(lat, 0.95), "ms", len(lat))
	if len(lat) < r.cfg.minWindows {
		r.fail("only %d windows closed in the measured phase; window_p95_ms needs 200", len(lat))
	}
}

// diagnose sets diagnose_ms: the median DiagnoseEvent time over up to
// `diagnosed` events spread evenly over the run's events. Every
// diagnosed event must yield a report.
func (r *result) diagnose(mon *collector.Monitor, events []collector.Event) {
	var ms []float64
	n := min(len(events), diagnosed)
	for k := 0; k < n; k++ {
		i := k * len(events) / n
		runtime.GC() // one diagnosis's garbage at a time: it copies whole clusters
		t0 := time.Now()
		if rep := mon.DiagnoseEvent(&events[i], diagnose.DefaultOptions()); rep == nil {
			r.fail("DiagnoseEvent returned no report for event %d", i)
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	r.set("diagnose_ms", median(ms), "ms", len(ms))
}

// cpuNS is the process's CPU time so far (user + system). The kernel
// does not charge the time a hypervisor steals to the process, so a
// figure per unit of work survives a noisy host far better than wall
// time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeStats is the Go runtime's cumulative allocation and GC work.
type runtimeStats struct {
	totalAlloc    uint64
	numGC         uint32
	gcCPU, allCPU float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeStats{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.allCPU = s[1].Value.Float64()
	}
	return rs
}

// layers sets the per-layer metrics read from the sink's records and
// from the collector's registry around the measured phases.
func (r *result) layers(d regDiff, recs []batchRec, ingested int, m0, m1 runtimeStats) {
	var intakeNS, tickNS, intakeFrags int64
	var ticks []float64
	tierWindows := 0
	for i := range recs {
		b := &recs[i]
		if !b.delivered {
			continue
		}
		ns := b.sinkEnd - b.sinkStart
		if b.windows > 0 {
			tickNS += ns
			ticks = append(ticks, float64(ns)/1e6)
			tierWindows += b.windows
		} else {
			intakeNS += ns
			intakeFrags += int64(b.frags)
		}
	}
	r.layer("intake.consume_ns_per_frag", ratio(float64(intakeNS), float64(intakeFrags)), "ns")
	r.layer("intake.drain_batches_p50", d.histQuantile("vapro_intake_drain_batches", 0.5), "count")
	r.layer("intake.stalls", d.delta("vapro_intake_stalls_total"), "count")
	r.layer("monitor.tick_ms_p50", quantile(ticks, 0.5), "ms")
	r.layer("monitor.tick_ms_p95", quantile(ticks, 0.95), "ms")
	r.layer("monitor.windows", float64(tierWindows), "count")
	r.layer("monitor.tick_share", ratio(float64(tickNS), float64(tickNS+intakeNS)), "ratio")
	for _, st := range []string{"prep", "cluster", "normalize", "merge", "map"} {
		r.layer("detect."+st+"_ms", ratio(d.histSum("vapro_detect_stage_"+st+"_ns"), float64(tierWindows))/1e6, "ms")
	}
	inc, reb := d.delta("vapro_detect_prep_incremental_total"), d.delta("vapro_detect_prep_rebuilds_total")
	r.layer("detect.prep_incremental_ratio", ratio(inc, inc+reb), "ratio")
	car, reg := d.delta("vapro_detect_region_cells_carried_total"), d.delta("vapro_detect_region_cells_regrown_total")
	r.layer("detect.region_carry_ratio", ratio(car, car+reg), "ratio")
	hit, fb := d.delta("vapro_cluster_cache_inc_hits"), d.delta("vapro_cluster_cache_inc_fallbacks")
	r.layer("cluster.inc_hit_ratio", ratio(hit, hit+fb), "ratio")
	r.layer("cluster.fallback_multid", d.delta("vapro_cluster_cache_inc_fallback_multid"), "count")
	r.layer("cluster.fallback_dirty", d.delta("vapro_cluster_cache_inc_fallback_dirty"), "count")
	r.layer("ols.rank1_updates_per_frag", ratio(d.delta("vapro_ols_rank1_updates_total"), float64(ingested)), "ratio")
	r.layer("ols.refactors", d.delta("vapro_ols_refactors_total"), "count")
	r.layer("shard.strips_merged", d.delta("vapro_shard_strips_merged_total"), "count")
	r.layer("shard.regions_stitched", d.delta("vapro_shard_regions_stitched_total"), "count")
	r.layer("runtime.alloc_b_per_frag", ratio(float64(m1.totalAlloc-m0.totalAlloc), float64(ingested)), "B")
	r.layer("runtime.gc_cycles", float64(m1.numGC-m0.numGC), "count")
	r.layer("runtime.gc_cpu_frac", ratio(m1.gcCPU-m0.gcCPU, m1.allCPU-m0.allCPU), "ratio")
}

// heap sets heap_b_per_frag: live heap after a forced GC over the
// resident fragments.
func (r *result) heap(resident int) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_b_per_frag", ratio(float64(ms.HeapAlloc), float64(resident)), "B", resident)
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
				r.set("peak_rss_mb", kb/1024, "MB", 1)
			}
		}
	}
}

// offlineLayers times the codec and the WAL on a sample of the run's
// batches: trace.AppendBatchSeq / DecodeBatchMeta, and wal.Log Append
// and Replay on a scratch log under dir. Each is the median of five
// passes.
func (r *result) offlineLayers(sample []sampleBatch, dir string) error {
	n := 0
	for _, b := range sample {
		n += len(b.frags)
	}
	payloads := make([][]byte, len(sample))
	var enc, dec []float64
	var buf []byte
	bytes := 0
	for pass := 0; pass < 5; pass++ {
		bytes = 0
		t0 := time.Now()
		for i, b := range sample {
			buf = trace.AppendBatchSeq(buf[:0], b.rank, b.seq, b.frags)
			bytes += len(buf)
			if pass == 0 {
				payloads[i] = append([]byte(nil), buf...)
			}
		}
		enc = append(enc, float64(time.Since(t0))/float64(n))
		t0 = time.Now()
		for i, p := range payloads {
			meta, got, err := trace.DecodeBatchMeta(p)
			if err != nil || meta.Rank != sample[i].rank || meta.Seq != sample[i].seq || len(got) != len(sample[i].frags) {
				r.fail("codec round trip of batch %d failed (%v)", i, err)
				return nil
			}
		}
		dec = append(dec, float64(time.Since(t0))/float64(n))
	}
	r.layer("trace.encode_ns_per_frag", median(enc), "ns")
	r.layer("trace.decode_ns_per_frag", median(dec), "ns")
	r.layer("trace.bytes_per_frag", float64(bytes)/float64(n), "B")

	var app, rep []float64
	var disk int64
	for pass := 0; pass < 5; pass++ {
		wdir := filepath.Join(dir, fmt.Sprintf("wal-%d", os.Getpid()))
		os.RemoveAll(wdir)
		l, err := wal.Open(wdir, wal.Options{})
		if err != nil {
			return fmt.Errorf("scratch wal: %w", err)
		}
		t0 := time.Now()
		for _, p := range payloads {
			if err := l.Append(p); err != nil {
				l.Close()
				return fmt.Errorf("scratch wal append: %w", err)
			}
		}
		app = append(app, float64(time.Since(t0))/float64(len(payloads)))
		disk = l.Stats().Bytes
		n := 0
		t0 = time.Now()
		err = l.Replay(func([]byte) error { n++; return nil })
		rep = append(rep, float64(n)/time.Since(t0).Seconds())
		l.Close()
		os.RemoveAll(wdir)
		if err != nil || n != len(payloads) {
			r.fail("scratch wal replayed %d of %d records (%v)", n, len(payloads), err)
			return nil
		}
	}
	r.layer("wal.append_ns_per_frame", median(app), "ns")
	r.layer("wal.bytes_per_frag", float64(disk)/float64(n), "B")
	r.layer("wal.replay_fps", median(rep), "fragments/s")
	return nil
}

// report prints every metric by name and unit with its sample count.
func (r *result) report(w *strings.Builder) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.workload, r.cfg.seed, r.cfg.traced)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %-12s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range r.layerVals {
		fmt.Fprintf(w, "  %-32s %14.6g %-12s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d batches, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}
