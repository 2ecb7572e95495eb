package main

import (
	"runtime"
	"time"

	"vapro/internal/apps"
	"vapro/internal/collector"
	"vapro/internal/core"
	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/mpi"
	"vapro/internal/noise"
	"vapro/internal/rt"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// appWorkload is the application-driven workload: the bundled CG
// skeleton under the simulated MPI runtime, traced by interpose, with
// node-level CPU contention on node 0.
type appWorkload struct {
	ranks, cores, outer int
	win                 windowing
	noiseFrom, noiseTo  int64 // virtual ns
	share               float64
}

// appWindows is the CG workload's compressed time axis: CG ships about
// 2.4 fragments per rank per virtual ms, so 5 ms buckets hold about a
// dozen fragments per rank and a 1.9 s run (30 outer iterations)
// closes about 90 windows.
var appWindows = windowing{period: 40 * ms, stride: 20 * ms, bucket: 5 * ms}

func appSpec(tiny bool) appWorkload {
	w := appWorkload{ranks: 32, cores: 8, outer: 30, win: appWindows,
		noiseFrom: 600 * ms, noiseTo: 1200 * ms, share: 0.5}
	if tiny {
		w.ranks, w.outer = 16, 12
		w.noiseFrom, w.noiseTo = 300*ms, 500*ms
	}
	return w
}

func (w appWorkload) schedule() *noise.Schedule {
	s := noise.NewSchedule()
	s.Add(noise.NodeCPUContention(0, sim.Time(w.noiseFrom), sim.Time(w.noiseTo), w.share))
	return s
}

// machine mirrors core's set-up for a non-threaded app: nodes of
// w.cores cores at 2.2 GHz.
func (w appWorkload) machine(seed uint64) *sim.Machine {
	return sim.NewMachine(sim.Config{Nodes: (w.ranks + w.cores - 1) / w.cores, CoresPerNode: w.cores,
		FreqGHz: 2.2, PMUJitter: 0.002, Seed: seed})
}

// appSetups is how many times each repetition builds the world and the
// collector; setup_s is the median over all of them.
const appSetups = 200

// noopSink receives fragments and drops them: the traced run that
// measures pure interception cost.
type noopSink struct{}

func (noopSink) Consume(int, []trace.Fragment) {}

// runApp runs the CG skeleton online as often as --seconds allows (at
// least twice). Each repetition rebuilds the world and the collector,
// which is the workload's set-up; latencies pool over repetitions.
func runApp(w appWorkload, cfg runCfg) (*result, error) {
	res := newResult("app-cg", cfg)
	var setups, fps, cpu, alloc []float64
	var recs []batchRec
	var pool *collector.Pool
	var mon *collector.Monitor
	var events []collector.Event
	windows, batches := 0, 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		pool, mon = nil, nil
		runtime.GC()
		// Construction takes a few tens of microseconds: time it
		// appSetups times and keep the last world and collector.
		var app *apps.CG
		var world *mpi.World
		for i := 0; i < appSetups; i++ {
			t0 := time.Now()
			app = apps.NewCG(w.outer)
			world = mpi.NewWorld(w.ranks, w.machine(cfg.seed), w.schedule())
			app.Prepare(nil, w.ranks)
			opt, mopt := options(w.ranks, w.win)
			pool = collector.NewPool(w.ranks, opt)
			mon = collector.NewMonitor(pool, mopt)
			setups = append(setups, time.Since(t0).Seconds())
		}

		led := &ledger{}
		led.reserve(batches) // the previous repetition's count
		sink := &timingSink{next: mon, met: mon.Metrics(), seq: mon.SeqState(), windows: mon.Metrics().Detect.Windows,
			detect: []*detect.Metrics{mon.Metrics().Detect}, led: led, clock: newClock(), traced: cfg.traced,
			high: map[int]int64{}}
		if cfg.traced && rep == 0 {
			sink.keep, sink.seqs = []sampleBatch{}, map[int]uint64{}
		}
		snap0, mem0, c0 := mon.Metrics().Registry.Snapshot(), readRuntime(), cpuNS()
		world.Run(func(r *mpi.Rank) {
			tr := interpose.NewTraced(r, rt.Config{}, interpose.DefaultOptions(), sink, pool.Armed)
			tr.SetMetrics(pool.Metrics().Client)
			app.Run(tr)
			tr.Flush()
		})
		snap1, mem1, c1 := mon.Metrics().Registry.Snapshot(), readRuntime(), cpuNS()
		n := pool.FragmentCount()
		cpu = append(cpu, float64(c1-c0)/float64(n))
		alloc = append(alloc, float64(mem1.totalAlloc-mem0.totalAlloc)/float64(n))
		repRecs := led.all()
		batches = len(repRecs)
		fps = append(fps, chunkRates(repRecs, 0)...)
		recs = append(recs, repRecs...)
		res.attempted += len(repRecs)

		// Output checks: every fragment the ranks shipped reached the
		// sink and is resident, and the monitor closed exactly the
		// windows the ranks' watermark allows.
		delivered := 0
		for i := range repRecs {
			delivered += repRecs[i].frags
		}
		if shipped := int(mon.Metrics().Client.Fragments.Load()); delivered != n || shipped != n {
			res.fail("rep %d: ranks shipped %d fragments, the sink saw %d, %d resident", rep, shipped, delivered, n)
			res.failed++
		}
		wm := int64(-1)
		for _, h := range sink.high {
			if wm < 0 || h < wm {
				wm = h
			}
		}
		expect := 0
		if wm >= w.win.period {
			expect = int((wm-w.win.period)/w.win.stride) + 1
		}
		windows = int(mon.Metrics().Detect.Windows.Load())
		if windows != expect {
			res.fail("rep %d: monitor analyzed %d windows, the watermark closes %d", rep, windows, expect)
			res.failed++
		}
		events = mon.Drain()
		if rep == 0 {
			// Per-layer metrics come from the first repetition.
			d := regDiff{snap0, snap1}
			res.layers(d, repRecs, n, mem0, mem1)
			res.layer("interpose.bytes_out_per_frag",
				ratio(d.delta("vapro_client_bytes_out_total"), d.delta("vapro_client_fragments_total")), "B")
			// No generator here: the lag is how long a rank's flush
			// waited before the sink took it.
			var lags []float64
			for i := range repRecs {
				lags = append(lags, float64(repRecs[i].sinkStart-repRecs[i].due)/1e6)
			}
			res.layer("gen.lag_p95_ms", quantile(lags, 0.95), "ms")
			if cfg.traced {
				res.spans = batchSpans(repRecs)
				if err := res.offlineLayers(sink.keep, cfg.outDir); err != nil {
					return nil, err
				}
				res.layer("client.consume_ns_per_batch", clientConsumeNS(sink.keep), "ns")
			}
		}
	}
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("ingest_fps", median(fps), "fragments/s", len(fps))
	res.set("cpu_ns_per_frag", median(cpu), "ns", len(cpu))
	res.set("alloc_b_per_frag", median(alloc), "B", len(alloc))
	res.windowLatency(recs, phaseApp)

	// Detection quality and diagnosis on the last repetition.
	var t truth
	node0 := make([]int, 0, w.cores)
	for r := 0; r < w.cores && r < w.ranks; r++ {
		node0 = append(node0, r)
	}
	t.addSpan(w.win, detect.Computation, node0, w.noiseFrom, w.noiseTo, int64(windows-1)*w.win.stride+w.win.period)
	sc := scoreEvents(t, w.win, windows, events)
	res.set("miss_frac", sc.missFrac, "ratio", sc.cells)
	res.set("false_alarm_frac", sc.falseAlarmFrac, "ratio", sc.windows)
	res.set("events", float64(len(events)), "count", len(events))
	res.diagnose(mon, events)
	res.set("loss_frac", 0, "ratio", res.attempted)
	res.layer("client.spill_peak", 0, "count")
	res.layer("shard.resident_skew", 1, "ratio")

	res.heap(pool.FragmentCount())
	runtime.KeepAlive(mon)
	pool, mon = nil, nil

	if cfg.traced {
		ns, _ := interception(w, cfg.seed)
		res.layer("interpose.ns_per_interception", ns, "ns")
	}
	return res, nil
}

// interception measures the interposition layer on w's application:
// the wall cost of one interception, (traced run with a no-op sink −
// core.RunPlain) ÷ interceptions with the same app and seed, median of
// three pairs, and the wire bytes it ships per fragment.
func interception(w appWorkload, seed uint64) (nsPer, bytesPerFrag float64) {
	var per []float64
	for i := 0; i < 3; i++ {
		opt := core.DefaultOptions()
		opt.Ranks, opt.CoresPerNode, opt.Seed, opt.Noise = w.ranks, w.cores, seed, w.schedule()
		t0 := time.Now()
		core.RunPlain(apps.NewCG(w.outer), opt)
		plain := time.Since(t0)

		app := apps.NewCG(w.outer)
		world := mpi.NewWorld(w.ranks, w.machine(seed), w.schedule())
		app.Prepare(nil, w.ranks)
		reg := collector.NewMetrics()
		t0 = time.Now()
		world.Run(func(r *mpi.Rank) {
			tr := interpose.NewTraced(r, rt.Config{}, interpose.DefaultOptions(), noopSink{}, nil)
			tr.SetMetrics(reg.Client)
			app.Run(tr)
			tr.Flush()
		})
		traced := time.Since(t0)
		per = append(per, ratio(float64(traced-plain), float64(reg.Client.Interceptions.Load())))
		bytesPerFrag = ratio(float64(reg.Client.BytesOut.Load()), float64(reg.Client.Fragments.Load()))
	}
	return median(per), bytesPerFrag
}
