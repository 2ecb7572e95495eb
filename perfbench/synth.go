package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/obs"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// synthSpec is a synthetic workload: a generated stream, the collector
// topology it runs through, and its phase sizes.
type synthSpec struct {
	name     string
	gen      genSpec
	win      windowing
	resident int     // fragments the set-up brings the collector to
	offered  float64 // open-loop rate, fragments per wall second
	wire     bool    // ResilientClient → loopback → ServeWire
	journal  bool    // delivery journal; set-up is a restart by replay
	shards   int     // > 0: in-process ShardedMonitor over this many planes
	space    int     // rank space of the sharded tier
}

// Phase sizes shared by the synthetic workloads.
const (
	// spillCap is the closed loop's back-pressure depth: the generator
	// waits while more batches than this sit in the client's spill
	// queue, far below its MaxSpill, so no batch is ever evicted.
	spillCap = 64
	// inflightCap bounds the batches sent but not yet delivered, which
	// also counts those parked in the loopback socket buffers (several
	// MB, enough to hide a backlog of seconds from the spill queue).
	inflightCap = 256
	// diagnosed is how many events, spread evenly over the run's
	// events, diagnose_ms times: one DiagnoseEvent walks the resident
	// clusters of the event's edges and takes a large part of a second.
	diagnosed = 3
	// saturatedShare is the share of --seconds the closed loop runs at
	// the nominal saturated rate; the open loop runs the rest.
	saturatedShare = 0.25
	// codecSample is how many of the stream's batches the offline
	// codec and WAL timings use.
	codecSample = 1024
)

// plant is the collector under test: a monitor over a pool, or a
// sharded monitor over a tier, plus the generator that continues the
// stream the set-up started.
type plant struct {
	pool *collector.Pool
	mon  *collector.Monitor
	tier *collector.ShardedPool
	smon *collector.ShardedMonitor
	jour *wal.Log
	gen  *gen
}

func (p *plant) consumer() consumer {
	if p.smon != nil {
		return p.smon
	}
	return p.mon
}

func (p *plant) metrics() *collector.Metrics {
	if p.tier != nil {
		return p.tier.Metrics()
	}
	return p.mon.Metrics()
}

func (p *plant) snapshot() obs.Snapshot {
	if p.tier != nil {
		return p.tier.MergedSnapshot()
	}
	return p.mon.Metrics().Registry.Snapshot()
}

// detectMetrics returns every plane's detection surface.
func (p *plant) detectMetrics() []*detect.Metrics {
	if p.tier != nil {
		var out []*detect.Metrics
		for i := 0; i < p.tier.Shards(); i++ {
			out = append(out, p.tier.Plane(i).Metrics().Detect)
		}
		return out
	}
	return []*detect.Metrics{p.mon.Metrics().Detect}
}

// windowCounter moves once per monitor tick: every plane analyzes every
// tier window, so plane 0's counter counts tier windows.
func (p *plant) windowCounter() *obs.Counter {
	if p.tier != nil {
		return p.tier.Plane(0).Metrics().Detect.Windows
	}
	return p.mon.Metrics().Detect.Windows
}

func (p *plant) resident() int {
	if p.tier != nil {
		return p.tier.FragmentCount()
	}
	return p.pool.FragmentCount()
}

// skew is max ÷ mean resident fragments over the tier's planes (1 for
// a single pool).
func (p *plant) skew() float64 {
	if p.tier == nil {
		return 1
	}
	var max, sum float64
	for i := 0; i < p.tier.Shards(); i++ {
		n := float64(p.tier.Plane(i).FragmentCount())
		sum += n
		if n > max {
			max = n
		}
	}
	return ratio(max, sum/float64(p.tier.Shards()))
}

func (p *plant) events() []collector.Event {
	if p.smon != nil {
		return p.smon.Drain()
	}
	return p.mon.Drain()
}

// options returns the pool and monitor configuration of a workload's
// compressed time axis: windows of w.period virtual ns every w.stride,
// heat-map buckets of w.bucket.
func options(ranks int, w windowing) (collector.Options, collector.MonitorOptions) {
	opt := collector.DefaultOptions()
	opt.Period = sim.Duration(w.period)
	opt.Overlap = sim.Duration(w.period - w.stride)
	opt.Detect.Window = sim.Duration(w.bucket)
	mopt := collector.DefaultMonitorOptions(ranks)
	mopt.Period, mopt.Overlap, mopt.Detect = opt.Period, opt.Overlap, opt.Detect
	// A region must lose half a bucket of time to raise an event: the
	// paper's 10 ms floor is sized for 15 s periods.
	mopt.MinRegionLoss = sim.Duration(w.bucket / 2)
	return opt, mopt
}

// newPlant builds an empty collector for spec.
func newPlant(spec synthSpec) *plant {
	opt, mopt := options(spec.gen.ranks, spec.win)
	if spec.shards > 0 {
		tier := collector.NewShardedPool(spec.space, spec.shards, opt)
		return &plant{tier: tier, smon: collector.NewShardedMonitor(tier, mopt)}
	}
	pool := collector.NewPool(spec.gen.ranks, opt)
	return &plant{pool: pool, mon: collector.NewMonitor(pool, mopt)}
}

// fill is the set-up of the live workloads: a fresh collector fed the
// stream's first spec.resident fragments directly.
func fill(spec synthSpec, seed uint64) *plant {
	p := newPlant(spec)
	p.gen = newGen(spec.gen, seed)
	c := p.consumer()
	for p.gen.frags < spec.resident {
		c.Consume(p.gen.next())
	}
	return p
}

// writeJournal writes the stream's first spec.resident fragments to a
// delivery journal in dir, as the wire server would have journaled
// them, and returns the generator positioned after them.
func writeJournal(spec synthSpec, seed uint64, dir string) (*gen, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	g := newGen(spec.gen, seed)
	seqs := make([]uint64, spec.gen.ranks)
	var buf []byte
	for g.frags < spec.resident {
		rank, b := g.next()
		buf = trace.AppendBatchSeq(buf[:0], rank, seqs[rank], b)
		seqs[rank]++
		if err := l.Append(buf); err != nil {
			l.Close()
			return nil, err
		}
	}
	return g, l.Close()
}

// restart is the durable workload's set-up: reopen the journal and
// replay it into a fresh collector.
func restart(spec synthSpec, dir string) (*plant, error) {
	p := newPlant(spec)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := collector.ReplayJournal(l, p.mon); err != nil {
		l.Close()
		return nil, err
	}
	p.jour = l
	return p, nil
}

// runSynth runs one synthetic workload: set-up (cfg.setups times, the
// last collector kept), the closed loop, the open loop, then the
// detection score, the diagnosis and a forced GC before the heap is
// read.
func runSynth(spec synthSpec, cfg runCfg) (*result, error) {
	res := newResult(spec.name, cfg)
	jdir := filepath.Join(cfg.outDir, fmt.Sprintf("journal-%s-%d", spec.name, os.Getpid()))
	var jgen *gen
	if spec.journal {
		os.RemoveAll(jdir)
		defer os.RemoveAll(jdir)
		var err error
		if jgen, err = writeJournal(spec, cfg.seed, jdir); err != nil {
			return nil, fmt.Errorf("write journal: %w", err)
		}
	}
	last, err := drive(spec, cfg, res, jdir, jgen)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(last.setups), "s", len(last.setups))
	res.set("ingest_fps", median(last.fpsChunks), "fragments/s", len(last.fpsChunks))
	res.set("cpu_ns_per_frag", last.cpuPerFrag, "ns", 1)
	res.set("alloc_b_per_frag", ratio(float64(last.mem1.totalAlloc-last.mem0.totalAlloc), float64(last.measured)), "B", last.measured)
	res.windowLatency(last.recs, phaseOpen)

	// Detection quality against the injected ground truth.
	p := last.p
	wm := p.gen.watermark()
	expect := 0
	if wm >= spec.win.period {
		expect = int((wm-spec.win.period)/spec.win.stride) + 1
	}
	t := genTruth(spec.gen, spec.win, last.origin, int64(expect-1)*spec.win.stride+spec.win.period)
	sc := scoreEvents(t, spec.win, expect, last.events)
	res.set("miss_frac", sc.missFrac, "ratio", sc.cells)
	res.set("false_alarm_frac", sc.falseAlarmFrac, "ratio", sc.windows)
	res.set("events", float64(len(last.events)), "count", len(last.events))
	if p.mon != nil {
		res.diagnose(p.mon, last.events)
	}
	if spec.wire {
		res.set("client_ns_per_frag", consumeNS(last.recs)/float64(frags(last.recs)), "ns", len(last.recs))
	}
	res.set("loss_frac", float64(res.failedBatches)/float64(res.attempted), "ratio", res.attempted)

	res.layers(last.diff, last.recs, last.measured, last.mem0, last.mem1)
	if spec.wire {
		res.layer("client.consume_ns_per_batch", consumeNS(last.recs)/float64(len(last.recs)), "ns")
	}
	res.layer("client.spill_peak", float64(last.spillPeak), "count")
	res.layer("shard.resident_skew", p.skew(), "ratio")
	res.layer("gen.lag_p95_ms", quantile(last.lags, 0.95), "ms")
	if cfg.traced {
		res.spans = batchSpans(last.recs)
	}
	if p.jour != nil {
		p.jour.Close()
	}
	res.heap(p.resident())
	runtime.KeepAlive(p)

	if cfg.traced {
		sample := sampleBatches(spec.gen, cfg.seed)
		if err := res.offlineLayers(sample, cfg.outDir); err != nil {
			return nil, err
		}
		if !spec.wire {
			// No client on this path: time it on the run's batches.
			res.layer("client.consume_ns_per_batch", clientConsumeNS(sample), "ns")
		}
		// No interposition on a generated stream: report the layer's
		// cost on the small reference CG run.
		ns, bytes := interception(appSpec(true), cfg.seed)
		res.layer("interpose.ns_per_interception", ns, "ns")
		res.layer("interpose.bytes_out_per_frag", bytes, "B")
	}
	return res, nil
}

// clientConsumeNS is the mean ResilientClient.Consume time per batch
// over sample, with the client writing into an in-memory pipe whose far
// end discards.
func clientConsumeNS(sample []sampleBatch) float64 {
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, far)
		close(done)
	}()
	c := collector.NewResilientClient(func() (net.Conn, error) { return near, nil },
		collector.ResilientOptions{MaxSpill: len(sample) + 1})
	t0 := time.Now()
	for _, b := range sample {
		c.Consume(b.rank, b.frags)
	}
	ns := float64(time.Since(t0)) / float64(len(sample))
	c.Drain(10 * time.Second)
	c.Close()
	far.Close()
	<-done
	return ns
}

// synthRun is what driving a synthetic workload leaves for the result.
type synthRun struct {
	p          *plant
	setups     []float64
	fpsChunks  []float64
	cpuPerFrag float64 // process CPU ns per fragment in the closed loop
	recs       []batchRec
	lags       []float64
	diff       regDiff
	mem0, mem1 runtimeStats
	measured   int   // fragments sent in the measured phases
	origin     int64 // virtual time the timed episodes started at
	events     []collector.Event
	spillPeak  int
}

// drive builds the collector, runs the closed and the open loop, and
// books the output checks into res.
func drive(spec synthSpec, cfg runCfg, res *result, jdir string, jgen *gen) (*synthRun, error) {
	run := &synthRun{}
	var p *plant
	for i := 0; i < cfg.setups; i++ {
		if p != nil && p.jour != nil {
			p.jour.Close()
		}
		p = nil
		runtime.GC()
		t0 := time.Now()
		if spec.journal {
			var err error
			if p, err = restart(spec, jdir); err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			p.gen = jgen.clone()
		} else {
			p = fill(spec, cfg.seed)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	run.p = p
	if p.jour != nil {
		p.pool.AttachJournal(p.jour) // before ServeWire: the server probes it once
	}

	clk := newClock()
	led := &ledger{indexed: true}
	sink := &timingSink{next: p.consumer(), met: p.metrics(), windows: p.windowCounter(),
		detect: p.detectMetrics(), led: led, clock: clk, traced: cfg.traced}
	if p.mon != nil {
		sink.seq, sink.jour = p.mon.SeqState(), p.mon.Journal()
	}

	var client *collector.ResilientClient
	var srv *collector.WireServer
	cmet := collector.NewMetrics()
	if spec.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv = collector.ServeWire(ln, sink)
		addr := ln.Addr().String()
		client = collector.NewResilientClient(func() (net.Conn, error) { return net.Dial("tcp", addr) },
			collector.ResilientOptions{MaxSpill: 1024})
		client.SetMetrics(cmet)
	}
	seqs := make([]int64, spec.gen.ranks)
	send := func(phase int, due int64) {
		gs := clk.now()
		rank, b := p.gen.next()
		r := batchRec{rank: rank, frags: len(b), seq: seqs[rank], phase: phase, due: due, genStart: gs, genEnd: clk.now()}
		seqs[rank]++
		i := led.push(r)
		if client == nil {
			sink.Consume(rank, b)
			return
		}
		cs := clk.now()
		client.Consume(rank, b)
		ce := clk.now()
		led.update(i, func(r *batchRec) { r.consStart, r.consEnd = cs, ce })
	}

	// Closed loop: send a fixed share of the run's nominal volume
	// (the offered rate is half the saturated rate) as fast as the
	// collector takes it. A fixed volume, not a fixed time, keeps the
	// stream — and with it every log-growth step the open loop meets — a
	// function of the seed alone. The open loop then sends openBatches
	// on a wall-clock schedule. The benchmark's own records are sized
	// before the measurement, so alloc_b_per_frag counts the collector.
	genStart := p.gen.frags
	satTarget := genStart + int(saturatedShare*cfg.seconds*2*spec.offered)
	interval := float64(spec.gen.batch) / spec.offered * 1e9
	openBatches := int(cfg.seconds * (1 - saturatedShare) * 1e9 / interval)
	led.reserve((satTarget-genStart)/spec.gen.batch + 1 + openBatches)
	run.lags = make([]float64, 0, openBatches)
	before := p.snapshot()
	run.mem0 = readRuntime()

	t0, c0 := clk.now(), cpuNS()
	for p.gen.frags < satTarget {
		for {
			n, d := led.counts()
			if n-d <= inflightCap && (client == nil || cmet.NetSpillDepth.Load() <= spillCap) {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		send(phaseSaturated, clk.now())
	}
	if !led.waitDelivered(60 * time.Second) {
		res.fail("closed loop: batches still undelivered after 60 s")
	}
	run.cpuPerFrag = float64(cpuNS()-c0) / float64(p.gen.frags-genStart)

	// Open loop: a fixed offered rate on a wall-clock schedule, with the
	// timed noise episodes anchored at its start.
	p.gen.setOrigin()
	run.origin = p.gen.origin
	t1 := clk.now()
	for i := 0; i < openBatches; i++ {
		due := t1 + int64(float64(i)*interval)
		if d := due - clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		run.lags = append(run.lags, float64(clk.now()-due)/1e6)
		send(phaseOpen, due)
	}
	if !led.waitDelivered(60 * time.Second) {
		res.fail("open loop: batches still undelivered after 60 s")
	}
	run.diff = regDiff{before, p.snapshot()}
	run.mem1 = readRuntime()
	run.measured = p.gen.frags - genStart
	run.recs = led.all()
	run.fpsChunks = chunkRates(run.recs, t0)
	run.events = p.events()

	// Output gate: the monitor closed exactly the windows the watermark
	// allows; every batch generated was delivered, once, in order, and is
	// resident; the wire surface rejected nothing.
	wm := p.gen.watermark()
	expect := 0
	if wm >= spec.win.period {
		expect = int((wm-spec.win.period)/spec.win.stride) + 1
	}
	if windows := int(p.windowCounter().Load()); windows != expect {
		res.fail("monitor analyzed %d windows, the watermark %d ns closes %d", windows, wm, expect)
		res.failed++
	}
	pushed, delivered := led.counts()
	undelivered := pushed - delivered
	if client != nil {
		if !client.Drain(10 * time.Second) {
			res.fail("client spill queue did not drain")
		}
		st := client.Stats()
		run.spillPeak = st.SpillPeak
		if st.Lost > 0 {
			res.fail("client lost %d batches", st.Lost)
		}
		if st.Sent != uint64(pushed) {
			res.fail("client sent %d of %d batches", st.Sent, pushed)
		}
		client.Close()
		srv.Close()
		if n := srv.FramesRejected() + srv.DecodeErrors() + srv.Panics(); n > 0 {
			res.fail("wire surface: %d rejected frames, %d decode errors, %d panics",
				srv.FramesRejected(), srv.DecodeErrors(), srv.Panics())
			res.failed += int(n)
		}
		if g := srv.SeqGaps(); g > 0 {
			res.fail("%d sequence gaps", g)
			res.failed += int(g)
		}
	}
	res.attempted += pushed
	res.failed += undelivered
	res.failedBatches += undelivered
	if undelivered > 0 {
		res.fail("%d of %d batches lost or undelivered", undelivered, pushed)
	}
	if led.badRank > 0 {
		res.fail("%d deliveries out of order", led.badRank)
		res.failed += led.badRank
	}
	if n := p.resident(); n != p.gen.frags {
		res.fail("generated %d fragments, %d resident", p.gen.frags, n)
		res.failed++
	}
	return run, nil
}

// rateChunks is how many equal parts the closed loop is cut into; its
// throughput is the median of theirs, so a burst of host noise moves
// one part, not the figure.
const rateChunks = 8

// chunkRates cuts the delivered closed-loop (or application) batches
// into rateChunks runs of consecutive batches and returns each run's
// fragments per second, timed from the previous run's last delivery
// (t0, on the sink's clock, for the first).
func chunkRates(recs []batchRec, t0 int64) []float64 {
	var sat []batchRec
	for i := range recs {
		if (recs[i].phase == phaseSaturated || recs[i].phase == phaseApp) && recs[i].delivered {
			sat = append(sat, recs[i])
		}
	}
	var out []float64
	prev := t0
	for k := 0; k < rateChunks; k++ {
		part := sat[k*len(sat)/rateChunks : (k+1)*len(sat)/rateChunks]
		if len(part) == 0 {
			continue
		}
		end := part[len(part)-1].sinkEnd
		out = append(out, float64(frags(part))/(float64(end-prev)/1e9))
		prev = end
	}
	return out
}

// frags sums the fragments of recs.
func frags(recs []batchRec) int {
	n := 0
	for i := range recs {
		n += recs[i].frags
	}
	return n
}

// consumeNS is the wall time spent inside ResilientClient.Consume.
func consumeNS(recs []batchRec) float64 {
	var ns int64
	for i := range recs {
		ns += recs[i].consEnd - recs[i].consStart
	}
	return float64(ns)
}

// sampleBatch is one batch kept for the offline codec and WAL timings.
type sampleBatch struct {
	rank  int
	seq   uint64
	frags []trace.Fragment
}

// sampleBatches regenerates the stream's first codecSample batches.
func sampleBatches(spec genSpec, seed uint64) []sampleBatch {
	g := newGen(spec, seed)
	seqs := make([]uint64, spec.ranks)
	out := make([]sampleBatch, 0, codecSample)
	for len(out) < codecSample {
		rank, b := g.next()
		out = append(out, sampleBatch{rank: rank, seq: seqs[rank], frags: append([]trace.Fragment(nil), b...)})
		seqs[rank]++
	}
	return out
}
