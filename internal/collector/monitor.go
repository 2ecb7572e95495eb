package collector

import (
	"sync"

	"vapro/internal/cluster"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/interpose"
	"vapro/internal/sim"
	"vapro/internal/stg"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Monitor is the online analysis loop of Figure 8: as fragment batches
// stream in, it watches the virtual-time watermark, analyzes each
// completed (overlapped) window, reports detected variance immediately,
// and — when a window shows variance — progressively widens the armed
// counter groups so subsequent windows carry the counters the next
// diagnosis stage needs. This is the deployment mode of the real tool;
// the whole-run analysis in core.RunTraced is the offline equivalent.
//
// The monitor keeps no fragments of its own: windows run over the
// pool's merged view with the pool's persistent analyzer, exactly like
// Pool.RunWindow, so every fragment is resident once.
//
// Wrap it around a Pool as the interpose.Sink:
//
//	pool := collector.NewPool(ranks, copt)
//	mon := collector.NewMonitor(pool, mopt)
//	... use mon as the sink for traced ranks ...
//	events := mon.Drain()
type Monitor struct {
	*windowLoop
	pool *Pool

	// olsStreams holds each edge's warm per-cluster regression moments
	// (see monitor_ols.go), maintained by the pool analyzer's
	// cluster-delta hook. Guarded by olsMu, NOT m.mu: the hook fires
	// from the window analysis's worker pool while the loop holds m.mu.
	olsMu      sync.Mutex
	olsStreams map[cluster.Key]*elemMoments
	olsFactors []diagnose.Factor
}

// MonitorOptions configures the online loop.
type MonitorOptions struct {
	// Ranks the monitor waits for before closing a window.
	Ranks int
	// Period and Overlap mirror the pool's analysis windows.
	Period, Overlap sim.Duration
	// Detect configures the per-window analysis.
	Detect detect.Options
	// MinRegionLoss filters reported regions: a region must have lost
	// at least this much time to trigger an event.
	MinRegionLoss sim.Duration
	// Classes selects which fragment classes may trigger events.
	// Defaults to computation and IO: communication "performance" is
	// elapsed-based and therefore wait-dominated (§3.3), which makes
	// it too jittery for unattended alerting; opt in explicitly when
	// network variance is the target.
	Classes []detect.Class
	// MaxStage caps how far the progressive arming may descend.
	MaxStage int
	// DisableStreamingOLS is the escape hatch for the streaming §4.2
	// quantification: when set, the monitor keeps no warm regression
	// moments and DiagnoseEvent quantifies with the batch QuantifyOLS
	// over the collected cluster populations (the legacy path). The two
	// paths are pinned equivalent by TestMonitorStreamingOLSEquivalence.
	DisableStreamingOLS bool
}

// DefaultMonitorOptions mirrors the offline defaults.
func DefaultMonitorOptions(ranks int) MonitorOptions {
	o := DefaultOptions()
	return MonitorOptions{
		Ranks:         ranks,
		Period:        o.Period,
		Overlap:       o.Overlap,
		Detect:        o.Detect,
		MinRegionLoss: 10 * sim.Millisecond,
		MaxStage:      3,
		Classes:       []detect.Class{detect.Computation, detect.IOClass},
	}
}

// Event is one online finding: a window analysis that detected variance,
// plus the counter-group action the monitor took in response.
type Event struct {
	WindowStart, WindowEnd sim.Time
	Regions                []detect.Region
	// ArmedAfter is the counter-group set active after this event
	// (widened when the monitor escalated a diagnosis stage).
	ArmedAfter sim.Group
	// Stage is the progressive stage the monitor is at after the event.
	Stage int
}

// NewMonitor wraps pool with an online analysis loop. Windows analyze
// MonitorOptions.Ranks ranks with MonitorOptions.Detect.
func NewMonitor(pool *Pool, opt MonitorOptions) *Monitor {
	m := &Monitor{
		pool:       pool,
		olsStreams: make(map[cluster.Key]*elemMoments),
	}
	m.windowLoop = newWindowLoop(opt, pool.ranks, pool.Armed, m.analyzeWindow)
	m.olsFactors = olsFactorsFor(m.opt.MaxStage)
	pool.an.SetClusterDeltaHook(m.observeClustering)
	return m
}

// Metrics returns the observability surface shared with the wrapped
// pool; the wire server counts into it when a Monitor is the sink.
func (m *Monitor) Metrics() *Metrics { return m.pool.met }

// SeqState forwards the pool's sequence tracker so a wire server with a
// Monitor sink still accumulates gap accounting across restarts.
func (m *Monitor) SeqState() *SeqTracker { return m.pool.seq }

// Journal forwards the pool's delivery journal so a wire server with a
// Monitor sink journals exactly what it delivers.
func (m *Monitor) Journal() *wal.Log { return m.pool.Journal() }

// Consume implements interpose.Sink: forward to the pool, advance the
// rank watermark, and analyze any window every rank has passed.
func (m *Monitor) Consume(rank int, frags []trace.Fragment) {
	m.pool.Consume(rank, frags)
	m.observe(rank, frags)
}

// ConsumeSized mirrors Consume for the wire path: the pool books the
// payload size the wire server measured instead of re-encoding the
// batch.
func (m *Monitor) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	m.pool.ConsumeSized(rank, frags, bytes)
	m.observe(rank, frags)
}

// ConsumeTraced mirrors ConsumeSized for sampled traced batches: the
// provenance context rides through the pool's staging path while the
// monitor's own half proceeds unchanged.
func (m *Monitor) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	m.pool.ConsumeTraced(rank, frags, bytes, tc)
	m.observe(rank, frags)
}

// analyzeWindow runs one window through the pool's own path (drain,
// view refresh, persistent analyzer). Clustering is memoized per
// element across the overlapped windows, and normalization uses each
// element's full population, so the per-window reference performance
// is the best fragment seen so far, not just the window's best; the
// window only filters which samples feed the heat map.
func (m *Monitor) analyzeWindow(start, end int64) *detect.Result {
	dopt := m.opt.Detect
	dopt.Outages = m.pool.seq.Outages()
	return m.pool.runWindowWith(start, end, m.opt.Ranks, dopt)
}

// CacheStats reports the hit/miss counters of the pool's memoized
// clustering layer, where the monitor's windows run: hits are window
// analyses that reused a previous window's clustering of an element
// that did not grow in between.
func (m *Monitor) CacheStats() (hits, misses uint64) {
	return m.pool.an.Cache().Stats()
}

// DiagnoseEvent runs the progressive diagnosis for an online event's
// top region against everything the pool has received. Fragments are
// clustered per edge (reusing the clusterings the window analyses
// already memoized) so only comparable fixed-workload populations
// are differenced — mixing workload classes would misattribute their
// intrinsic differences as variance.
func (m *Monitor) DiagnoseEvent(ev *Event, opt diagnose.Options) *diagnose.Report {
	if len(ev.Regions) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.pool
	p.drainAll()
	p.amu.Lock()
	defer p.amu.Unlock()
	edges := m.eventEdgesLocked(ev)
	var clusters [][]trace.Fragment
	for _, e := range edges {
		cl := p.an.Cache().Run(cluster.EdgeKey(e.Key), e.Gen, e.Fragments, m.opt.Detect.Cluster)
		for ci := range cl.Clusters {
			if !cl.Clusters[ci].Fixed {
				continue
			}
			clusters = append(clusters, e.Fragments.Pick(cl.Clusters[ci].Members))
		}
	}
	// When every involved edge has warm regression moments at the
	// current generation, the §4.2 quantification answers from them
	// instead of refitting over the resident populations; otherwise the
	// default batch QuantifyOLS runs unchanged.
	if q := m.streamQuantifier(edges); q != nil {
		opt.Quantifier = q
	}
	return diagnose.New(opt).Run(diagnose.SliceSource(clusters))
}

// eventEdgesLocked folds every drained batch into the pool's view and
// returns the view edges the event's top region samples, in first-seen
// order. Caller holds m.mu and p.amu and has drained the servers.
func (m *Monitor) eventEdgesLocked(ev *Event) []*stg.Edge {
	g := m.pool.refreshView()
	var edges []*stg.Edge
	seen := map[trace.EdgeKey]bool{}
	for _, s := range ev.Regions[0].Samples {
		if !s.ClusterRef.IsEdge || seen[s.ClusterRef.Edge] {
			continue
		}
		seen[s.ClusterRef.Edge] = true
		if e := g.Edge(s.ClusterRef.Edge); e != nil {
			edges = append(edges, e)
		}
	}
	return edges
}

// windowLoop is the online windowing both monitors share: the per-rank
// virtual-time high-water marks, the window grid, the event filters and
// the progressive counter arming. Each monitor supplies only its own
// analysis of a window [start, end) and the arming handle it widens.
type windowLoop struct {
	opt     MonitorOptions
	armed   *interpose.Armed
	analyze func(start, end int64) *detect.Result

	mu sync.Mutex
	// rankHigh is each rank's completed virtual time; the watermark is
	// their minimum — a window is analyzable once every rank has
	// advanced past its end.
	rankHigh  map[int]sim.Time
	nextStart sim.Time
	events    []Event
	stage     int
}

// newWindowLoop applies the MonitorOptions defaults (ranks is the
// wrapped plane's provisioned rank count) and starts at stage 1.
func newWindowLoop(opt MonitorOptions, ranks int, armed *interpose.Armed, analyze func(start, end int64) *detect.Result) *windowLoop {
	if opt.Ranks <= 0 {
		opt.Ranks = ranks
	}
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	if opt.MaxStage <= 0 {
		opt.MaxStage = 3
	}
	return &windowLoop{
		opt:      opt,
		armed:    armed,
		analyze:  analyze,
		rankHigh: make(map[int]sim.Time),
		stage:    1,
	}
}

// observe advances rank's watermark past frags and analyzes every
// window the global watermark has completed.
func (l *windowLoop) observe(rank int, frags []trace.Fragment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	high := l.rankHigh[rank]
	for i := range frags {
		if e := sim.Time(frags[i].Start + frags[i].Elapsed); e > high {
			high = e
		}
	}
	l.rankHigh[rank] = high
	l.analyzeReady()
}

// watermarkLocked returns the minimum high-water mark across all ranks
// seen so far (0 until every rank has reported at least once).
func (l *windowLoop) watermarkLocked() sim.Time {
	if len(l.rankHigh) < l.opt.Ranks {
		return 0
	}
	var min sim.Time = 1 << 62
	for _, t := range l.rankHigh {
		if t < min {
			min = t
		}
	}
	return min
}

// analyzeReady runs the analysis for every window whose end the
// watermark has passed. Caller holds l.mu.
func (l *windowLoop) analyzeReady() {
	stride := l.opt.Period - l.opt.Overlap
	for {
		end := l.nextStart.Add(l.opt.Period)
		if l.watermarkLocked() < end {
			return
		}
		l.windowLocked(l.nextStart, end)
		l.nextStart = l.nextStart.Add(stride)
	}
}

// windowLocked analyzes [start, end) and, when regions of a selected
// class lost at least MinRegionLoss, records an event and escalates one
// diagnosis stage. Caller holds l.mu.
func (l *windowLoop) windowLocked(start, end sim.Time) {
	res := l.analyze(int64(start), int64(end))
	var regions []detect.Region
	for _, reg := range res.Regions {
		if l.classOK(reg.Class) && sim.Duration(reg.LossNS) >= l.opt.MinRegionLoss {
			regions = append(regions, reg)
		}
	}
	if len(regions) == 0 {
		return
	}
	// Variance in this window: escalate one diagnosis stage by arming
	// the next counter groups, so the following windows carry the data
	// the finer factors need (§4.3's one-period-per-stage trade-off).
	if l.stage < l.opt.MaxStage {
		l.stage++
		armed := l.armed.Get()
		switch l.stage {
		case 2:
			armed |= sim.GroupBackend
		default:
			armed |= sim.GroupMemory | sim.GroupExtra
		}
		l.armed.Set(armed)
	}
	l.events = append(l.events, Event{
		WindowStart: start,
		WindowEnd:   end,
		Regions:     regions,
		ArmedAfter:  l.armed.Get(),
		Stage:       l.stage,
	})
}

func (l *windowLoop) classOK(c detect.Class) bool {
	if len(l.opt.Classes) == 0 {
		return true
	}
	for _, want := range l.opt.Classes {
		if c == want {
			return true
		}
	}
	return false
}

// Flush analyzes any remaining partial window at the end of the run.
func (l *windowLoop) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	var max sim.Time
	for _, t := range l.rankHigh {
		if t > max {
			max = t
		}
	}
	for l.nextStart < max {
		l.windowLocked(l.nextStart, l.nextStart.Add(l.opt.Period))
		l.nextStart = l.nextStart.Add(l.opt.Period - l.opt.Overlap)
	}
}

// Drain returns the events recorded so far and clears the queue.
func (l *windowLoop) Drain() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// Stage returns the current progressive stage (1 until variance is
// first detected).
func (l *windowLoop) Stage() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stage
}
