package detect

import (
	"sync/atomic"
	"time"

	"vapro/internal/obs"
)

// Pipeline stages traced per analysis window. StagePrep is the whole
// per-element fan-out wall time; StageCluster and StageNormalize are the
// CPU time summed across workers inside it (cache-miss clustering and
// prep rebuilds — near zero on warm windows); StageMerge is the
// deterministic sample merge; StageMap is the heat-map + region-growing
// pass.
const (
	StagePrep = iota
	StageCluster
	StageNormalize
	StageMerge
	StageMap
)

// Metrics is the detection layer's observability surface.
type Metrics struct {
	// Windows counts completed analysis passes (whole-run or windowed).
	Windows *obs.Counter
	// WindowNS is the end-to-end latency distribution of one pass.
	WindowNS *obs.Histogram
	// Spans traces the per-stage latencies (see the Stage constants).
	Spans *obs.Spans
	// PrepIncremental counts element preps advanced by the delta path
	// (append-only generation steps patched in place).
	PrepIncremental *obs.Counter
	// PrepRebuilds counts element preps rebuilt from scratch; the four
	// counters below split it by reason (see rebuildReason): cold
	// elements, mixed-kind vertices, store compactions, and deltas the
	// prep could not apply (Full re-clusters, epoch bumps, option
	// changes, failed validation).
	PrepRebuilds          *obs.Counter
	PrepRebuildCold       *obs.Counter
	PrepRebuildMixed      *obs.Counter
	PrepRebuildCompaction *obs.Counter
	PrepRebuildDelta      *obs.Counter
	// DirtySpanPct is the distribution of the dirty-span ratio (percent
	// of the sorted order each incremental advance recomputed).
	DirtySpanPct *obs.Histogram
	// StoreAppends counts samples appended to chunked sample stores
	// (both initial builds and incremental advances).
	StoreAppends *obs.Counter
	// RegionCellsCarried counts heat-map cells whose region membership
	// was carried over from the previous window unchanged.
	RegionCellsCarried *obs.Counter
	// RegionCellsRegrown counts heat-map cells the region-growing pass
	// actually revisited (changed, shifted out of overlap, or batch).
	RegionCellsRegrown *obs.Counter
}

// NewMetrics registers the detection metrics into reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Windows: reg.Counter("vapro_detect_windows_total", "detect",
			"completed detection passes (whole-run and per-window)"),
		WindowNS: reg.Histogram("vapro_detect_window_ns", "detect",
			"end-to-end latency of one detection pass (ns)", obs.LatencyBounds()),
		Spans: obs.NewSpans(reg, "vapro_detect_stage", "detect",
			"prep", "cluster", "normalize", "merge", "map"),
		PrepIncremental: reg.Counter("vapro_detect_prep_incremental_total", "detect",
			"element preps advanced incrementally (append-only delta applied in place)"),
		PrepRebuilds: reg.Counter("vapro_detect_prep_rebuilds_total", "detect",
			"element preps rebuilt from scratch"),
		PrepRebuildCold: reg.Counter("vapro_detect_prep_rebuilds_cold_total", "detect",
			"prep rebuilds of elements with no memoized prep"),
		PrepRebuildMixed: reg.Counter("vapro_detect_prep_rebuilds_mixed_total", "detect",
			"prep rebuilds of mixed-kind vertices (which never advance)"),
		PrepRebuildCompaction: reg.Counter("vapro_detect_prep_rebuilds_compaction_total", "detect",
			"prep rebuilds forced by the sample store's dead-sample threshold"),
		PrepRebuildDelta: reg.Counter("vapro_detect_prep_rebuilds_delta_total", "detect",
			"prep rebuilds after a Full, stale-generation or invalid clustering delta"),
		DirtySpanPct: reg.Histogram("vapro_detect_dirty_span_pct", "detect",
			"dirty-span ratio of incremental advances (percent of sorted order recomputed)",
			[]int64{1, 2, 5, 10, 25, 50, 100}),
		StoreAppends: reg.Counter("vapro_detect_store_appends_total", "detect",
			"samples appended to chunked sample stores"),
		RegionCellsCarried: reg.Counter("vapro_detect_region_cells_carried_total", "detect",
			"heat-map cells carried over from the previous window's regions"),
		RegionCellsRegrown: reg.Counter("vapro_detect_region_cells_regrown_total", "detect",
			"heat-map cells revisited by region growing"),
	}
}

// rebuilt books one prep rebuild under its reason.
func (m *Metrics) rebuilt(r rebuildReason) {
	m.PrepRebuilds.Inc()
	switch r {
	case rebuildCold:
		m.PrepRebuildCold.Inc()
	case rebuildMixed:
		m.PrepRebuildMixed.Inc()
	case rebuildCompaction:
		m.PrepRebuildCompaction.Inc()
	default:
		m.PrepRebuildDelta.Inc()
	}
}

// SetMetrics attaches m to the analyzer; nil detaches. Instrumentation
// is observational only — results are bit-identical with or without it.
func (a *Analyzer) SetMetrics(m *Metrics) { a.met = m }

// stageClock accumulates worker CPU time for the sub-stages that run
// inside the stage-1 fan-out. Workers add concurrently; run() drains the
// totals into span records once per pass. Passes themselves are
// serialized by the callers (the pool's analysis mutex, the monitor's
// lock, the sequential core paths), so drain-and-reset is safe.
type stageClock struct {
	clusterNS atomic.Int64
	normNS    atomic.Int64
}

func (sc *stageClock) reset() {
	sc.clusterNS.Store(0)
	sc.normNS.Store(0)
}

// since is a tiny helper for the instrumentation sites.
func since(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }
