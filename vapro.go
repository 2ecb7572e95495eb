// Package vapro is a Go reproduction of "Vapro: Performance Variance
// Detection and Diagnosis for Production-Run Parallel Applications"
// (Zheng et al., PPoPP 2022): an online, lightweight tool that detects
// and diagnoses performance variance in parallel programs without
// source code, by intercepting external invocations, organizing the
// resulting fragments into a State Transition Graph, clustering them
// into fixed-workload classes, normalizing performance within each
// class, and progressively breaking detected variance down into
// hardware and OS factors.
//
// Because Go has no MPI ecosystem, PMU access, or LD_PRELOAD
// interposition of its own binaries, the package runs applications on
// deterministic simulated substrates (virtual-time MPI, a machine model
// with top-down counters, a distributed file system); DESIGN.md
// documents each substitution. The detection and diagnosis algorithms
// themselves are complete implementations of the paper's methods.
//
// Quick start:
//
//	app, _ := vapro.App("CG")
//	sch := vapro.NewNoise().Add(vapro.CPUContention(0, 3, vapro.Seconds(0.5), vapro.Seconds(1.5), 0.5))
//	opt := vapro.DefaultOptions()
//	opt.Ranks = 64
//	opt.Noise = sch
//	res := vapro.Run(app, opt)
//	fmt.Println(res.Summary())
//	fmt.Println(vapro.RenderHeatMap(res, vapro.Computation))
//	fmt.Println(res.DiagnoseTop(vapro.Computation, vapro.DefaultDiagnoseOptions()))
package vapro

import (
	"io"

	"vapro/internal/apps"
	"vapro/internal/collector"
	"vapro/internal/core"
	"vapro/internal/detect"
	"vapro/internal/diagnose"
	"vapro/internal/heatmap"
	"vapro/internal/noise"
	"vapro/internal/report"
	"vapro/internal/sim"
)

// Re-exported core types. See the internal packages for full
// documentation of each.
type (
	// Options configures a session (ranks, noise, interposition,
	// collection).
	Options = core.Options
	// Result is a traced run: STG, detection, diagnosis entry points.
	Result = core.Result
	// PlainResult is an untraced baseline run.
	PlainResult = core.PlainResult
	// Application is a runnable workload skeleton.
	Application = apps.App
	// NoiseSchedule composes injected noise events.
	NoiseSchedule = noise.Schedule
	// NoiseEvent is one injected perturbation.
	NoiseEvent = noise.Event
	// Class selects computation, communication or IO analysis.
	Class = detect.Class
	// Region is a detected variance region.
	Region = detect.Region
	// DiagnoseOptions tunes the progressive diagnosis.
	DiagnoseOptions = diagnose.Options
	// DiagnoseReport is the factor-tree diagnosis output.
	DiagnoseReport = diagnose.Report
	// Factor is a node of the variance breakdown model.
	Factor = diagnose.Factor
	// Time is virtual time (ns since run start).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Heat-map classes.
const (
	Computation   = detect.Computation
	Communication = detect.Communication
	IO            = detect.IOClass
)

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultDiagnoseOptions returns the paper's diagnosis thresholds
// (abnormal ratio 1.2, major-factor contribution 0.25).
func DefaultDiagnoseOptions() DiagnoseOptions { return diagnose.DefaultOptions() }

// App constructs a bundled application skeleton by name; Apps lists the
// available names (CG, EP, FT, LU, MG, BT, SP, AMG, CESM, HPL, Nekbone,
// RAxML, BERT, PageRank, WordCount, FFT, blackscholes, canneal, ferret,
// swaptions, vips).
func App(name string) (Application, error) { return apps.New(name) }

// Apps lists the bundled application names.
func Apps() []string { return apps.Names() }

// SizeScaler scales an application's problem size (every bundled app
// implements it).
type SizeScaler = apps.Scaler

// Run executes the application with Vapro attached and returns the
// analysis result.
func Run(app Application, opt Options) *Result { return core.RunTraced(app, opt) }

// OnlineResult is a monitored run: the usual result plus the events the
// live analysis loop produced while the application was running.
type OnlineResult = core.OnlineResult

// OnlineEvent is one live finding: a window that showed variance, and
// the counter-group escalation taken in response.
type OnlineEvent = collector.Event

// RunOnline executes the application in Vapro's deployment mode: the
// server pool analyzes overlapped windows while fragments stream in,
// reports variance as events, and progressively widens the armed
// counter groups (§3.5, §4.3, Figure 8).
func RunOnline(app Application, opt Options) *OnlineResult { return core.RunOnline(app, opt) }

// RunPlain executes the application without Vapro (baseline timing for
// overhead measurement).
func RunPlain(app Application, opt Options) *PlainResult { return core.RunPlain(app, opt) }

// NewNoise returns an empty noise schedule.
func NewNoise() *NoiseSchedule { return noise.NewSchedule() }

// Seconds converts seconds to virtual Time.
func Seconds(s float64) Time { return Time(sim.FromSeconds(s)) }

// CPUContention emulates a `stress`-style competitor on one core.
func CPUContention(node, core int, start, end Time, share float64) NoiseEvent {
	return noise.CPUContention(node, core, sim.Time(start), sim.Time(end), share)
}

// MemContention emulates `stream`-style memory-bandwidth noise on a
// node.
func MemContention(node int, start, end Time, slowdown float64) NoiseEvent {
	return noise.MemContention(node, sim.Time(start), sim.Time(end), slowdown)
}

// IOInterference slows the shared file system during a window.
func IOInterference(start, end Time, slowdown float64) NoiseEvent {
	return noise.IOInterference(sim.Time(start), sim.Time(end), slowdown)
}

// DegradedMemoryNode models a node with permanently reduced memory
// bandwidth (bwFraction < 1).
func DegradedMemoryNode(node int, bwFraction float64) NoiseEvent {
	return noise.DegradedMemoryNode(node, bwFraction)
}

// RenderHeatMap draws the run's heat map for one class as ASCII art.
func RenderHeatMap(res *Result, class Class) string {
	h := res.Detection.Maps[class]
	out := heatmap.Render(h, heatmap.DefaultOptions())
	if h != nil {
		out += heatmap.RenderRegions(h, res.Detection.Regions)
	}
	return out
}

// RenderHeatMapSVG draws the run's heat map for one class as an SVG
// document with detected regions outlined (the paper's figures).
func RenderHeatMapSVG(res *Result, class Class) string {
	return heatmap.RenderSVG(res.Detection.Maps[class], res.Detection.Regions)
}

// RenderSTG renders the run's State Transition Graph in Graphviz dot
// syntax (Figure 4).
func RenderSTG(res *Result) string { return res.Graph.DOT() }

// AnalyzeJournal rebuilds an analysis result from a run recorded into
// dir with Options.Record: the offline half of the record/analyze
// workflow.
func AnalyzeJournal(dir string, dopt detect.Options) (*Result, error) {
	return core.AnalyzeJournal(dir, dopt)
}

// DefaultDetectOptions returns the paper's detection thresholds
// (clustering 5%, min 5 repetitions, region threshold 0.85).
func DefaultDetectOptions() detect.Options { return detect.DefaultOptions() }

// ReportHTML renders a complete self-contained HTML report for the run:
// coverage, the ranked variance-region table, per-class heat maps as
// inline SVG, and the progressive diagnosis factor trees.
func ReportHTML(res *Result) string {
	return report.HTML(res, report.DefaultOptions())
}

// ReportJSON serializes the run's analysis for machine consumption
// (coverage, regions, and — when diagnose is set — the factor tree of
// the top region).
func ReportJSON(res *Result, diagnose bool) ([]byte, error) {
	return report.JSON(res, diagnose)
}

// WriteHeatMapPNG renders the run's heat map for one class as a PNG
// image with detected regions outlined.
func WriteHeatMapPNG(w io.Writer, res *Result, class Class) error {
	return heatmap.WritePNG(w, res.Detection.Maps[class], res.Detection.Regions)
}
