// Command perfbench is the repository's end-to-end benchmark of the
// online collector: it generates a workload from a seed, drives it
// through the collector's public entry points (client, wire, intake,
// monitor, journal, sharded tier, interposition), times every layer
// from outside, checks the outputs, and prints one JSON result line.
//
//	perfbench --workload live-1d --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    uint64
	seconds float64
	traced  bool
	setups  int // set-ups per run; the last collector is measured
	outDir  string
	tiny    bool // test size: small populations, few windows
	// minWindows is the fewest open-loop windows a run may close: 200
	// for the run that reports window_p95_ms (ten windows beyond it).
	minWindows int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"live-1d", "durable-commio", "sharded-4", "app-cg"}

// run executes one pass of a workload.
func run(name string, cfg runCfg) (*result, error) {
	if name == "app-cg" {
		return runApp(appSpec(cfg.tiny), cfg)
	}
	spec, ok := synthSpecs(cfg.tiny)[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return runSynth(spec, cfg)
}

// setups is how many times an untraced run sets a synthetic workload
// up; setup_s is the median of their times.
const setups = 7

// measure is what one command line runs: the untraced pass, and with
// trace on a second, traced pass of the same workload and seed whose
// per-layer metrics are reported with trace_overhead.
func measure(name string, cfg runCfg) (*result, error) {
	if !cfg.traced {
		cfg.setups = setups
		if !cfg.tiny {
			cfg.minWindows = 200
		}
		runtime.GC()
		return stolen(func() (*result, error) { return run(name, cfg) })
	}
	// Both passes of a traced run take a third of the run's length, so
	// the pair costs about what a plain run does.
	cfg.setups = 1
	cfg.seconds /= 3
	cfg.traced = false
	plain, err := stolen(func() (*result, error) { return run(name, cfg) })
	if err != nil {
		return nil, err
	}
	runtime.GC()
	cfg.traced = true
	traced, err := stolen(func() (*result, error) { return run(name, cfg) })
	if err != nil {
		return nil, err
	}
	pf, _ := plain.get("ingest_fps")
	tf, _ := traced.get("ingest_fps")
	traced.layer("trace_overhead", ratio(tf.Value, pf.Value), "ratio")
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.steal = max(traced.steal, plain.steal)
	for _, f := range plain.failures {
		traced.fail("untraced pass: %s", f)
	}
	return traced, nil
}

// stolen runs fn and books into its result the share of the machine's
// CPU time the hypervisor stole meanwhile.
func stolen(fn func() (*result, error)) (*result, error) {
	s0, t0 := cpuTimes()
	res, err := fn()
	if err != nil {
		return nil, err
	}
	s1, t1 := cpuTimes()
	res.steal = ratio(float64(s1-s0), float64(t1-t0))
	return res, nil
}

// host describes the machine and code a result row was measured on.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	h := host{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	h.Commit = commit(root)
	return h
}

// commit names the code under test: the git commit when the tree is a
// repository, otherwise a hash of its Go sources and module files.
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the machine's cumulative steal and total CPU time
// (jiffies) from /proc/stat; both are 0 where it is unavailable.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		var v uint64
		fmt.Sscan(f[i], &v)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// summary is the last line of standard output: the run's verdict and
// the metrics BENCHMARK.json lists for its mode.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]summaryVal `json:"metrics"`
}

type summaryVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize selects the metrics BENCHMARK.json lists: the end-to-end
// set for an untraced run, the per-layer set for a traced one.
func summarize(r *result) (summary, error) {
	defs := endToEnd
	if r.cfg.traced {
		defs = perLayer
	}
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]summaryVal{}}
	for _, d := range defs {
		m, ok := r.get(d.name)
		if !ok {
			return s, fmt.Errorf("workload %s did not report %s", r.workload, d.name)
		}
		s.Metrics[d.name] = summaryVal{Value: m.Value, Unit: m.Unit}
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		s.Failed = 1
		s.Correct = false
	}
	if !s.Correct && s.Failed == 0 {
		s.Failed = 1
	}
	return s, nil
}

// row is one line of the results log: host, workload, every metric.
type row struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took during the run: a row measured under heavy steal is not
	// comparable with a quiet one.
	StealFrac float64     `json:"steal_frac"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   []metricVal `json:"metrics"`
	Layers    []metricVal `json:"layers,omitempty"`
}

func appendRow(path string, r row) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall seconds")
	traceOn := flag.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the results log, span dumps and scratch logs")
	root := flag.String("root", ".", "repository root (for the commit stamp)")
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h := hostInfo(*root)
	fmt.Printf("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d\n",
		h.Nproc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit, *seed)
	cfg := runCfg{seed: *seed, seconds: *seconds, traced: *traceOn == 1, outDir: *outDir}
	res, err := measure(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host steal_frac=%.4f during the measurement\n", res.steal)
	var rep strings.Builder
	res.report(&rep)
	fmt.Print(rep.String())
	if cfg.traced {
		table := formatSelfTimes(selfTimes(res.spans))
		fmt.Print("per-layer self time (traced pass):\n" + table)
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *workload, *seed))
		if err := writeSpans(base+"-spans.jsonl", res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(base+"-selftime.txt", []byte(table), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	sum, err := summarize(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	err = appendRow(filepath.Join(*outDir, "results.jsonl"), row{Host: h, Workload: *workload, Seed: *seed,
		Seconds: *seconds, Trace: cfg.traced, StealFrac: res.steal, Correct: sum.Correct, Attempted: sum.Attempted, Failed: sum.Failed,
		Failures: res.failures, Metrics: res.metrics, Layers: res.layerVals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
