package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vapro"
	"vapro/internal/collector"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// analyzeMain re-analyzes a journal directory. A run recorded with
// `vapro -record DIR` carries a run manifest beside its journal and gets
// the whole-run report `vapro` itself prints: summary, heat maps, the
// artifact files and diagnosis.
//
// A delivery journal written by `vapro serve -journal` has no manifest;
// it is replayed into a fresh offline pool and the windowed analysis
// runs over a virtual-time range. The journal holds the delivered frame
// stream in delivery order, so the rebuilt state — fragment logs,
// sequence gaps, outage intervals — matches what the live server held,
// and the window grid is anchored at zero exactly like the live one:
// a range query returns the same rows the live WindowResults would,
// filtered to the requested [from, to) span.
func analyzeMain(args []string) {
	fs := flag.NewFlagSet("vapro analyze", flag.ExitOnError)
	journal := fs.String("journal", "", "journal directory written by vapro serve -journal")
	from := fs.Float64("from", 0, "range start, seconds of virtual time")
	to := fs.Float64("to", 0, "range end, seconds of virtual time (0 = end of data)")
	ranks := fs.Int("ranks", 0, "rank-space size (0 = infer from the journaled frames)")
	jsonOut := fs.Bool("json", false, "emit the window rows as JSON")
	report := addReportFlags(fs, "report-json")
	_ = fs.Parse(args)
	if *journal == "" {
		fmt.Fprintln(os.Stderr, "vapro analyze: -journal is required")
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(*journal, collector.ManifestFile)); err == nil {
		analyzeRecording(*journal, report)
		return
	}
	if report.requested() {
		fmt.Fprintf(os.Stderr, "vapro analyze: %s holds no %s; report flags need a run recorded with vapro -record\n",
			*journal, collector.ManifestFile)
		os.Exit(2)
	}

	dirs, err := journalDirs(*journal)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vapro analyze:", err)
		os.Exit(1)
	}

	// First pass: recover every log (truncating torn tails) and size
	// the rank space off the journaled frames themselves.
	logs := make([]*wal.Log, 0, len(dirs))
	maxRank, frames := -1, 0
	for _, d := range dirs {
		l, err := wal.Open(d, wal.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro analyze:", err)
			os.Exit(1)
		}
		logs = append(logs, l)
		err = l.Replay(func(payload []byte) error {
			meta, _, derr := trace.DecodeBatchMeta(payload)
			if derr != nil {
				return fmt.Errorf("undecodable journaled frame in %s: %w", d, derr)
			}
			if meta.Rank > maxRank {
				maxRank = meta.Rank
			}
			frames++
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro analyze:", err)
			os.Exit(1)
		}
	}
	if frames == 0 {
		fmt.Fprintln(os.Stderr, "vapro analyze: journal holds no frames")
		os.Exit(1)
	}
	n := maxRank + 1
	if *ranks > n {
		n = *ranks
	}

	// Second pass: replay for real through the collector path (sequence
	// observation included), then run the range query. Sharded journals
	// replay sequentially — ranks never span shards, so each rank's
	// frame order is exactly its original delivery order.
	pool := collector.NewPool(n, collector.DefaultOptions())
	defer pool.Close()
	replayed := 0
	for _, l := range logs {
		nf, err := collector.ReplayJournal(l, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro analyze:", err)
			os.Exit(1)
		}
		replayed += nf
		_ = l.Close()
	}
	fromNS := int64(*from * float64(sim.Second))
	toNS := int64(*to * float64(sim.Second))
	results := pool.WindowResultsRange(fromNS, toNS)

	if *jsonOut {
		printWindowsJSON(results, replayed)
		return
	}
	fmt.Printf("replayed %d frame(s) from %d journal(s), %d rank(s), %d window(s)\n",
		replayed, len(logs), n, len(results))
	for _, w := range results {
		fmt.Printf("window %.2fs-%.2fs: %d region(s)\n",
			w.Start.Seconds(), w.End.Seconds(), len(w.Result.Regions))
		for _, reg := range w.Result.Regions {
			fmt.Printf("  %-13s ranks %d-%d cells %d mean perf %.3f loss %.3fms\n",
				reg.Class, reg.RankMin, reg.RankMax, reg.Cells, reg.MeanPerf,
				float64(reg.LossNS)/1e6)
		}
	}
}

// analyzeRecording prints the whole-run report of a recorded run.
func analyzeRecording(dir string, report *reportFlags) {
	res, err := vapro.AnalyzeJournal(dir, vapro.DefaultOptions().Collector.Detect)
	if err == nil {
		fmt.Println(res.Summary())
		err = report.write(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vapro analyze:", err)
		os.Exit(1)
	}
}

// journalDirs resolves the journal layout: a single-server journal is
// segments directly in dir; a sharded serve writes shard<N>/
// subdirectories. Both shapes are accepted.
func journalDirs(dir string) ([]string, error) {
	if wal.HasSegments(dir) {
		return []string{dir}, nil
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard*"))
	var out []string
	for _, s := range shards {
		if fi, err := os.Stat(s); err == nil && fi.IsDir() {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no journal segments or shard*/ subdirectories under %s", dir)
	}
	sort.Strings(out)
	return out, nil
}

// windowRow is the stable JSON shape for one analyzed window.
type windowRow struct {
	StartSec float64     `json:"start_sec"`
	EndSec   float64     `json:"end_sec"`
	Regions  []regionRow `json:"regions"`
}

type regionRow struct {
	Class    string  `json:"class"`
	RankMin  int     `json:"rank_min"`
	RankMax  int     `json:"rank_max"`
	Cells    int     `json:"cells"`
	MeanPerf float64 `json:"mean_perf"`
	LossMS   float64 `json:"loss_ms"`
}

func printWindowsJSON(results []*collector.WindowResult, replayed int) {
	out := struct {
		Replayed int         `json:"replayed_frames"`
		Windows  []windowRow `json:"windows"`
	}{Replayed: replayed, Windows: []windowRow{}}
	for _, w := range results {
		row := windowRow{StartSec: w.Start.Seconds(), EndSec: w.End.Seconds(), Regions: []regionRow{}}
		for _, reg := range w.Result.Regions {
			row.Regions = append(row.Regions, regionRow{
				Class: reg.Class.String(), RankMin: reg.RankMin, RankMax: reg.RankMax,
				Cells: reg.Cells, MeanPerf: reg.MeanPerf, LossMS: float64(reg.LossNS) / 1e6,
			})
		}
		out.Windows = append(out.Windows, row)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
