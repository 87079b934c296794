// Command xbench regenerates every table and figure of the paper's
// evaluation (Section VIII) on the synthetic substrate. Each subcommand
// corresponds to one experiment; `xbench all` runs everything. DESIGN.md
// carries the experiment index; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	xbench [-scale 1.0] [-reps 3] [-queries 50] <experiment>
//	paper experiments: tables3-6 fig4 fig5 fig6 table7 table8 table9 table10
//	extensions:        ablation-decay ablation-searchfor ablation-slca
//	                   ablation-beam elca parallel obs update shard compress
//	                   storage wire
//	or: all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
)

var (
	scale    = flag.Float64("scale", 1.0, "DBLP corpus scale in (0,1]")
	reps     = flag.Int("reps", 3, "timed repetitions per measurement")
	queries  = flag.Int("queries", 50, "effectiveness pool size")
	jsonOut  = flag.Bool("json", false, "emit machine-readable JSON (parallel experiment)")
	maxprocs = flag.Int("workers", 8, "largest worker count for the parallel experiment")
	writes   = flag.Int("writes", 20000, "synthetic write-burst size for the storage experiment")
	wireReqs = flag.Int("wire-requests", 400, "timed requests per surface for the wire experiment")
	wireDep  = flag.Int("wire-depth", 32, "in-flight pipeline depth for the wire experiment")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xbench [flags] tables3-6|fig4|fig5|fig6|table7|table8|table9|table10|ablation-decay|ablation-searchfor|ablation-slca|ablation-beam|elca|parallel|obs|update|shard|compress|storage|wire|all")
		os.Exit(2)
	}
	runners := map[string]func() error{
		"fig4":               fig4,
		"fig5":               fig5,
		"fig6":               fig6,
		"tables3-6":          tables3to6,
		"table7":             table7,
		"table8":             table8,
		"table9":             table9,
		"table10":            table10,
		"ablation-decay":     ablationDecay,
		"ablation-searchfor": ablationSearchFor,
		"ablation-slca":      ablationSLCA,
		"ablation-beam":      ablationBeam,
		"elca":               elcaCompare,
		"parallel":           parallelCompare,
		"obs":                obsOverhead,
		"update":             updateBench,
		"shard":              shardCompare,
		"compress":           compressCompare,
		"storage":            storageCompare,
		"wire":               wireCompare,
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range []string{
			"tables3-6", "fig4", "fig5", "fig6", "table7", "table8",
			"table9", "table10", "ablation-decay", "ablation-searchfor",
			"ablation-slca", "ablation-beam", "elca", "parallel", "obs",
			"update", "shard", "compress", "storage", "wire",
		} {
			if err := runners[n](); err != nil {
				fatal(err)
			}
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", name))
	}
	if err := run(); err != nil {
		fatal(err)
	}
}

func corpus() (*experiments.Corpus, error) { return experiments.DBLPCorpus(*scale) }

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n=== %s ===\n", title)
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

func fig4() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Fig4(c, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 4: Top-1 refinement time per sample query (ms, hot cache)")
	fmt.Fprintln(w, "query\top\tstack-refine\tSLE\tPartition\tstack-slca\tscan-slca\t|RQ results|\tverified")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%v\n",
			r.ID, r.Op, ms(r.StackRefine), ms(r.SLE), ms(r.Partition),
			ms(r.StackSLCA), ms(r.ScanSLCA), r.RQResultSize, r.Verified)
	}
	return w.Flush()
}

func fig5() error {
	ks := []int{1, 2, 3, 4, 5, 6}
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 40})
	if err != nil {
		return err
	}
	rows, err := experiments.Fig5(c, batch, ks, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 5(a): effect of K on Top-K refinement, DBLP (batch avg, ms)")
	fmt.Fprintln(w, "K\tPartition\tSLE")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%s\n", r.K, ms(r.Partition), ms(r.SLE))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	bb, err := experiments.BaseballCorpus()
	if err != nil {
		return err
	}
	bbBatch, err := bb.Workload(datagen.WorkloadConfig{Seed: 556, Queries: 20})
	if err != nil {
		return err
	}
	bbRows, err := experiments.Fig5(bb, bbBatch, ks, *reps)
	if err != nil {
		return err
	}
	w = header("Figure 5(b): effect of K on Top-K refinement, Baseball (batch avg, ms)")
	fmt.Fprintln(w, "K\tPartition\tSLE")
	for _, r := range bbRows {
		fmt.Fprintf(w, "%d\t%s\t%s\n", r.K, ms(r.Partition), ms(r.SLE))
	}
	return w.Flush()
}

func fig6() error {
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for i := range scales {
		scales[i] *= *scale
	}
	rows, err := experiments.Fig6(scales, 40, *reps)
	if err != nil {
		return err
	}
	w := header("Figure 6: effect of data size on Top-3 refinement (batch avg, ms)")
	fmt.Fprintln(w, "scale\tnodes\tPartition\tSLE")
	for _, r := range rows {
		fmt.Fprintf(w, "%d%%\t%d\t%s\t%s\n", r.ScalePct, r.Nodes, ms(r.Partition), ms(r.SLE))
	}
	return w.Flush()
}

func tables3to6() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	tables, err := experiments.Tables3to6(c, 4)
	if err != nil {
		return err
	}
	order := []struct{ op, title string }{
		{"deletion", "Table III: sample query set for term deletion"},
		{"merging", "Table IV: sample query set for term merging"},
		{"split", "Table V: sample query set for term split"},
		{"substitution", "Table VI: sample query set for term substitution"},
	}
	for _, o := range order {
		w := header(o.title)
		fmt.Fprintln(w, "ID\toriginal query\tsuggested refinement\tdSim\tresult size")
		for _, r := range tables[o.op] {
			fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%d\n",
				r.ID, experiments.JoinTerms(r.Original), experiments.JoinTerms(r.Suggested), r.DSim, r.ResultSize)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func table7() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table7(c)
	if err != nil {
		return err
	}
	w := header("Table VII: Top-4 refined queries with result counts (full ranking model)")
	fmt.Fprintln(w, "ID\toriginal query\tRQ1\tRQ2\tRQ3\tRQ4\trank-1 agreement")
	for _, r := range rows {
		cells := make([]string, 4)
		for i := range cells {
			if i < len(r.RQs) {
				cells[i] = fmt.Sprintf("%s,%d", experiments.JoinTerms(r.RQs[i].Keywords), r.RQs[i].Results)
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%.2f\n",
			r.ID, experiments.JoinTerms(r.Query), cells[0], cells[1], cells[2], cells[3], r.Agreement)
	}
	return w.Flush()
}

func table8() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	t8, _, err := experiments.BuildTable8(c, *queries*2)
	if err != nil {
		return err
	}
	w := header("Table VIII: query pool statistics")
	fmt.Fprintf(w, "pool size\t%d\n", t8.PoolSize)
	fmt.Fprintf(w, "avg keywords\t%.2f\n", t8.AvgLen)
	fmt.Fprintf(w, "need refinement\t%d\n", t8.NeedRefine)
	fmt.Fprintf(w, "refinable\t%d\n", t8.Refinable)
	for op, n := range t8.ByCorruption {
		fmt.Fprintf(w, "corruption %s\t%d\n", op, n)
	}
	return w.Flush()
}

func table9() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table9(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Table IX: CG@1..4 by ranking model (RS0 full, RSi drops Guideline i)", rows)
}

func table10() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.Table10(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Table X: CG@1..4 by (alpha, beta) weighting", rows)
}

func ablationDecay() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.AblationDecay(c, *queries)
	if err != nil {
		return err
	}
	return printCG("Ablation: Guideline-4 decay constant (paper asserts p=0.8)", rows)
}

func ablationSearchFor() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.AblationSearchFor(c, *queries)
	if err != nil {
		return err
	}
	w := header("Ablation: search-for candidate threshold θ (Guideline 3)")
	fmt.Fprintln(w, "theta\tavg candidates\tCG@1\tCG@2\tCG@3\tCG@4")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.Theta, r.AvgCandidates, r.CG[0], r.CG[1], r.CG[2], r.CG[3])
	}
	return w.Flush()
}

func ablationSLCA() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.AblationSLCA(c, 20, *reps)
	if err != nil {
		return err
	}
	w := header("Ablation: pluggable SLCA algorithm cost inside Partition (Lemma 3)")
	fmt.Fprintln(w, "slca algorithm\tbatch avg (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%s\n", r.Algo, ms(r.Partition))
	}
	return w.Flush()
}

func ablationBeam() error {
	rows, err := experiments.AblationBeam(200, 6, 2026)
	if err != nil {
		return err
	}
	w := header("Ablation: k-best DP beam width vs candidate recall (exhaustive ground truth)")
	fmt.Fprintln(w, "beam factor\trecall@6\toptimum always found")
	for _, r := range rows {
		fmt.Fprintf(w, "%dx\t%.3f\t%v\n", r.BeamFactor, r.Recall, r.OptimalAlways)
	}
	return w.Flush()
}

func elcaCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.CompareELCA(c, 15)
	if err != nil {
		return err
	}
	w := header("Extension: SLCA vs ELCA result counts (ELCA admits independently-witnessed ancestors)")
	fmt.Fprintln(w, "query\t|SLCA|\t|ELCA|")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\n", experiments.JoinTerms(r.Query), r.SLCA, r.ELCA)
	}
	return w.Flush()
}

func parallelCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 20})
	if err != nil {
		return err
	}
	var counts []int
	for w := 2; w <= *maxprocs; w *= 2 {
		counts = append(counts, w)
	}
	if len(counts) == 0 {
		counts = []int{2}
	}
	rows, err := experiments.ParallelCompare(c, batch, counts, 3, *reps)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			GOMAXPROCS int                       `json:"gomaxprocs"`
			Scale      float64                   `json:"scale"`
			K          int                       `json:"k"`
			Rows       []experiments.ParallelRow `json:"rows"`
		}{runtime.GOMAXPROCS(0), *scale, 3, rows})
	}
	w := header(fmt.Sprintf("Parallel partition pipeline: batch Top-3 walk time vs workers (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)))
	fmt.Fprintln(w, "workers\tbatch avg (ms)\tspeedup\tidentical output\tengaged queries")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.3f\t%.2fx\t%v\t%d\n", r.Workers, r.AvgMS, r.Speedup, r.Identical, r.Engaged)
	}
	return w.Flush()
}

func obsOverhead() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 777, Queries: 20})
	if err != nil {
		return err
	}
	rows, err := experiments.ObsOverhead(c, batch, 3, *reps)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Scale float64              `json:"scale"`
			K     int                  `json:"k"`
			Rows  []experiments.ObsRow `json:"rows"`
		}{*scale, 3, rows})
	}
	w := header("Tracing overhead: batch Top-3 partition walk, spans disarmed vs armed")
	fmt.Fprintln(w, "mode\tbatch avg (ms)\toverhead\tspans/batch")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.2f%%\t%d\n", r.Mode, r.AvgMS, r.OverheadPct, r.Spans)
	}
	return w.Flush()
}

// shardCompare measures scatter-gather fan-out scaling: the same
// corruption batch against the monolithic engine and against in-memory
// shard routers of growing width, with every sharded response checked
// against the monolithic signature.
func shardCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 20})
	if err != nil {
		return err
	}
	var counts []int
	for n := 2; n <= *maxprocs; n *= 2 {
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		counts = []int{2}
	}
	rows, err := experiments.ShardCompare(c, batch, counts, 3, *reps)
	if err != nil {
		return err
	}
	// Tail latency with one slow replica per shard: each page read on
	// replica 0 pays 1ms, the selector starts cold before every query, and
	// hedging (250µs delay) races the fast replica against it.
	tail, err := experiments.ShardTailLatency(c, batch[:10], 2, 3, *reps,
		time.Millisecond, 250*time.Microsecond)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			GOMAXPROCS int                    `json:"gomaxprocs"`
			Scale      float64                `json:"scale"`
			K          int                    `json:"k"`
			Rows       []experiments.ShardRow `json:"rows"`
			Tail       []experiments.TailRow  `json:"tail"`
		}{runtime.GOMAXPROCS(0), *scale, 3, rows, tail})
	}
	w := header(fmt.Sprintf("Sharded scatter-gather: batch Top-3 query time vs shard count (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)))
	fmt.Fprintln(w, "shards\tbatch avg (ms)\tspeedup\tidentical output")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.3f\t%.2fx\t%v\n", r.Shards, r.AvgMS, r.Speedup, r.Identical)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	w = header("Replica tail latency: 2 shards x 2 replicas, replica 0 slow (1ms/page read), cold selector per query")
	fmt.Fprintln(w, "mode\tsamples\tp50 (ms)\tp99 (ms)\tavg (ms)\thedges\tidentical output")
	for _, r := range tail {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\t%d\t%v\n",
			r.Mode, r.Samples, r.P50MS, r.P99MS, r.AvgMS, r.Hedges, r.Identical)
	}
	return w.Flush()
}

// compressCompare reports what the block-compressed posting storage buys
// (resident bytes per posting, against the modeled materialized form) and
// what it costs (raw decode rate, end-to-end batch latency).
func compressCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 20})
	if err != nil {
		return err
	}
	rep, err := experiments.CompressCompare(c, batch, 3, *reps)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Scale float64 `json:"scale"`
			K     int     `json:"k"`
			*experiments.CompressReport
		}{*scale, 3, rep})
	}
	w := header("Succinct postings: block-compressed vs materialized lists")
	fmt.Fprintf(w, "terms\t%d\n", rep.Terms)
	fmt.Fprintf(w, "postings\t%d\n", rep.Postings)
	fmt.Fprintf(w, "blocks\t%d\n", rep.Blocks)
	fmt.Fprintf(w, "decode ns/posting\t%.1f\n", rep.DecodeNsPerPosting)
	fmt.Fprintf(w, "compression ratio\t%.2fx\n", rep.Ratio)
	fmt.Fprintln(w, "mode\tresident bytes\tB/posting\tbatch avg (ms)")
	for _, r := range rep.Rows {
		avg := "-" // the legacy row is a bytes model, not a timed mode
		if r.Avg > 0 {
			avg = fmt.Sprintf("%.3f", r.AvgMS)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%s\n", r.Mode, r.ResidentBytes, r.BytesPerPosting, avg)
	}
	return w.Flush()
}

// storageCompare runs the storage-engine shoot-out: the corpus persisted
// through both engines, then write throughput, point/range read latency,
// on-disk amplification after checkpoint, and cold-start latency — with
// the log engine opened both through its hint files and with hints
// ignored, so the table prices exactly what the hint fast path buys.
func storageCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.StorageCompare(c, *writes, *reps)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Scale  float64                  `json:"scale"`
			Writes int                      `json:"writes"`
			Rows   []experiments.StorageRow `json:"rows"`
		}{*scale, *writes, rows})
	}
	w := header(fmt.Sprintf("Storage engines: B+tree vs log-structured (%dk-op write burst, checkpoint, cold start)", *writes/1000))
	fmt.Fprintln(w, "backend\tcold open (ms)\tscan open (ms)\thint speedup\twrites (kops/s)\twrites (MB/s)\tval bytes\tpoint read (µs)\trange scan (ms)\tkeys\tdisk bytes\tamplification\tsegments")
	for _, r := range rows {
		seg := "-"
		if r.Segments > 0 {
			seg = fmt.Sprint(r.Segments)
		}
		amp := "-"
		if r.Amplification > 0 {
			amp = fmt.Sprintf("%.2fx", r.Amplification)
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.1fx\t%.1f\t%.1f\t%d\t%.2f\t%.3f\t%d\t%d\t%s\t%s\n",
			r.Backend, r.ColdOpenMS, r.ScanOpenMS, r.HintSpeedup,
			r.WriteKOpsPerSec, r.WriteMBPerSec, r.ValueBytes, r.PointReadUS, r.RangeScanMS,
			r.Keys, r.DiskBytes, amp, seg)
	}
	return w.Flush()
}

func printCG(title string, rows []experiments.CGRow) error {
	w := header(title)
	fmt.Fprintln(w, "model\tCG@1\tCG@2\tCG@3\tCG@4")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", r.Model, r.CG[0], r.CG[1], r.CG[2], r.CG[3])
	}
	return w.Flush()
}

// updateBench measures the live-update path: apply throughput on its own,
// and query latency with and without a concurrent writer, quantifying
// what epoch publication costs readers. Uses an in-memory engine so the
// numbers isolate staging + epoch-swap cost from disk commit cost.
func updateBench() error {
	authors := int(800 * *scale)
	if authors < 100 {
		authors = 100
	}
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: authors, Seed: 42})
	if err != nil {
		return err
	}
	const batchOps = 8
	nBatches := 10 * *reps
	benchQueries := [][]string{
		{"database", "query"},
		{"keyword", "search", "xml"},
		{"online", "databse"}, // misspelled: exercises refinement
		{"twig", "pattern", "matching"},
	}

	// measure runs query rounds until stop closes, returning latencies.
	measure := func(eng *core.Engine, stop <-chan struct{}) []time.Duration {
		var lat []time.Duration
		for i := 0; ; i++ {
			select {
			case <-stop:
				return lat
			default:
			}
			q := benchQueries[i%len(benchQueries)]
			t0 := time.Now()
			if _, err := eng.QueryTerms(q, core.StrategyPartition, 3); err == nil {
				lat = append(lat, time.Since(t0))
			}
		}
	}
	stats := func(lat []time.Duration) (avg, p95 time.Duration) {
		if len(lat) == 0 {
			return 0, 0
		}
		sorted := append([]time.Duration(nil), lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, d := range sorted {
			sum += d
		}
		return sum / time.Duration(len(sorted)), sorted[len(sorted)*95/100]
	}

	// Apply-only throughput.
	batches, err := datagen.Updates(doc, datagen.UpdatesConfig{Batches: nBatches, Ops: batchOps, Seed: 99})
	if err != nil {
		return err
	}
	writer := core.NewFromDocument(doc, nil)
	t0 := time.Now()
	for _, b := range batches {
		if _, err := writer.Apply(b); err != nil {
			return err
		}
	}
	applyDur := time.Since(t0)
	opsTotal := nBatches * batchOps

	// Read-only baseline: queries for the same wall-clock the writer took.
	baseline := core.NewFromDocument(doc, nil)
	stop := make(chan struct{})
	time.AfterFunc(applyDur, func() { close(stop) })
	baseAvg, baseP95 := stats(measure(baseline, stop))

	// Mixed: a writer applying the same batches while one reader queries.
	mixed := core.NewFromDocument(doc, nil)
	stop = make(chan struct{})
	var mixedApply time.Duration
	var applyErr error
	go func() {
		defer close(stop)
		t := time.Now()
		for _, b := range batches {
			if _, err := mixed.Apply(b); err != nil {
				applyErr = err
				return
			}
		}
		mixedApply = time.Since(t)
	}()
	mixAvg, mixP95 := stats(measure(mixed, stop))
	if applyErr != nil {
		return applyErr
	}

	w := header("Update: apply throughput and query-latency impact (in-memory engine)")
	fmt.Fprintf(w, "corpus\t%d authors, %d nodes\n", authors, doc.NodeCount)
	fmt.Fprintf(w, "apply alone\t%d batches (%d ops) in %s = %.0f ops/s\n",
		nBatches, opsTotal, applyDur.Round(time.Millisecond), float64(opsTotal)/applyDur.Seconds())
	if mixedApply > 0 {
		fmt.Fprintf(w, "apply vs reader\t%s = %.0f ops/s\n",
			mixedApply.Round(time.Millisecond), float64(opsTotal)/mixedApply.Seconds())
	}
	fmt.Fprintf(w, "query latency idle\tavg %s\tp95 %s\n", ms(baseAvg), ms(baseP95))
	fmt.Fprintf(w, "query latency under writes\tavg %s\tp95 %s\n", ms(mixAvg), ms(mixP95))
	fmt.Fprintf(w, "final epoch\t%d\n", mixed.Epoch())
	return w.Flush()
}

func wireCompare() error {
	c, err := corpus()
	if err != nil {
		return err
	}
	rows, err := experiments.WireCompare(c, []int{1, 10}, *wireReqs, *wireDep)
	if err != nil {
		return err
	}
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			GOMAXPROCS int                   `json:"gomaxprocs"`
			Rows       []experiments.WireRow `json:"rows"`
		}{runtime.GOMAXPROCS(0), rows})
	}
	w := header(fmt.Sprintf("Wire: binary protocol vs HTTP, %d requests/surface, pipeline depth %d, GOMAXPROCS=%d",
		*wireReqs, *wireDep, runtime.GOMAXPROCS(0)))
	fmt.Fprintln(w, "surface\tk\tQPS\tQPS/core\tp50 ms\tp99 ms\tspeedup vs http")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.3f\t%.3f\t%.2fx\n",
			r.Surface, r.K, r.QPS, r.QPSCore, r.P50MS, r.P99MS, r.Speedup)
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xbench:", err)
	os.Exit(1)
}
