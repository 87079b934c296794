// Command perfbench is the serving benchmark of this repository. It builds
// nothing itself: run.sh builds xserve, xrefine and xgen from the checkout
// and then runs this program, which generates every input from its seed,
// starts xserve as a child process with shipped defaults, drives one named
// workload, checks every answer against an in-process engine, and prints
// one JSON result line last.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload refine-wire --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the separate in-process traced pass and reports the per-layer
// metrics instead. RECORD.md in this directory describes the workloads,
// the metrics and how the layers are expected to move them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates the result line plus the human-readable lines printed
// before it: per-phase counts, sample counts and metrics that are shown but
// not part of the result line.
type report struct {
	res   result
	notes []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a metric of the result line.
func (r *report) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records an informational line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase folds one phase's operation counts into the totals and notes them.
func (r *report) phase(name string, attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	r.note("phase %-16s attempted=%d succeeded=%d failed=%d", name, attempted, attempted-failed, failed)
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.note("INCORRECT: "+format, args...)
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("# %-22s %14.4f %s\n", n, m.Value, m.Unit)
	}
	// Every value is a finite number: rates and means divide by counts
	// that are positive once a run gets this far.
	b, _ := json.Marshal(r.res)
	fmt.Println(string(b))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds of the end-to-end run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	flag.StringVar(&o.root, "root", ".", "checkout root holding .bench_build/bin")
	flag.Parse()
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep, err := run(o, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// run prepares the run directory and dispatches to the end-to-end or the
// traced pass.
func run(o options, wl *workload) (*report, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	env := &env{bin: filepath.Join(root, ".bench_build", "bin")}
	for _, b := range []string{"xserve", "xrefine", "xgen"} {
		if _, err := os.Stat(filepath.Join(env.bin, b)); err != nil {
			return nil, fmt.Errorf("missing %s binary (run through run.sh): %w", b, err)
		}
	}
	env.dir = filepath.Join(root, ".bench_build", "runs",
		o.workload+"-s"+strconv.FormatInt(o.seed, 10)+"-p"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	env.traceOut = filepath.Join(root, ".bench_build", "trace")

	rep := newReport()
	rep.note("workload %s seed %d seconds %d trace %v", o.workload, o.seed, o.seconds, o.trace)
	rep.note("host nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	c, err := buildCorpus(env)
	if err != nil {
		return nil, err
	}
	defer c.close()
	rep.note("corpus dblp authors=%d seed=%d nodes=%d partitions=%d store=%d bytes",
		corpusAuthors, corpusSeed, c.doc.NodeCount, len(c.ref.Index().PartitionRoots()), c.storeBytes)
	if o.trace {
		err = runTraced(o, wl, env, c, rep)
	} else {
		err = runEndToEnd(o, wl, env, c, rep)
	}
	return rep, err
}
