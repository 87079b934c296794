package experiments

import (
	"fmt"
	"strings"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/refine"
)

// ParallelRow is one line of the sequential-vs-parallel comparison: batch
// average Top-K partition-walk time at a worker count, its speedup over
// the sequential walk, and whether every outcome was identical to the
// sequential one (the determinism guarantee of partition_parallel.go).
type ParallelRow struct {
	Workers   int           `json:"workers"`
	Avg       time.Duration `json:"avg_ns"`
	AvgMS     float64       `json:"avg_ms"`
	Speedup   float64       `json:"speedup"`
	Identical bool          `json:"identical"`
	Engaged   int           `json:"engaged"` // queries that actually ran >1 worker
}

// ParallelCompare times the partition Top-K walk over a corruption batch
// at each worker count, bypassing the response cache: inputs are prepared
// once and refine.PartitionTopK is invoked directly, so the measurement
// isolates the walk the parallel layer accelerates. Every parallel outcome
// is checked against the sequential signature.
func ParallelCompare(c *Corpus, batch []datagen.Case, workerCounts []int, k, reps int) ([]ParallelRow, error) {
	ins := make([]refine.Input, 0, len(batch))
	for _, cs := range batch {
		in, _, err := c.Engine.Prepare(cs.Corrupted)
		if err != nil {
			return nil, fmt.Errorf("parallel compare prepare %v: %w", cs.Corrupted, err)
		}
		ins = append(ins, in)
	}
	// Sequential baseline: timing plus the reference signatures.
	want := make([]string, len(ins))
	for i := range ins {
		ins[i].Parallelism = 1
		out, err := refine.PartitionTopK(ins[i], k)
		if err != nil {
			return nil, err
		}
		want[i] = parallelSig(out)
	}
	base, err := timeIt(reps, func() error {
		for i := range ins {
			ins[i].Parallelism = 1
			if _, err := refine.PartitionTopK(ins[i], k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := []ParallelRow{{Workers: 1, Avg: base, AvgMS: msFloat(base), Speedup: 1, Identical: true}}
	for _, w := range workerCounts {
		if w <= 1 {
			continue
		}
		row := ParallelRow{Workers: w, Identical: true}
		for i := range ins {
			ins[i].Parallelism = w
			out, err := refine.PartitionTopK(ins[i], k)
			if err != nil {
				return nil, err
			}
			if out.Workers > 1 {
				row.Engaged++
			}
			if parallelSig(out) != want[i] {
				row.Identical = false
			}
		}
		row.Avg, err = timeIt(reps, func() error {
			for i := range ins {
				if _, err := refine.PartitionTopK(ins[i], k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row.AvgMS = msFloat(row.Avg)
		if row.Avg > 0 {
			row.Speedup = float64(base) / float64(row.Avg)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func msFloat(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// parallelSig flattens an outcome to the fields the engine consumes, in
// order — equal signatures mean byte-identical downstream behavior.
func parallelSig(out *refine.TopKOutcome) string {
	var b strings.Builder
	for _, it := range out.Candidates {
		fmt.Fprintf(&b, "%s|%v|", strings.Join(it.RQ.Keywords, ","), it.RQ.DSim)
		for _, m := range it.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
	}
	return b.String()
}
