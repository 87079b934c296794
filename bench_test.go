// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation (Section VIII), on a reduced-scale corpus so `go test -bench`
// stays laptop-friendly. The full-scale numbers that EXPERIMENTS.md records
// come from `go run ./cmd/xbench all`; these benches expose the same
// measurements to the standard Go tooling (benchstat, -benchmem, CI
// regressions).
package xrefine_test

import (
	"fmt"
	"testing"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/eval"
	"xrefine/internal/experiments"
	"xrefine/internal/index"
	"xrefine/internal/rank"
	"xrefine/internal/refine"
	"xrefine/internal/slca"
)

// benchScale keeps the bench corpus at a fifth of the full evaluation size.
const benchScale = 0.2

func benchCorpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	c, err := experiments.DBLPCorpus(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchSamples(b *testing.B, c *experiments.Corpus) []experiments.Sample {
	b.Helper()
	samples, err := experiments.SampleQueries(c)
	if err != nil {
		b.Fatal(err)
	}
	return samples
}

func listsFor(b *testing.B, c *experiments.Corpus, terms []string) []*index.List {
	b.Helper()
	out := make([]*index.List, len(terms))
	for i, t := range terms {
		l, err := c.Index.List(t)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = l
	}
	return out
}

// BenchmarkFig4 reproduces Figure 4: Top-1 refinement over the sample
// queries, one sub-benchmark per approach (the three refinement algorithms
// plus the two plain-SLCA baselines on the original query).
func BenchmarkFig4(b *testing.B) {
	c := benchCorpus(b)
	samples := benchSamples(b, c)
	for _, st := range []struct {
		name string
		s    core.Strategy
	}{
		{"stack-refine", core.StrategyStack},
		{"sle", core.StrategySLE},
		{"partition", core.StrategyPartition},
	} {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := samples[i%len(samples)]
				if _, err := c.Engine.QueryTerms(s.Terms, st.s, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, bl := range []struct {
		name string
		algo slca.Algorithm
	}{
		{"stack-slca", slca.AlgoStack},
		{"scan-slca", slca.AlgoScanEager},
	} {
		b.Run(bl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := samples[i%len(samples)]
				slca.Compute(bl.algo, listsFor(b, c, s.Terms))
			}
		})
	}
}

// BenchmarkFig5 reproduces Figure 5: Top-K refinement time versus K for
// the partition-based and short-list eager algorithms.
func BenchmarkFig5(b *testing.B) {
	c := benchCorpus(b)
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 10})
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []struct {
		name string
		s    core.Strategy
	}{
		{"partition", core.StrategyPartition},
		{"sle", core.StrategySLE},
	} {
		for _, k := range []int{1, 3, 6} {
			b.Run(fmt.Sprintf("%s/K=%d", st.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cs := batch[i%len(batch)]
					if _, err := c.Engine.QueryTerms(cs.Corrupted, st.s, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: Top-3 refinement versus corpus size.
func BenchmarkFig6(b *testing.B) {
	for _, scale := range []float64{0.05, 0.1, 0.2} {
		c, err := experiments.DBLPCorpus(scale)
		if err != nil {
			b.Fatal(err)
		}
		batch, err := c.Workload(datagen.WorkloadConfig{Seed: 1234, Queries: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range []struct {
			name string
			s    core.Strategy
		}{
			{"partition", core.StrategyPartition},
			{"sle", core.StrategySLE},
		} {
			b.Run(fmt.Sprintf("%s/scale=%d%%", st.name, int(scale*100)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cs := batch[i%len(batch)]
					if _, err := c.Engine.QueryTerms(cs.Corrupted, st.s, 3); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTables3to6 measures the per-operation suggestion pipeline (the
// work behind the Tables III-VI rows: rule generation, exploration and
// top-1 suggestion for each corruption kind).
func BenchmarkTables3to6(b *testing.B) {
	c := benchCorpus(b)
	for _, op := range datagen.AllCorruptions {
		cases, err := c.Workload(datagen.WorkloadConfig{Seed: 77, Queries: 5, Ops: []datagen.Corruption{op}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(op.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs := cases[i%len(cases)]
				if _, err := c.Engine.QueryTerms(cs.Corrupted, core.StrategyPartition, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7 measures Top-4 exploration plus full-model ranking (the
// Table VII pipeline).
func BenchmarkTable7(b *testing.B) {
	c := benchCorpus(b)
	samples := benchSamples(b, c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if _, err := c.Engine.QueryTerms(s.Terms, core.StrategyPartition, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8 measures the query-pool classification behind Table VIII:
// run the engine once per workload query and decide need-refinement.
func BenchmarkTable8(b *testing.B) {
	c := benchCorpus(b)
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 2025, Queries: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs := batch[i%len(batch)]
		if _, err := c.Engine.QueryTerms(cs.Corrupted, core.StrategyPartition, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable9 measures one ranking-model evaluation step of Table IX:
// re-ranking an explored candidate set under the full model and scoring it
// with the CG machinery.
func BenchmarkTable9(b *testing.B) {
	c := benchCorpus(b)
	samples := benchSamples(b, c)
	type prepared struct {
		terms    []string
		rqs      [][]string
		dsims    []float64
		results  []map[string]bool
		intended map[string]bool
	}
	var pool []prepared
	for _, s := range samples {
		out, _, err := c.Engine.Explore(s.Terms, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Candidates) == 0 {
			continue
		}
		p := prepared{terms: s.Terms, intended: map[string]bool{"x": true}}
		for _, it := range out.Candidates {
			p.rqs = append(p.rqs, it.RQ.Keywords)
			p.dsims = append(p.dsims, it.RQ.DSim)
			res := map[string]bool{}
			for _, m := range it.Results {
				res[m.ID.String()] = true
			}
			p.results = append(p.results, res)
		}
		pool = append(pool, p)
	}
	if len(pool) == 0 {
		b.Skip("no refinable samples")
	}
	judges := eval.NewJudges(6, 99, 0.15)
	model := rank.Default()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pool[i%len(pool)]
		for j := range p.rqs {
			if _, err := model.Rank(c.Index, nil, p.terms, p.rqs[j], p.dsims[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eval.AverageCG(judges, p.intended, p.results, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable10 measures the (α,β) weighting sweep of Table X on one
// explored query.
func BenchmarkTable10(b *testing.B) {
	c := benchCorpus(b)
	samples := benchSamples(b, c)
	out, cands, err := c.Engine.Explore(samples[0].Terms, 4)
	if err != nil {
		b.Fatal(err)
	}
	if len(out.Candidates) == 0 {
		b.Skip("sample not refinable")
	}
	weights := []rank.Model{}
	for _, ab := range [][2]float64{{1, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 2}} {
		m := rank.Default()
		m.Alpha, m.Beta = ab[0], ab[1]
		weights = append(weights, m)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := weights[i%len(weights)]
		for _, it := range out.Candidates {
			if _, err := m.Rank(c.Index, cands, samples[0].Terms, it.RQ.Keywords, it.RQ.DSim); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParallelQueries drives the engine from all cores at once — the
// serving profile behind cmd/xserve. The engine is read-only after build,
// so throughput should scale with cores.
func BenchmarkParallelQueries(b *testing.B) {
	c := benchCorpus(b)
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 31, Queries: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			cs := batch[i%len(batch)]
			i++
			if _, err := c.Engine.QueryTerms(cs.Corrupted, core.StrategyPartition, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionTopKWorkers measures the parallel partition pipeline
// against the sequential baseline (workers=1) on the batch Top-K workload.
// Inputs are prepared outside the timed loop so the measurement isolates
// the partition walk itself.
func BenchmarkPartitionTopKWorkers(b *testing.B) {
	c := benchCorpus(b)
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 555, Queries: 10})
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]refine.Input, 0, len(batch))
	for _, cs := range batch {
		in, _, err := c.Engine.Prepare(cs.Corrupted)
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := ins[i%len(ins)]
				in.Parallelism = workers
				if _, err := refine.PartitionTopK(in, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures corpus indexing (Section VII construction).
func BenchmarkIndexBuild(b *testing.B) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 200, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		index.Build(doc)
	}
}
