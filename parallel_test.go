// Differential tests for the parallel partition pipeline: for any query,
// corpus, K and worker count, PartitionTopK with Parallelism > 1 must
// return exactly the candidates of the sequential walk — same keyword
// sets, same dissimilarities, and Results concatenated in the same
// document order.
package xrefine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/experiments"
	"xrefine/internal/refine"
)

// outcomeSig renders everything the engine consumes from an exploration
// outcome; two outcomes with equal signatures rank identically.
func outcomeSig(out *refine.TopKOutcome) string {
	var b strings.Builder
	for _, it := range out.Candidates {
		fmt.Fprintf(&b, "%s|%v|", strings.Join(it.RQ.Keywords, ","), it.RQ.DSim)
		for _, m := range it.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func diffQuery(t *testing.T, c *experiments.Corpus, terms []string, k, workers int) (ranParallel bool) {
	t.Helper()
	in, _, err := c.Engine.Prepare(terms)
	if err != nil {
		t.Fatalf("prepare %v: %v", terms, err)
	}
	in.Parallelism = 1
	seq, err := refine.PartitionTopK(in, k)
	if err != nil {
		t.Fatalf("sequential %v: %v", terms, err)
	}
	in.Parallelism = workers
	par, err := refine.PartitionTopK(in, k)
	if err != nil {
		t.Fatalf("parallel %v: %v", terms, err)
	}
	if got, want := outcomeSig(par), outcomeSig(seq); got != want {
		t.Errorf("query %v k=%d workers=%d diverged\nparallel:\n%s\nsequential:\n%s", terms, k, workers, got, want)
	}
	if par.Partitions != seq.Partitions {
		t.Errorf("query %v k=%d workers=%d visited %d partitions, sequential %d", terms, k, workers, par.Partitions, seq.Partitions)
	}
	return par.Workers > 1
}

// frequentTerms returns the n most frequent indexed terms — queries over
// them have the longest lists and are guaranteed to engage the parallel
// path on the test corpus.
func frequentTerms(c *experiments.Corpus, n int) []string {
	vocab := c.Index.Vocabulary()
	sort.SliceStable(vocab, func(a, b int) bool {
		return c.Index.ListLen(vocab[a]) > c.Index.ListLen(vocab[b])
	})
	if len(vocab) > n {
		vocab = vocab[:n]
	}
	return vocab
}

// TestParallelPartitionMatchesSequential runs the full generated workload
// plus frequent-term queries through both execution paths for the
// acceptance grid k ∈ {1,3,10} × workers ∈ {2,4,8}.
func TestParallelPartitionMatchesSequential(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.Workload(datagen.WorkloadConfig{Seed: 909, Queries: 30})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]string, 0, len(batch)+4)
	for _, cs := range batch {
		queries = append(queries, cs.Corrupted)
	}
	freq := frequentTerms(c, 4)
	queries = append(queries,
		freq[:2], freq[1:3], freq[:3], append([]string{"databse"}, freq[2:4]...))
	parallelRuns := 0
	for _, k := range []int{1, 3, 10} {
		for _, workers := range []int{2, 4, 8} {
			for _, terms := range queries {
				if diffQuery(t, c, terms, k, workers) {
					parallelRuns++
				}
			}
		}
	}
	if parallelRuns == 0 {
		t.Fatal("no query engaged the parallel path; the differential proved nothing")
	}
	t.Logf("parallel path engaged on %d runs", parallelRuns)
}

// TestParallelPartitionFuzzDifferential throws randomized queries, K and
// worker counts at both paths. The seed is fixed for reproducibility.
func TestParallelPartitionFuzzDifferential(t *testing.T) {
	c, err := experiments.DBLPCorpus(0.2)
	if err != nil {
		t.Fatal(err)
	}
	vocab := c.Index.Vocabulary()
	freq := frequentTerms(c, 12)
	rng := rand.New(rand.NewSource(7))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		n := 2 + rng.Intn(3)
		terms := make([]string, 0, n)
		for j := 0; j < n; j++ {
			// Mix frequent terms (long lists, parallel engagement) with
			// uniform vocabulary draws (short lists, absent partitions).
			if rng.Intn(2) == 0 {
				terms = append(terms, freq[rng.Intn(len(freq))])
			} else {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
		}
		if rng.Intn(4) == 0 {
			terms = append(terms, "databse") // spelling rule trigger
		}
		k := 1 + rng.Intn(10)
		workers := 2 + rng.Intn(7)
		diffQuery(t, c, terms, k, workers)
	}
}
