package refine

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// This file is the parallel execution layer for Algorithm 2. The document
// is pre-split into contiguous partition ranges (by posting mass, using
// List.SeekGE so splitting costs a handful of binary searches); the ranges
// fan out to a bounded worker pool. Each worker owns its cursor set
// (partitionWalker) and a local SortedList, and shares the current global
// 2K-th dissimilarity bound through an atomic so the paper's SLCA-skipping
// prune keeps working across goroutines.
//
// Each range's walk is recorded as a Scan (scan.go), and MergeScans
// replays the records partition-by-partition in document order through a
// fresh SortedList — the exact sequential admission logic — so the outcome
// (candidate set, dissimilarities, and Results concatenated in document
// order) is identical to the sequential run. The shared bound is only a
// work-avoidance hint: when a worker skipped an SLCA computation the replay
// turns out to need (a rare race near the bound), the merge recomputes it
// from the same partition sublists, which preserves the equivalence
// unconditionally.

// minPostingsPerRange keeps tiny documents on the sequential path: below
// this much posting mass per would-be range, goroutine and merge overhead
// dominates any overlap win.
const minPostingsPerRange = 256

// rangeOversplit is how many ranges each worker gets on average; splitting
// finer than the worker count lets the pool balance skewed partitions.
const rangeOversplit = 4

// partitionTopKParallel runs Algorithm 2 on in.Parallelism goroutines over
// the already-loaded lists of ks and returns output identical to
// partitionTopKSeq, to which documents too small to split fall back.
func partitionTopKParallel(in Input, k int, ks []string, lists []*index.List) (*TopKOutcome, error) {
	workers := in.Parallelism
	total := 0
	for _, l := range lists {
		total += l.Len()
	}
	if workers > total/minPostingsPerRange {
		workers = total / minPostingsPerRange
	}
	pivots := splitPivots(lists, workers*rangeOversplit)
	if workers <= 1 || len(pivots) == 0 {
		return partitionTopKSeq(in, k, ks, lists)
	}
	ranges := len(pivots) + 1
	if workers > ranges {
		workers = ranges
	}

	var (
		bound      = NewPruneBound()
		scans      = make([]*Scan, ranges)
		jobs       = make(chan int)
		wg         sync.WaitGroup
		firstErr   error
		firstErrMu sync.Mutex
	)
	fail := func(err error) {
		firstErrMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		firstErrMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Each worker gets its own span under the strategy span;
			// worker spans overlap in time by design, so their durations
			// are not additive with the sequential stage spans.
			ws := in.Trace.StartChild("worker-" + strconv.Itoa(wi))
			local := NewSortedList(2 * k)
			var nRanges, partitions, slcaCalls int
			for r := range jobs {
				lo, hi := rangeBounds(pivots, r)
				s, err := walkRange(in, k, ks, lists, lo, hi, local, bound)
				if err != nil {
					fail(err)
					continue
				}
				scans[r] = s
				nRanges++
				partitions += len(s.partitions)
				slcaCalls += s.slcaCalls
			}
			if ws != nil {
				ws.SetInt("ranges", int64(nRanges))
				ws.SetInt("partitions", int64(partitions))
				ws.SetInt("slca_calls", int64(slcaCalls))
				ws.End()
			}
		}(w)
	}
	for r := 0; r < ranges; r++ {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	ms := in.Trace.StartChild("merge")
	out, err := MergeScans(in, k, scans)
	ms.End()
	if err != nil {
		return nil, err
	}
	out.Workers = workers
	return out, nil
}

// rangeBounds returns the Dewey interval [lo, hi) of range r; nil means
// unbounded on that side.
func rangeBounds(pivots []dewey.ID, r int) (lo, hi dewey.ID) {
	if r > 0 {
		lo = pivots[r-1]
	}
	if r < len(pivots) {
		hi = pivots[r]
	}
	return lo, hi
}

// splitPivots picks up to n-1 partition-root labels splitting the combined
// posting mass of the lists into roughly equal contiguous ranges. Pivot
// candidates are the partition roots of the postings at fractional
// positions of each list, so each costs O(1) and ranges align with
// partition boundaries by construction. It returns nil when the lists
// cannot support more than one range (e.g. all mass in one partition).
func splitPivots(lists []*index.List, n int) []dewey.ID {
	if n <= 1 {
		return nil
	}
	var cands []dewey.ID
	for j := 1; j < n; j++ {
		for _, l := range lists {
			if l.Len() == 0 {
				continue
			}
			idx := l.Len() * j / n
			if p, ok := l.At(idx).ID.Partition(); ok {
				cands = append(cands, p)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return dewey.Compare(cands[i], cands[j]) < 0 })
	uniq := cands[:0]
	for i, p := range cands {
		if i == 0 || !dewey.Equal(cands[i-1], p) {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) <= n-1 {
		return uniq
	}
	// More distinct boundaries than ranges: sample evenly.
	out := make([]dewey.ID, 0, n-1)
	for i := 1; i < n; i++ {
		p := uniq[len(uniq)*i/n]
		if len(out) == 0 || !dewey.Equal(out[len(out)-1], p) {
			out = append(out, p)
		}
	}
	return out
}

// PruneBound publishes the smallest full-local-list worst dissimilarity
// any worker has seen — a lower envelope of the sequential 2K-th-candidate
// bound. Candidates at or above the bound cannot enter the final top-2K, so
// workers skip their SLCA computations. It is shared by the workers of one
// parallel walk, and by the per-shard scans of one scatter-gather query
// (see ScanShard): the bound is only ever a work-avoidance hint, so sharing
// it across any partitioning of the walk preserves exactness.
type PruneBound struct {
	bits atomic.Uint64 // math.Float64bits of the current bound
}

// NewPruneBound returns a bound initialized to +Inf (nothing prunable yet).
func NewPruneBound() *PruneBound {
	b := &PruneBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *PruneBound) get() float64 { return math.Float64frombits(b.bits.Load()) }

// lower tightens the bound to v if v is smaller, reporting whether it did.
func (b *PruneBound) lower(v float64) bool {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}
