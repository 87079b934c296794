package refine

import (
	"time"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/slca"
)

// TopKOutcome is the result of the partition-based and short-list eager
// algorithms: up to 2K refined-query candidates by dissimilarity, each with
// its accumulated meaningful SLCA results. The caller (the engine) applies
// the full ranking model (Formula 10) to produce the final top K — the
// paper's line 19.
type TopKOutcome struct {
	// Candidates holds refined queries with at least one meaningful
	// result, in ascending dissimilarity.
	Candidates []*Item
	// Partitions counts document partitions actually visited, an
	// efficiency observable for the experiments.
	Partitions int
	// SLCACalls counts delegated SLCA computations. The parallel
	// execution path may count more calls than the sequential one: each
	// worker prunes against a bound that converges on the sequential
	// bound but can transiently admit extra candidates.
	SLCACalls int
	// Workers is the number of goroutines that executed the partition
	// walk: 1 for the sequential path.
	Workers int
	// Degraded reports that the exploration stopped early — deadline or
	// posting budget — and Candidates holds the best refined queries
	// found up to that point rather than the complete answer.
	Degraded bool
	// DegradedReason is one of the Degraded* constants when Degraded.
	DegradedReason string

	// RQGenerated counts refined-query candidates the dynamic program
	// produced across visited partitions (before dedup or pruning) —
	// the exploration's raw breadth.
	RQGenerated int
	// RQPruned counts candidates whose SLCA computation the top-2K
	// dissimilarity bound skipped — the paper's key optimization made
	// observable.
	RQPruned int
	// BoundUpdates counts tightenings of the shared pruning bound on
	// the parallel walk (the sequential walk's bound lives implicitly
	// in its sorted list and reports 0).
	BoundUpdates int
	// SLCAPostings totals the postings handed to delegated SLCA
	// computations — the work the SLCA layer actually received.
	SLCAPostings int64
}

// markDegraded records a budget-induced early stop on the outcome.
func (o *TopKOutcome) markDegraded(b *Budget) {
	if r := b.Reason(); r != "" {
		o.Degraded = true
		o.DegradedReason = r
	}
}

// PartitionTopK runs Algorithm 2: walk the keyword lists partition by
// partition (Definition 6.1) in document order; within each partition run
// the top-2K dynamic program over the keywords present, skip SLCA work for
// candidates that cannot enter the current top-2K (the paper's key
// optimization), and compute results with any SLCA algorithm, restricted to
// the partition's sublists. Each list is traversed exactly once
// (Theorem 2).
//
// When in.Parallelism > 1 the walk executes on the parallel
// partition-pipeline (see partition_parallel.go); the output is identical
// either way.
func PartitionTopK(in Input, k int) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	ks := in.scanKeywords()
	if len(ks) == 0 {
		return &TopKOutcome{Workers: 1}, nil
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	if in.Parallelism > 1 {
		return partitionTopKParallel(in, k, ks, lists)
	}
	return partitionTopKSeq(in, k, ks, lists)
}

// scanLists fetches the inverted list of every term of ks, in order; every
// algorithm in this package loads its lists here. Loads go through the
// context-aware index path so a canceled query stops between (possibly
// disk-backed) list loads, and each list is wrapped in a private View so
// the query's block-cache locality is its own. Under tracing it records a
// "load-lists" span noting how many lists had to be lazily loaded (vs
// already resident) and the posting mass fetched.
func scanLists(in Input, ks []string) ([]*index.List, error) {
	ctx := in.Budget.Context()
	sp := in.Trace.StartChild("load-lists")
	lists := make([]*index.List, len(ks))
	var loaded, postings int64
	for i, kw := range ks {
		l, wasLoaded, err := in.Index.ListCtxInfo(ctx, kw)
		if err != nil {
			sp.End()
			return nil, err
		}
		if wasLoaded {
			loaded++
		}
		postings += int64(l.Len())
		lists[i] = l.View()
	}
	if sp != nil {
		sp.SetInt("lists", int64(len(ks)))
		sp.SetInt("loaded", loaded)
		sp.SetInt("postings", postings)
		sp.End()
	}
	return lists, nil
}

// partitionTopKSeq is the sequential partition walk over the full lists.
// The budget is checked at partition granularity: a partition is either
// fully processed or not visited at all, so a degraded outcome is a clean
// prefix-in-document-order of the complete one.
func partitionTopKSeq(in Input, k int, ks []string, lists []*index.List) (*TopKOutcome, error) {
	out := &TopKOutcome{Workers: 1}
	sorted := NewSortedList(2 * k)
	w := newPartitionWalker(ks, lists, nil, nil)
	defer w.close()
	for {
		pid, ok := w.next()
		if !ok {
			break
		}
		if !in.Budget.Charge(w.spanPostings()) {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			out.markDegraded(in.Budget)
			break
		}
		out.Partitions++
		// Top-2K refined queries expressible in this partition (line 10).
		rqs := TopRQs(in.Query, w.avail, in.Rules, 2*k)
		out.RQGenerated += len(rqs)
		for _, rq := range rqs {
			item := sorted.Has(rq)
			if item == nil && !sorted.Qualifies(rq.DSim) {
				// Worse than the current 2K-th candidate: skip the
				// SLCA computation entirely (the paper's advantage
				// (2)).
				out.RQPruned++
				continue
			}
			res, postings, err := partitionSLCA(in, rq, ks, lists, w.spans, pid)
			if err != nil {
				return nil, err
			}
			out.SLCACalls++
			out.SLCAPostings += int64(postings)
			if len(res) == 0 {
				continue // no meaningful result in this partition
			}
			if item != nil {
				item.Results = append(item.Results, res...)
			} else {
				sorted.Insert(rq, res)
			}
		}
	}
	for _, it := range sorted.Items() {
		out.Candidates = append(out.Candidates, it)
	}
	return out, nil
}

// span is a half-open index interval into a keyword list.
type span struct{ start, end int }

// partitionWalker advances a cursor set over the keyword lists one document
// partition at a time (the getKLPartition loop of Algorithm 2, lines 5-8),
// restricted to the Dewey interval [lo, hi) when bounds are given. Each
// list is read through a pooled block cursor, so the walk decodes each
// compressed block at most once per list and produces no per-posting
// garbage; close() must run when the walk ends to recycle the decode
// buffers. Its spans slice and avail map are likewise reused across
// partitions so the hot loop does not allocate per partition visited.
type partitionWalker struct {
	ks     []string
	lists  []*index.List
	curs   []*index.Cursor
	limits []int
	spans  []span
	avail  map[string]bool
	v      dewey.ID // owned copy of the current minimum head (reused)
}

// newPartitionWalker positions cursors at the first posting >= lo (or the
// list start when lo is nil) and bounds the walk at the first posting >= hi
// (or the list end when hi is nil). lo and hi must be partition roots so no
// partition straddles two walkers.
func newPartitionWalker(ks []string, lists []*index.List, lo, hi dewey.ID) *partitionWalker {
	w := &partitionWalker{
		ks:     ks,
		lists:  lists,
		curs:   make([]*index.Cursor, len(lists)),
		limits: make([]int, len(lists)),
		spans:  make([]span, len(lists)),
		avail:  make(map[string]bool, len(lists)),
	}
	for i, l := range lists {
		c := l.NewCursor()
		w.curs[i] = c
		if lo != nil {
			c.SeekGE(lo)
		}
		if hi != nil {
			w.limits[i] = l.SeekGE(hi)
		} else {
			w.limits[i] = l.Len()
		}
		if w.limits[i] < c.Pos() {
			w.limits[i] = c.Pos()
		}
	}
	return w
}

// close recycles the walker's cursor decode buffers; the walker (and any
// ID it handed out by alias) must not be used afterwards.
func (w *partitionWalker) close() {
	for _, c := range w.curs {
		c.Close()
	}
}

// spanPostings returns the posting mass of the current partition — what
// the budget charges per partition visited.
func (w *partitionWalker) spanPostings() int {
	n := 0
	for _, s := range w.spans {
		n += s.end - s.start
	}
	return n
}

// next advances to the next non-empty partition, filling w.spans and
// w.avail with the partition's sublists, and returns its root label. It
// returns false when every cursor reached its limit. Postings at the
// document root belong to no partition and are skipped (the root is never a
// meaningful result).
func (w *partitionWalker) next() (dewey.ID, bool) {
	for {
		// Smallest unconsumed node across lists (paper line 5). The IDs a
		// cursor yields alias its reusable decode buffer, so the running
		// minimum is copied into w.v — a later read that decodes a new
		// block would otherwise recycle the memory under the comparison.
		found := false
		for i, c := range w.curs {
			if c.Pos() >= w.limits[i] {
				continue
			}
			if id := c.ID(); !found || dewey.Compare(id, w.v) < 0 {
				w.v = append(w.v[:0], id...)
				found = true
			}
		}
		if !found {
			return nil, false
		}
		v := w.v
		pid, ok := v.Partition()
		if !ok {
			for i, c := range w.curs {
				if c.Pos() < w.limits[i] && dewey.Equal(c.ID(), v) {
					c.Next()
				}
			}
			continue
		}
		pidEnd := pid.Next()
		clear(w.avail)
		for i, c := range w.curs {
			start := c.Pos()
			end := c.SeekGE(pidEnd)
			if end > w.limits[i] {
				// The cursor overshot this walker's range bound; the list
				// is exhausted for this walk, so it is never read again.
				end = w.limits[i]
			}
			w.spans[i] = span{start: start, end: end}
			if end > start {
				w.avail[w.ks[i]] = true
			}
		}
		return pid, true
	}
}

// partitionSLCA computes the meaningful SLCAs of rq inside one document
// partition by delegating to the configured SLCA algorithm over the
// partition-restricted sublists. The second return is the posting mass the
// SLCA computation consumed (0 when a keyword was absent and the
// computation was skipped). Under tracing, the time spent in the SLCA
// layer accumulates onto the trace span's slca_ns attribute — safe from
// concurrent workers.
func partitionSLCA(in Input, rq RQ, ks []string, lists []*index.List, spans []span, pid dewey.ID) ([]Match, int, error) {
	sub := make([]*index.List, 0, len(rq.Keywords))
	var witness *index.List
	for _, kw := range rq.Keywords {
		found := false
		for i, name := range ks {
			if name != kw {
				continue
			}
			s := spans[i]
			if s.end <= s.start {
				return nil, 0, nil // keyword absent from partition
			}
			l := lists[i].Sub(s.start, s.end)
			sub = append(sub, l)
			witness = l
			found = true
			break
		}
		if !found {
			return nil, 0, nil
		}
	}
	var t0 time.Time
	if in.Trace != nil {
		t0 = time.Now()
	}
	ids := slca.Compute(in.SLCA, sub)
	if in.Trace != nil {
		in.Trace.AddInt("slca_ns", int64(time.Since(t0)))
	}
	return meaningfulMatches(ids, witness, in.Judge), slca.Cost(sub), nil
}
