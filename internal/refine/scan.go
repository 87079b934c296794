package refine

import (
	"xrefine/internal/dewey"
	"xrefine/internal/index"
)

// This file is the record-and-replay core shared by the parallel and the
// sharded executions of Algorithm 2. A Scan walks one contiguous stretch of
// partitions — a document range of the parallel walk, or every partition of
// one shard — and records, per partition, the refined queries it surfaced
// and the SLCA results it computed, charging the one Budget and tightening
// the one PruneBound every scan of a query shares. MergeScans then replays
// the records of all scans in global document order — partitions
// interleave across scans under a k-way merge on their labels — through
// the sequential admission logic, recomputing any bound-skipped SLCA
// against the owning scan's lists. The outcome is byte-identical to the
// sequential walk over the whole corpus: the same partitions, in the same
// order, through the same SortedList.
//
// The sequential walk (partitionTopKSeq) stays its own loop: one recorded
// range replayed through MergeScans gives the same candidates and counters
// (TestOneRangeReplayMatchesSequential) but costs 5-15% more walk time,
// because every partition's refined queries are recorded and then replayed.

// Scan is the record of one partition walk, ready to merge. The input,
// keyword set and lists are retained because bound-skipped SLCA
// recomputations during the merge must run against the lists the scan
// walked (for a shard scan, the lists of the shard that owns the
// partition).
type Scan struct {
	in    Input
	ks    []string
	lists []*index.List

	partitions   []partitionRecord
	slcaCalls    int
	slcaPostings int64
	rqGenerated  int
	rqPruned     int
	boundUpdates int
}

// rqRecord is one refined query surfaced in one partition: the RQ itself
// and, when the walk computed it, the partition's meaningful SLCA results.
// computed distinguishes "computed, empty" (no recompute needed) from
// "skipped by the bound" (the merge recomputes on demand).
type rqRecord struct {
	rq       RQ
	computed bool
	results  []Match
}

// partitionRecord is everything the merge needs to replay one partition.
type partitionRecord struct {
	pid dewey.ID
	rqs []rqRecord
}

// ScanShard walks every partition of one shard. in is the merged-corpus
// query input with Index swapped for the shard's own index; ks is the scan
// keyword set computed once against the merged index (Input.ScanKeywords),
// so every shard scans the same keyword columns; bound is the pruning
// bound shared across the fan-out. Degradable budget expiry truncates the
// record (only fully-processed partitions contribute); a hard cancellation
// or storage fault returns the error.
func ScanShard(in Input, k int, ks []string, bound *PruneBound) (*Scan, error) {
	if k < 1 {
		k = 1
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	return walkRange(in, k, ks, lists, nil, nil, NewSortedList(2*k), bound)
}

// Partitions reports how many partitions the scan fully processed.
func (s *Scan) Partitions() int { return len(s.partitions) }

// walkRange records the partitions inside [lo, hi) (nil bounds are open):
// for each partition it runs the top-2K dynamic program and computes SLCA
// results for every refined query that might still enter the global
// top-2K, judged against the walker-local list and the shared bound. local
// persists across the ranges a worker processes — it only ever tightens
// the bound, and ranges are replayed in document order later, so staleness
// is harmless.
func walkRange(in Input, k int, ks []string, lists []*index.List, lo, hi dewey.ID, local *SortedList, bound *PruneBound) (*Scan, error) {
	s := &Scan{in: in, ks: ks, lists: lists}
	w := newPartitionWalker(ks, lists, lo, hi)
	defer w.close()
	for {
		pid, ok := w.next()
		if !ok {
			return s, nil
		}
		// The budget is shared across every walker, so one tripped check
		// stops them all cooperatively. A hard cancellation aborts with
		// the context error; a degradable stop truncates this record —
		// only fully-processed partitions contribute.
		if !in.Budget.Charge(w.spanPostings()) {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			return s, nil
		}
		rqs := TopRQs(in.Query, w.avail, in.Rules, 2*k)
		s.rqGenerated += len(rqs)
		rec := partitionRecord{pid: pid, rqs: make([]rqRecord, 0, len(rqs))}
		for _, rq := range rqs {
			item := local.Has(rq)
			if item == nil && !(rq.DSim < bound.get() && local.Qualifies(rq.DSim)) {
				s.rqPruned++
				rec.rqs = append(rec.rqs, rqRecord{rq: rq})
				continue
			}
			matches, postings, err := partitionSLCA(in, rq, ks, lists, w.spans, pid)
			if err != nil {
				return nil, err
			}
			s.slcaCalls++
			s.slcaPostings += int64(postings)
			rec.rqs = append(rec.rqs, rqRecord{rq: rq, computed: true, results: matches})
			if len(matches) == 0 || item != nil {
				continue
			}
			if local.Insert(rq, nil) != nil && local.Full() {
				if bound.lower(local.Worst()) {
					s.boundUpdates++
				}
			}
		}
		s.partitions = append(s.partitions, rec)
	}
}

// MergeScans replays the partition records of every scan in global
// document order through a fresh SortedList — the exact sequential
// admission logic — and returns the query-wide outcome. in is the
// query-level input: its Budget aborts the replay on a hard cancellation
// and supplies the degradation reason. Nil scans (failed shards) simply
// contribute nothing; the caller is responsible for tagging the response
// shard-partial.
func MergeScans(in Input, k int, scans []*Scan) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	out := &TopKOutcome{Workers: 1}
	sorted := NewSortedList(2 * k)
	type cursor struct {
		s *Scan
		i int
	}
	var cur []cursor
	var spans []span
	for _, s := range scans {
		if s == nil {
			continue
		}
		out.SLCACalls += s.slcaCalls
		out.SLCAPostings += s.slcaPostings
		out.RQGenerated += s.rqGenerated
		out.RQPruned += s.rqPruned
		out.BoundUpdates += s.boundUpdates
		if len(s.partitions) > 0 {
			cur = append(cur, cursor{s: s})
		}
		if len(s.lists) > len(spans) {
			spans = make([]span, len(s.lists))
		}
	}
	for len(cur) > 0 {
		// Replay only touches recorded work plus occasional in-memory SLCA
		// recomputes, so the degradable budget is ignored here — but a
		// hard cancellation still aborts.
		if err := in.Budget.Err(); err != nil {
			return nil, err
		}
		best := 0
		for i := 1; i < len(cur); i++ {
			a := cur[i].s.partitions[cur[i].i].pid
			b := cur[best].s.partitions[cur[best].i].pid
			if dewey.Compare(a, b) < 0 {
				best = i
			}
		}
		c := &cur[best]
		out.Partitions++
		if err := replayPartition(c.s, c.s.partitions[c.i], spans, sorted, out); err != nil {
			return nil, err
		}
		c.i++
		if c.i >= len(c.s.partitions) {
			cur = append(cur[:best], cur[best+1:]...)
		}
	}
	for _, it := range sorted.Items() {
		out.Candidates = append(out.Candidates, it)
	}
	out.markDegraded(in.Budget)
	return out, nil
}

// replayPartition applies one partition recorded by scan s to the merge's
// SortedList with exactly the sequential admission logic: membership and
// qualification are judged against the replay list, and SLCA results the
// recording walk skipped (its bound was a lower envelope of the replay's)
// are recomputed here from the same partition sublists. spans is scratch
// for the recompute, at least as long as s.lists.
func replayPartition(s *Scan, rec partitionRecord, spans []span, sorted *SortedList, out *TopKOutcome) error {
	spansReady := false
	for _, rr := range rec.rqs {
		item := sorted.Has(rr.rq)
		if item == nil && !sorted.Qualifies(rr.rq.DSim) {
			continue
		}
		res := rr.results
		if !rr.computed {
			if !spansReady {
				partitionSpans(s.lists, rec.pid, spans)
				spansReady = true
			}
			var err error
			var postings int
			res, postings, err = partitionSLCA(s.in, rr.rq, s.ks, s.lists, spans, rec.pid)
			if err != nil {
				return err
			}
			out.SLCACalls++
			out.SLCAPostings += int64(postings)
		}
		if len(res) == 0 {
			continue
		}
		if item != nil {
			item.Results = append(item.Results, res...)
		} else {
			sorted.Insert(rr.rq, res)
		}
	}
	return nil
}

// partitionSpans reconstructs the sublist spans of a partition. Inside the
// walk the span start is the cursor position, but by the time a partition
// is visited every posting before its root has been consumed, so the
// cursor equals SeekGE(pid) — two binary searches recover the same spans.
func partitionSpans(lists []*index.List, pid dewey.ID, spans []span) {
	pidEnd := pid.Next()
	for i, l := range lists {
		spans[i] = span{start: l.SeekGE(pid), end: l.SeekGE(pidEnd)}
	}
}
