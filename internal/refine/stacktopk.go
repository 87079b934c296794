package refine

import (
	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/slca"
	"xrefine/internal/xmltree"
)

// StackTopK extends Algorithm 1 to Top-K exploration: the same single
// stack-based merge over KS discovers refined-query candidates at every
// meaningful entry (running the top-2K dynamic program on the entry's
// witnessed keywords instead of only the optimum), and the survivors'
// SLCA results are computed afterwards over the full lists.
//
// This is an extension beyond the paper, which defines Algorithm 1 as
// optimal-RQ-only: collecting K candidates per entry makes the per-node
// bookkeeping even heavier (the algorithm was already the slowest of the
// three), and the final result computation re-reads the candidates' lists
// the way Algorithm 3's step 2 does — so the paper's one-scan theorem
// applies to candidate *discovery* here, not to result generation. Use it
// when stack-based processing is already the deployment choice and Top-K
// output is wanted anyway.
func StackTopK(in Input, k int) (*TopKOutcome, error) {
	if k < 1 {
		k = 1
	}
	out := &TopKOutcome{}
	ks := in.scanKeywords()
	if len(ks) == 0 {
		return out, nil
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	byTerm := make(map[string]*index.List, len(ks))
	for i, kw := range ks {
		byTerm[kw] = lists[i]
	}
	sorted := NewSortedList(2 * k)

	type entry struct {
		mask uint64
		typ  *xmltree.Type
	}
	var stack []entry
	var path dewey.ID
	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.mask != 0 && in.Judge.Meaningful(e.typ) {
			avail := make(map[string]bool)
			for i, kw := range ks {
				if e.mask&(1<<i) != 0 {
					avail[kw] = true
				}
			}
			for _, rq := range TopRQs(in.Query, avail, in.Rules, 2*k) {
				if sorted.Has(rq) == nil && sorted.Qualifies(rq.DSim) {
					sorted.Insert(rq, nil)
				}
			}
		}
		path = path[:len(path)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].mask |= e.mask
		}
	}
	merge := newMergeScan(lists)
	defer merge.close()
	steps := 0
	for {
		id, mask, typ, ok := merge.next()
		if !ok {
			break
		}
		steps++
		if steps%budgetStride == 0 && !in.Budget.Charge(budgetStride) {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			break // degradable stop: finalize the partial stack below
		}
		keep := dewey.LCALen(path, id)
		for len(stack) > keep {
			pop()
		}
		for len(path) < len(id) {
			depth := len(path)
			path = append(path, id[depth])
			t, err := typ.AncestorAt(depth)
			if err != nil {
				return nil, err
			}
			stack = append(stack, entry{typ: t})
		}
		stack[len(stack)-1].mask |= mask
	}
	for len(stack) > 0 {
		pop()
	}

	// Result generation for the surviving candidates (Algorithm 3's
	// step 2 reused in spirit). Budget-checked per candidate like SLE's
	// step 2: a degradable stop keeps the results already computed.
	for _, it := range sorted.Items() {
		if !in.Budget.Ok() {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			break
		}
		sub := make([]*index.List, len(it.RQ.Keywords))
		ok := true
		for i, kw := range it.RQ.Keywords {
			l := byTerm[kw]
			if l == nil || l.Len() == 0 {
				ok = false
				break
			}
			sub[i] = l
		}
		if !ok {
			continue
		}
		ids, err := slca.ComputeCtx(in.Budget.Context(), in.SLCA, sub)
		if err != nil {
			if berr := in.Budget.Err(); berr != nil {
				return nil, berr
			}
			in.Budget.Ok() // trip the budget so the outcome is degraded
			break
		}
		out.SLCACalls++
		res := meaningfulMatches(ids, sub[0], in.Judge)
		if len(res) == 0 {
			continue
		}
		it.Results = res
		out.Candidates = append(out.Candidates, it)
	}
	out.markDegraded(in.Budget)
	return out, nil
}
