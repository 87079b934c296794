package refine

import (
	"math"

	"xrefine/internal/dewey"
	"xrefine/internal/index"
	"xrefine/internal/xmltree"
)

// StackOutcome is the result of the stack-based refinement (Algorithm 1).
type StackOutcome struct {
	// NeedRefine is false when Q itself has a meaningful SLCA
	// (Definition 3.4); Original then holds those results.
	NeedRefine bool
	// Original holds Q's meaningful SLCAs when NeedRefine is false.
	Original []Match
	// Found reports whether any refined query with a meaningful result
	// exists (only meaningful when NeedRefine).
	Found bool
	// Best is the minimum-dissimilarity refined query found.
	Best RQ
	// BestResults holds the meaningful SLCAs of Best.
	BestResults []Match
	// Degraded reports a budget-induced early stop: the walk covered only
	// a document prefix, so Best/Original reflect that prefix.
	Degraded bool
	// DegradedReason is one of the Degraded* constants when Degraded.
	DegradedReason string
}

// Stack runs Algorithm 1: a single stack-based merge over the inverted
// lists of KS (Q's keywords plus rule-generated ones) that simultaneously
// (a) detects whether Q has a meaningful SLCA and collects those results,
// and (b) if not, finds the refined query with minimum dissimilarity that
// has a meaningful SLCA, together with its results (Theorem 1).
func Stack(in Input) (*StackOutcome, error) {
	out := &StackOutcome{NeedRefine: true}
	ks := in.scanKeywords()
	if len(ks) == 0 {
		return out, nil
	}
	lists, err := scanLists(in, ks)
	if err != nil {
		return nil, err
	}
	bit := make(map[string]int, len(ks))
	for i, k := range ks {
		bit[k] = i
	}
	// Q is satisfiable only when every original keyword occurs in the
	// data at all.
	var qMask uint64
	qSatisfiable := true
	for _, k := range in.Query {
		if b, ok := bit[k]; ok {
			qMask |= 1 << b
		} else {
			qSatisfiable = false
		}
	}

	type entry struct {
		mask   uint64
		belowQ bool // a descendant already claimed a Q result
		typ    *xmltree.Type
	}
	var stack []entry
	var path dewey.ID
	min := math.Inf(1)

	// claimRQ processes a popped entry's witnessed keyword set through
	// getOptimalRQ and updates the running optimum (paper lines 13-19).
	claimRQ := func(e *entry) {
		avail := make(map[string]bool)
		for i, k := range ks {
			if e.mask&(1<<i) != 0 {
				avail[k] = true
			}
		}
		rq, ok := OptimalRQ(in.Query, avail, in.Rules)
		if !ok || rq.DSim > min {
			return
		}
		node := path.Clone()
		switch {
		case rq.DSim < min:
			min = rq.DSim
			out.Best = rq
			out.BestResults = []Match{{ID: node, Type: e.typ}}
			out.Found = true
		case rq.Key() == out.Best.Key():
			// Same optimum elsewhere: another SLCA, unless this node
			// is an ancestor of one already recorded (then it is not
			// smallest for this RQ).
			for _, m := range out.BestResults {
				if dewey.IsAncestorOrSelf(node, m.ID) {
					return
				}
			}
			out.BestResults = append(out.BestResults, Match{ID: node, Type: e.typ})
		default:
			return // equal dSim, different keywords: keep the first
		}
		// Witness bits deliberately stay up (the paper's lines 18-19:
		// keywords shared with other RQ candidates or Q "are kept as
		// true"): a cheaper refinement may only become expressible at an
		// ancestor where witnesses from several children combine. The
		// ancestor-of-recorded check above already prevents an ancestor
		// from re-claiming the same RQ with a non-smallest node.
	}

	pop := func() {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reportedQ := false
		if qSatisfiable && e.mask&qMask == qMask && !e.belowQ && in.Judge.Meaningful(e.typ) {
			// Q has a meaningful SLCA here: no refinement needed
			// (paper lines 10-12).
			out.NeedRefine = false
			out.Original = append(out.Original, Match{ID: path.Clone(), Type: e.typ})
			reportedQ = true
			e.mask = 0
		}
		if out.NeedRefine && e.mask != 0 && in.Judge.Meaningful(e.typ) {
			claimRQ(&e)
		}
		path = path[:len(path)-1]
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			top.mask |= e.mask
			top.belowQ = top.belowQ || e.belowQ || reportedQ
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
		// Charge the budget in batches of merge steps (each step consumes
		// at least one posting). A degradable stop finalizes the partial
		// stack below; a hard cancellation aborts.
		steps++
		if steps%budgetStride == 0 && !in.Budget.Charge(budgetStride) {
			if err := in.Budget.Err(); err != nil {
				return nil, err
			}
			out.Degraded = true
			out.DegradedReason = in.Budget.Reason()
			break
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
	if !out.NeedRefine {
		out.Found = false
		out.Best = RQ{}
		out.BestResults = nil
	}
	return out, nil
}

// mergeScan yields (dewey, keyword mask, node type) triples in document
// order across the keyword lists, reading each list through a pooled
// block cursor. The yielded ID is owned by the scan and valid only until
// the next call; close() must run when the merge ends to recycle the
// cursors' decode buffers.
type mergeScan struct {
	curs []*index.Cursor
	cur  dewey.ID // owned copy of the yielded minimum (reused per call)
}

func newMergeScan(lists []*index.List) *mergeScan {
	m := &mergeScan{curs: make([]*index.Cursor, len(lists))}
	for i, l := range lists {
		m.curs[i] = l.NewCursor()
	}
	return m
}

func (m *mergeScan) close() {
	for _, c := range m.curs {
		c.Close()
	}
}

func (m *mergeScan) next() (dewey.ID, uint64, *xmltree.Type, bool) {
	// The minimum is copied into m.cur before any cursor advances: the
	// heads alias per-cursor decode buffers that the mask loop's reads
	// below (and the next call) may recycle.
	var typ *xmltree.Type
	found := false
	for _, c := range m.curs {
		if !c.Valid() {
			continue
		}
		p := c.Posting()
		if !found || dewey.Compare(p.ID, m.cur) < 0 {
			m.cur = append(m.cur[:0], p.ID...)
			typ = p.Type
			found = true
		}
	}
	if !found {
		return nil, 0, nil, false
	}
	var mask uint64
	for i, c := range m.curs {
		if c.Valid() && dewey.Equal(c.ID(), m.cur) {
			mask |= 1 << i
			c.Next()
		}
	}
	return m.cur, mask, typ, true
}
