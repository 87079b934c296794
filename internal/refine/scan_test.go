package refine

import (
	"context"
	"errors"
	"testing"

	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/kvstore"
	"xrefine/internal/lexicon"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/slca"
)

// TestOneRangeReplayMatchesSequential pins why the sequential walk may
// stay its own loop next to record-and-replay: one recording range over
// the whole document, replayed through MergeScans, yields exactly the
// candidates and every counter of partitionTopKSeq. With a single walker
// the shared bound never prunes below the walker's own sorted list, so
// the recording computes precisely the SLCAs the sequential walk does and
// the replay never recomputes one.
func TestOneRangeReplayMatchesSequential(t *testing.T) {
	doc, err := datagen.DBLPDocument(datagen.DBLPConfig{Authors: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	cases, err := datagen.Workload(doc, datagen.WorkloadConfig{Seed: 77, Queries: 40})
	if err != nil {
		t.Fatal(err)
	}
	gen := rules.Generator{Lexicon: lexicon.Builtin()}
	inputs := []Input{largeInput(t)}
	for _, cs := range cases {
		rs, err := gen.Generate(ix, cs.Corrupted)
		if err != nil {
			t.Fatal(err)
		}
		judge := searchfor.NewJudge(searchfor.Infer(ix, cs.Corrupted, nil))
		inputs = append(inputs, Input{Index: ix, Query: cs.Corrupted, Rules: rs, Judge: judge, SLCA: slca.AlgoScanEager})
	}
	compared, pruned := 0, 0
	for _, in := range inputs {
		for _, k := range []int{1, 3, 10} {
			ks := in.scanKeywords()
			if len(ks) == 0 {
				continue
			}
			lists, err := scanLists(in, ks)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := partitionTopKSeq(in, k, ks, lists)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := walkRange(in, k, ks, lists, nil, nil, NewSortedList(2*k), NewPruneBound())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := MergeScans(in, k, []*Scan{scan})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := outcomeSig(rep), outcomeSig(seq); got != want {
				t.Fatalf("query %v k=%d: replay candidates diverged\nreplay: %s\nseq:    %s", in.Query, k, got, want)
			}
			type counters struct {
				Partitions, SLCACalls, RQGenerated, RQPruned int
				SLCAPostings                                 int64
			}
			got := counters{rep.Partitions, rep.SLCACalls, rep.RQGenerated, rep.RQPruned, rep.SLCAPostings}
			want := counters{seq.Partitions, seq.SLCACalls, seq.RQGenerated, seq.RQPruned, seq.SLCAPostings}
			if got != want {
				t.Fatalf("query %v k=%d: replay counters %+v, sequential %+v", in.Query, k, got, want)
			}
			compared++
			if len(seq.Candidates) > 0 && seq.RQPruned > 0 {
				pruned++
			}
		}
	}
	// Most comparisons must exercise the bound: a prune-free workload
	// would leave the record's skip branch untested.
	if compared < 100 || pruned < compared/3 {
		t.Fatalf("%d comparisons, %d with pruning; the workload lost its teeth", compared, pruned)
	}
}

// TestStackStrategiesSkipLoadsWhenCanceled: the stack strategies load
// their lists through scanLists like every other algorithm, so a query
// whose context is already canceled returns context.Canceled without
// paging a single list in from the store.
func TestStackStrategiesSkipLoadsWhenCanceled(t *testing.T) {
	f := newFixture(t, fig1, []string{"online", "keyword"})
	s := kvstore.NewMem()
	defer s.Close()
	if err := f.ix.Save(s); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	strategies := map[string]func(Input) error{
		"stack": func(in Input) error {
			_, err := Stack(in)
			return err
		},
		"stack-topk": func(in Input) error {
			_, err := StackTopK(in, 3)
			return err
		},
	}
	for name, run := range strategies {
		t.Run(name, func(t *testing.T) {
			lazy, err := index.Load(s)
			if err != nil {
				t.Fatal(err)
			}
			in := f.input(t, []string{"online", "keyword", "mining"}, nil)
			in.Index = lazy
			in.Budget = NewBudget(ctx, 0)
			before := lazy.OpStats().ListsLoaded
			if err := run(in); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if after := lazy.OpStats().ListsLoaded; after != before {
				t.Fatalf("canceled query loaded %d lists", after-before)
			}
		})
	}
}
