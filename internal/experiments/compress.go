package experiments

import (
	"fmt"
	"time"

	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/refine"
)

// CompressRow is one posting-storage representation: the resident
// footprint of every loaded list in that form and, for the shipping
// block-compressed form (mode "encoded"), the batch Top-K latency the
// engine pays for it. Mode "legacy" is the pre-codec materialized
// []Posting backbone, priced by the List.LegacyBytes model and not timed.
type CompressRow struct {
	Mode            string        `json:"mode"`
	ResidentBytes   int           `json:"resident_bytes"`
	BytesPerPosting float64       `json:"bytes_per_posting"`
	Avg             time.Duration `json:"avg_ns,omitempty"`
	AvgMS           float64       `json:"avg_ms,omitempty"`
}

// CompressReport aggregates the succinct-posting-list experiment: corpus
// shape, the compression ratio of encoded vs materialized storage, and
// the raw block-decode rate measured by full cursor sweeps.
type CompressReport struct {
	Terms              int           `json:"terms"`
	Postings           int           `json:"postings"`
	Blocks             int           `json:"blocks"`
	DecodeNsPerPosting float64       `json:"decode_ns_per_posting"`
	Ratio              float64       `json:"compression_ratio"` // legacy / encoded
	Rows               []CompressRow `json:"rows"`
}

// CompressCompare measures what the block codec buys and what it costs.
// It forces every vocabulary list resident, totals the encoded footprint
// against the modeled legacy footprint (List.LegacyBytes: 32 B of Posting
// header plus a size-class-rounded ID allocation per posting), times raw
// sequential decode with full cursor sweeps, and times the corruption
// batch through refine.PartitionTopK against the encoded lists.
func CompressCompare(c *Corpus, batch []datagen.Case, k, reps int) (*CompressReport, error) {
	terms := c.Index.Vocabulary()
	lists := make([]*index.List, 0, len(terms))
	rep := &CompressReport{Terms: len(terms)}
	var encBytes, legacyBytes int
	for _, t := range terms {
		l, err := c.Index.List(t)
		if err != nil {
			return nil, fmt.Errorf("compress: load %q: %w", t, err)
		}
		lists = append(lists, l)
		rep.Postings += l.Len()
		rep.Blocks += l.BlockCount()
		encBytes += l.MemoryBytes()
		legacyBytes += l.LegacyBytes()
	}
	if rep.Postings == 0 {
		return nil, fmt.Errorf("compress: empty corpus")
	}
	if encBytes > 0 {
		rep.Ratio = float64(legacyBytes) / float64(encBytes)
	}

	// Raw decode rate: sequential cursor sweeps touch every posting of
	// every list, so each rep decodes each block exactly once into pooled
	// scratch.
	sweep, err := timeIt(reps, func() error {
		for _, l := range lists {
			cur := l.NewCursor()
			for ; cur.Valid(); cur.Next() {
				_ = cur.Posting()
			}
			cur.Close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.DecodeNsPerPosting = float64(sweep.Nanoseconds()) / float64(rep.Postings)

	// End-to-end: the prepared batch, bypassing the response cache
	// (mirrors ParallelCompare).
	ins := make([]refine.Input, 0, len(batch))
	for _, cs := range batch {
		in, _, err := c.Engine.Prepare(cs.Corrupted)
		if err != nil {
			return nil, fmt.Errorf("compress prepare %v: %w", cs.Corrupted, err)
		}
		in.Parallelism = 1
		ins = append(ins, in)
	}
	encAvg, err := timeIt(reps, func() error {
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
	rep.Rows = []CompressRow{{
		Mode:            "encoded",
		ResidentBytes:   encBytes,
		BytesPerPosting: float64(encBytes) / float64(rep.Postings),
		Avg:             encAvg,
		AvgMS:           msFloat(encAvg),
	}, {
		Mode:            "legacy",
		ResidentBytes:   legacyBytes,
		BytesPerPosting: float64(legacyBytes) / float64(rep.Postings),
	}}
	return rep, nil
}
