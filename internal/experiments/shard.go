package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/kvstore"
	"xrefine/internal/shard"
	"xrefine/internal/storage"
)

// ShardRow is one line of the monolith-vs-sharded comparison: batch
// average Top-K query time at a shard count with full fan-out, its
// speedup over the monolithic engine, and whether every response was
// identical to the monolithic one (the byte-identity guarantee of the
// scatter-gather merge).
type ShardRow struct {
	Shards    int           `json:"shards"`
	Avg       time.Duration `json:"avg_ns"`
	AvgMS     float64       `json:"avg_ms"`
	Speedup   float64       `json:"speedup"`
	Identical bool          `json:"identical"`
}

// ShardCompare times a corruption batch against in-memory shard routers
// at each shard count, fanning out across all shards per query, and
// against a monolithic engine over the unsplit corpus. Every sharded
// response is checked against the monolithic signature — fan-out scaling
// is only worth reporting if the answers stay exact.
func ShardCompare(c *Corpus, batch []datagen.Case, shardCounts []int, k, reps int) ([]ShardRow, error) {
	mono := core.NewFromDocument(c.Doc, &core.Config{DisableMetrics: true})
	want := make([]string, len(batch))
	for i, cs := range batch {
		resp, err := mono.QueryTerms(cs.Corrupted, core.StrategyPartition, k)
		if err != nil {
			return nil, fmt.Errorf("shard compare monolith %v: %w", cs.Corrupted, err)
		}
		want[i] = shardSig(resp)
	}
	base, err := timeIt(reps, func() error {
		for _, cs := range batch {
			if _, err := mono.QueryTerms(cs.Corrupted, core.StrategyPartition, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := []ShardRow{{Shards: 1, Avg: base, AvgMS: msFloat(base), Speedup: 1, Identical: true}}
	ctx := context.Background()
	for _, n := range shardCounts {
		if n <= 1 {
			continue
		}
		r, cleanup, err := memRouter(c, n)
		if err != nil {
			return nil, err
		}
		row := ShardRow{Shards: n, Identical: true}
		for i, cs := range batch {
			resp, err := r.QueryTermsCtx(ctx, cs.Corrupted, core.StrategyPartition, k, 0)
			if err != nil {
				cleanup()
				return nil, err
			}
			if shardSig(resp) != want[i] {
				row.Identical = false
			}
		}
		row.Avg, err = timeIt(reps, func() error {
			for _, cs := range batch {
				if _, err := r.QueryTermsCtx(ctx, cs.Corrupted, core.StrategyPartition, k, 0); err != nil {
					return err
				}
			}
			return nil
		})
		cleanup()
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

// memRouter splits the corpus into n in-memory shard stores and opens a
// router over them — the serving topology without the disk. The returned
// cleanup closes the router and its stores.
func memRouter(c *Corpus, n int) (*shard.Router, func(), error) {
	subs, err := shard.SplitDocument(c.Doc, n, shard.ModeRange)
	if err != nil {
		return nil, nil, err
	}
	stores := make([]storage.Backend, n)
	closeStores := func() {
		for _, s := range stores {
			if s != nil {
				s.Close()
			}
		}
	}
	for i, sub := range subs {
		stores[i] = kvstore.NewMem()
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		if err := eng.SaveIndexWithDocument(stores[i]); err != nil {
			closeStores()
			return nil, nil, err
		}
	}
	r, err := shard.NewFromStores(stores, nil, &shard.Options{Config: &core.Config{DisableMetrics: true}})
	if err != nil {
		closeStores()
		return nil, nil, err
	}
	return r, func() { r.Close(); closeStores() }, nil
}

// TailRow is one line of the hedged-read tail-latency experiment:
// per-query latency percentiles over a replicated router with one slow
// replica per shard, hedging off vs on.
type TailRow struct {
	Mode      string  `json:"mode"`
	Samples   int     `json:"samples"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	AvgMS     float64 `json:"avg_ms"`
	Hedges    uint64  `json:"hedges"`
	Identical bool    `json:"identical"`
}

// ShardTailLatency measures what read hedging buys: every shard gets two
// replicas, replica 0 slowed by a fixed per-page-read latency, and the
// same query batch runs with hedging off and then on. Before every query
// the replica health state is reset and the slow replica's page cache
// dropped, so each query faces a cold selector that picks the slow
// replica first — the queries hedging exists to protect (a warmed EWMA
// routes around a known-slow replica on its own). Responses are checked
// against the monolithic signature in both modes: a hedge winner must
// serve the same bytes as the loser it beat.
func ShardTailLatency(c *Corpus, batch []datagen.Case, shards, k, rounds int, slow, hedgeAfter time.Duration) ([]TailRow, error) {
	mono := core.NewFromDocument(c.Doc, &core.Config{DisableMetrics: true})
	want := make([]string, len(batch))
	for i, cs := range batch {
		resp, err := mono.QueryTerms(cs.Corrupted, core.StrategyPartition, k)
		if err != nil {
			return nil, err
		}
		want[i] = shardSig(resp)
	}
	ctx := context.Background()
	var rows []TailRow
	for _, mode := range []struct {
		name  string
		hedge time.Duration
	}{{"hedging off", 0}, {"hedging on", hedgeAfter}} {
		r, slowStores, cleanup, err := memReplicatedRouter(c, shards, slow, mode.hedge)
		if err != nil {
			return nil, err
		}
		row := TailRow{Mode: mode.name, Identical: true}
		var samples []time.Duration
		for rep := 0; rep < rounds; rep++ {
			for i, cs := range batch {
				r.ResetReplicaHealth()
				for _, s := range slowStores {
					s.DropCaches()
				}
				start := time.Now()
				resp, err := r.QueryTermsCtx(ctx, cs.Corrupted, core.StrategyPartition, k, 0)
				if err != nil {
					cleanup()
					return nil, err
				}
				samples = append(samples, time.Since(start))
				if shardSig(resp) != want[i] {
					row.Identical = false
				}
			}
		}
		row.Samples = len(samples)
		row.P50MS = msFloat(percentile(samples, 50))
		row.P99MS = msFloat(percentile(samples, 99))
		var sum time.Duration
		for _, d := range samples {
			sum += d
		}
		row.AvgMS = msFloat(sum / time.Duration(len(samples)))
		// The hedge counter lives on the router's registry; re-registering
		// the same family returns the live counter.
		row.Hedges = r.Metrics().Counter("xrefine_replica_hedges_total", "").Value()
		cleanup()
		rows = append(rows, row)
	}
	return rows, nil
}

// memReplicatedRouter builds a 2-replica in-memory router with replica 0
// of every shard behind a fixed per-page-read latency. It returns the
// slow stores so the caller can drop their caches between queries.
func memReplicatedRouter(c *Corpus, n int, slow, hedgeAfter time.Duration) (*shard.Router, []storage.Backend, func(), error) {
	subs, err := shard.SplitDocument(c.Doc, n, shard.ModeRange)
	if err != nil {
		return nil, nil, nil, err
	}
	stores := make([][]storage.Backend, n)
	var slowStores []storage.Backend
	faults := make([]*storage.Faults, n)
	closeStores := func() {
		for _, grp := range stores {
			for _, s := range grp {
				s.Close()
			}
		}
	}
	for i, sub := range subs {
		eng := core.NewFromDocument(sub, &core.Config{DisableMetrics: true})
		faults[i] = &storage.Faults{}
		for j := 0; j < 2; j++ {
			var f *storage.Faults
			if j == 0 {
				f = faults[i]
			}
			s := kvstore.NewMemWithFaults(f)
			if err := eng.SaveIndexWithDocument(s); err != nil {
				closeStores()
				return nil, nil, nil, err
			}
			stores[i] = append(stores[i], s)
			if j == 0 {
				slowStores = append(slowStores, s)
			}
		}
	}
	r, err := shard.NewReplicated(stores, nil, &shard.Options{HedgeAfter: hedgeAfter})
	if err != nil {
		closeStores()
		return nil, nil, nil, err
	}
	// Armed after construction so only query-time reads pay the latency.
	for _, f := range faults {
		f.ReadLatency = slow
	}
	return r, slowStores, func() { r.Close(); closeStores() }, nil
}

// percentile returns the p-th percentile (nearest-rank) of the samples.
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// shardSig flattens a response to the fields the server serializes —
// equal signatures mean byte-identical /search bodies.
func shardSig(resp *core.Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%v|%s|", resp.NeedRefine, resp.Degraded, resp.DegradedReason)
	for _, q := range resp.Queries {
		fmt.Fprintf(&b, "%s|%v|%v|", strings.Join(q.Keywords, ","), q.DSim, q.Score)
		for _, m := range q.Results {
			fmt.Fprintf(&b, "%s:%s;", m.ID, m.Type.Path())
		}
	}
	return b.String()
}
