package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xrefine"
	"xrefine/internal/core"
	"xrefine/internal/index"
	"xrefine/internal/lexicon"
	"xrefine/internal/mutate"
	"xrefine/internal/obs"
	"xrefine/internal/refine"
	"xrefine/internal/rules"
	"xrefine/internal/searchfor"
	"xrefine/internal/server"
	"xrefine/internal/shard"
	"xrefine/internal/tokenize"
	"xrefine/internal/wire"
)

// The traced pass is a separate, in-process walk over the first inputs of
// a workload's request stream. It calls each layer's public functions in
// pipeline order with parallelism 1, so every count repeats exactly, and
// records its own spans around those calls. It never runs alongside the
// end-to-end measurement, and it adds no tracing inside the program: the
// only engine spans it reads are the ones obs.NewTrace already collects.
const (
	tracedRefineInputs = 60
	tracedLookupInputs = 150
	// tracedBatches update batches drive the mutate and storage layers;
	// on update-mix they interleave with the reads, one batch before
	// every readsPerBatch-th read, as the live workload does.
	tracedBatches = 12
	readsPerBatch = 4
)

// tspan is one recorded span. Spans of the engine's own trace carry only
// durations, so their starts are laid out back to back from their
// parent's start (the pass runs with parallelism 1, where engine stages
// are sequential).
type tspan struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Req    int              `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	kids   int64            // summed child durations, for self time
}

// recorder keeps the pass's spans in memory until the end of the run.
type recorder struct {
	t0    time.Time
	spans []tspan
}

// begin opens a span and returns its id.
func (r *recorder) begin(req, parent int, name string) int {
	r.spans = append(r.spans, tspan{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	if s.Parent > 0 {
		r.spans[s.Parent-1].kids += s.End - s.Start
	}
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(req, parent int, name string, fn func()) time.Duration {
	id := r.begin(req, parent, name)
	fn()
	return r.end(id)
}

// engineSpans records an engine span tree under parent.
func (r *recorder) engineSpans(req, parent int, start int64, d *obs.SpanData) {
	s := tspan{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: "engine:" + d.Name,
		Start: start, End: start + d.DurationNS}
	for k, v := range d.Attrs {
		if n, ok := v.(int64); ok {
			if s.Attrs == nil {
				s.Attrs = map[string]int64{}
			}
			s.Attrs[k] = n
		}
	}
	r.spans = append(r.spans, s)
	id := s.ID
	if parent > 0 {
		r.spans[parent-1].kids += d.DurationNS
	}
	at := start
	for _, c := range d.Children {
		r.engineSpans(req, id, at, c)
		at += c.DurationNS
	}
}

// selfTimes sums self time (duration minus children) by span name.
func (r *recorder) selfTimes() map[string]int64 {
	out := map[string]int64{}
	for _, s := range r.spans {
		out[s.Name] += s.End - s.Start - s.kids
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerSums accumulates the per-layer figures over the traced inputs.
type layerSums struct {
	n                                        int
	tokenize, rules, searchfor, index        time.Duration
	rulesCount, candidates, postings, loaded int64
	refine                                   time.Duration
	partitions, generated, pruned, slcaCalls int64
	dp                                       time.Duration
	dpCalls, dpResults, dpRepeats, dpAllocs  int64
	replayMismatch                           int
	slca                                     time.Duration
	slcaPostings                             int64
	rank, core, coreTraced                   time.Duration
	coreAllocs                               int64
	encJSON, encWire                         time.Duration
	encBytes                                 int64
	rtHTTP, rtWire                           time.Duration
	healthz, metrics                         time.Duration
	shardTotal, shardScan, shardMerge        time.Duration
	batches, ops                             int64
	stage, apply                             time.Duration
	storeBytes, walBytes                     int64
}

// runTraced performs the traced pass for one workload and reports the
// per-layer metrics.
func runTraced(o options, wl *workload, e *env, c *corpus, rep *report) error {
	orc := newOracle(c.ref)
	var pool []request
	var stream []int32
	n := tracedRefineInputs
	if wl.pool == "lookup" {
		p, err := lookupPool(c, orc)
		if err != nil {
			return err
		}
		pool, n = p, tracedLookupInputs
		stream = cycleSequence(o.seed, len(pool), n)
	} else {
		p, idx, _, err := refineStream(c, orc, o.seed, n)
		if err != nil {
			return err
		}
		pool, stream = p, idx
	}
	batches, err := updateBatches(c, o.seed, tracedBatches)
	if err != nil {
		return err
	}

	// The engine under trace: a live engine over a store copy (it also
	// takes the update batches), read-only opened for the read
	// workloads, parallelism 1 either way.
	cfg := &core.Config{Parallelism: 1}
	live, liveStore, err := openLive(e, c, "traced-live", cfg)
	if err != nil {
		return err
	}
	defer liveStore.Close()
	defer live.Close()
	eng := live
	if !wl.live {
		st, err := openCopy(c, e.path("traced.kv"))
		if err != nil {
			return err
		}
		defer st.Close()
		if eng, err = core.Open(st, cfg); err != nil {
			return err
		}
	}

	// The shard layer: a router over the workload's 2x2 shard directory.
	shardDir, err := buildShards(e, c)
	if err != nil {
		return err
	}
	routerDir := e.path("traced-shards")
	if err := copyDir(shardDir, routerDir); err != nil {
		return err
	}
	router, err := shard.Open(routerDir, &shard.Options{Config: &core.Config{Parallelism: 1}})
	if err != nil {
		return err
	}
	defer router.Close()

	// The server the transport round trips go through, on the same data
	// as the engine under trace.
	dep, err := deploy(e, c, wl, shardDir, 0)
	if err != nil {
		return err
	}
	srv, err := startServer(e, "xserve-traced.log", dep.args...)
	if err != nil {
		return err
	}
	defer srv.stop()
	first, _, err := orc.body(pool[0])
	if err != nil {
		return err
	}
	if _, err := srv.awaitAnswer(pool[0], first, 60*time.Second); err != nil {
		return err
	}
	if err := srv.awaitWire(10 * time.Second); err != nil {
		return err
	}
	wc, err := wire.Dial(srv.wireAddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer wc.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	probes := server.NewFromBackend(eng, server.Config{})

	rec := &recorder{t0: time.Now()}
	var s layerSums
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	gen := rules.Generator{Lexicon: lexicon.Builtin()}
	ctx := context.Background()
	nextBatch := 0
	var httpBuf bytes.Buffer
	applyBatch := func(req int) error {
		b := batches[nextBatch]
		nextBatch++
		if err := tracedApply(rec, req, live, liveStore, b, &s); err != nil {
			return err
		}
		if wl.live {
			// Keep the server on the same epoch as the engine under
			// trace, so round trips still answer byte-identically.
			body, _ := json.Marshal(b) // generated batches hold only insert and delete ops, which always marshal
			if _, err := clientDo(hc, "http://"+srv.httpAddr+"/update", body, &httpBuf); err != nil {
				return fmt.Errorf("traced update: %w", err)
			}
		}
		return nil
	}

	var jsonBuf bytes.Buffer
	var wireBuf []byte
	for reqN, pi := range stream {
		if wl.live && reqN > 0 && reqN%readsPerBatch == 0 && nextBatch < len(batches) {
			if err := applyBatch(reqN); err != nil {
				return err
			}
		}
		req := pool[pi]
		top := rec.begin(reqN, 0, "request")
		s.n++

		var terms []string
		s.tokenize += rec.timed(reqN, top, "tokenize", func() { terms = tokenize.Query(req.q) })
		if strings.Join(terms, " ") != strings.Join(req.terms, " ") {
			fail("tokenize %q gave %v", req.q, terms)
		}
		ix := eng.Index()
		var rs *rules.Set
		s.rules += rec.timed(reqN, top, "rules", func() { rs, err = gen.Generate(ix, terms) })
		if err != nil {
			return err
		}
		s.rulesCount += int64(len(rs.Rules()))
		var cands []searchfor.Candidate
		s.searchfor += rec.timed(reqN, top, "searchfor", func() {
			inferTerms := append(append([]string(nil), terms...), rs.NewKeywords(terms)...)
			cands = searchfor.Infer(ix, inferTerms, &searchfor.Options{})
		})
		s.candidates += int64(len(cands))

		in := refine.Input{Index: ix, Query: terms, Rules: rs, Judge: searchfor.NewJudge(cands), Parallelism: 1}
		ks := in.ScanKeywords()
		lists := make([]*index.List, len(ks))
		before := ix.OpStats()
		s.index += rec.timed(reqN, top, "index", func() {
			for j, kw := range ks {
				var l *index.List
				if l, _, err = ix.ListCtxInfo(ctx, kw); err != nil {
					return
				}
				lists[j] = l
				s.postings += int64(l.Len())
			}
		})
		if err != nil {
			return err
		}
		s.loaded += int64(ix.OpStats().ListsLoaded - before.ListsLoaded)

		var out *refine.TopKOutcome
		s.refine += rec.timed(reqN, top, "refine", func() { out, err = refine.PartitionTopK(in, req.k) })
		if err != nil {
			return err
		}
		s.partitions += int64(out.Partitions)
		s.generated += int64(out.RQGenerated)
		s.pruned += int64(out.RQPruned)
		s.slcaCalls += int64(out.SLCACalls)
		s.slcaPostings += out.SLCAPostings

		calls, results := replayDP(rec, reqN, top, ix, terms, ks, lists, rs, req.k, &s)
		if calls != out.Partitions || results != out.RQGenerated {
			s.replayMismatch++
			fail("DP replay of %q: %d calls / %d results, walk reported %d partitions / %d generated",
				req.q, calls, results, out.Partitions, out.RQGenerated)
		}

		var resp *core.Response
		untraced := func() error {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			d := rec.timed(reqN, top, "core", func() {
				resp, err = eng.QueryTermsCtx(ctx, terms, core.StrategyPartition, req.k, 1)
			})
			runtime.ReadMemStats(&ms1)
			s.core += d
			s.coreAllocs += int64(ms1.Mallocs - ms0.Mallocs)
			return err
		}
		traced := func() error {
			tid := rec.begin(reqN, top, "core.traced")
			tctx, root := obs.NewTrace(ctx, "query")
			_, err := eng.QueryTermsCtx(tctx, terms, core.StrategyPartition, req.k, 1)
			root.End()
			s.coreTraced += rec.end(tid)
			if err != nil {
				return err
			}
			data := root.Data()
			root.Release()
			rec.engineSpans(reqN, tid, rec.spans[tid-1].Start, data)
			for _, c := range data.Children {
				switch {
				case strings.HasPrefix(c.Name, "refine:"):
					if v, ok := c.Attrs["slca_ns"].(int64); ok {
						s.slca += time.Duration(v)
					}
				case c.Name == "rank":
					s.rank += time.Duration(c.DurationNS)
				}
			}
			return nil
		}
		if err := alternate(reqN, untraced, traced); err != nil {
			return err
		}

		jsonBuf.Reset()
		s.encJSON += rec.timed(reqN, top, "encode.json", func() {
			err = server.EncodeBody(&jsonBuf, server.SearchBody(eng, resp, nil))
		})
		if err != nil {
			return err
		}
		s.encBytes += int64(jsonBuf.Len())
		s.encWire += rec.timed(reqN, top, "encode.wire", func() { wireBuf = wire.AppendSearchBody(wireBuf[:0], resp, eng) })
		if !bytes.Equal(wireBuf, jsonBuf.Bytes()) {
			fail("wire encoding of %q differs from the JSON body", req.q)
		}

		var got []byte
		s.rtHTTP += rec.timed(reqN, top, "roundtrip.http", func() { got, err = clientDo(hc, srv.searchURL(req, 1), nil, &httpBuf) })
		if err != nil || !bytes.Equal(got, jsonBuf.Bytes()) {
			fail("HTTP round trip of %q: err %v, %d bytes, want %d", req.q, err, len(got), jsonBuf.Len())
		}
		var wresp *wire.Response
		s.rtWire += rec.timed(reqN, top, "roundtrip.wire", func() {
			wresp, err = wc.Query(0, byte(core.StrategyPartition), req.k, 1, req.terms)
		})
		if err != nil || wresp.Status != wire.StatusOK || !bytes.Equal(wresp.Payload, jsonBuf.Bytes()) {
			fail("wire round trip of %q differs (err %v)", req.q, err)
		}

		s.healthz += rec.timed(reqN, top, "server.healthz", func() { serveLocal(probes, "/healthz") })
		s.metrics += rec.timed(reqN, top, "server.metrics", func() { serveLocal(probes, "/metrics") })

		// The router is timed untraced (shard.ns), as the server runs it,
		// and run once more under obs.NewTrace for its shard-i and merge
		// spans.
		var sresp *core.Response
		shardUntraced := func() error {
			s.shardTotal += rec.timed(reqN, top, "shard", func() {
				sresp, err = router.QueryTermsCtx(ctx, terms, core.StrategyPartition, req.k, 1)
			})
			return err
		}
		shardTraced := func() error {
			sid := rec.begin(reqN, top, "shard.traced")
			sctx, sroot := obs.NewTrace(ctx, "query")
			_, err := router.QueryTermsCtx(sctx, terms, core.StrategyPartition, req.k, 1)
			sroot.End()
			rec.end(sid)
			if err != nil {
				return err
			}
			sdata := sroot.Data()
			sroot.Release()
			rec.engineSpans(reqN, sid, rec.spans[sid-1].Start, sdata)
			walkSpans(sdata, func(d *obs.SpanData) {
				switch {
				case strings.HasPrefix(d.Name, "shard-"):
					s.shardScan += time.Duration(d.DurationNS)
				case d.Name == "merge":
					s.shardMerge += time.Duration(d.DurationNS)
				}
			})
			return nil
		}
		if err := alternate(reqN, shardUntraced, shardTraced); err != nil {
			return err
		}
		var sbody bytes.Buffer
		if err := server.EncodeBody(&sbody, server.SearchBody(router, sresp, nil)); err != nil {
			return err
		}
		want, _, err := orc.body(req)
		if err != nil {
			return err
		}
		if !bytes.Equal(sbody.Bytes(), want) {
			fail("sharded answer to %q differs from the monolith", req.q)
		}
		rec.end(top)
	}
	for nextBatch < len(batches) {
		if err := applyBatch(len(stream)); err != nil {
			return err
		}
	}
	return reportLayers(o, wl, e, rec, &s, failures, rep)
}

// replayDP reruns the getOptimalRQ dynamic program (refine.TopRQs) on
// every partition's available keyword set, rebuilt from the partition
// roots and the lists' subtree probes, and times only the DP calls. It
// returns the call and result counts, which must equal the walk's
// partitions and generated candidates.
func replayDP(rec *recorder, req, parent int, ix *index.Index, terms, ks []string, lists []*index.List,
	rs *rules.Set, k int, s *layerSums) (calls, results int) {
	var avails []map[string]bool
	seen := map[string]bool{}
	for _, root := range ix.PartitionRoots() {
		avail := map[string]bool{}
		var key []string
		for j, l := range lists {
			if l.HasInSubtree(root) {
				avail[ks[j]] = true
				key = append(key, ks[j])
			}
		}
		if len(avail) == 0 {
			continue
		}
		sk := strings.Join(key, "\x00")
		if seen[sk] {
			s.dpRepeats++
		}
		seen[sk] = true
		avails = append(avails, avail)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s.dp += rec.timed(req, parent, "dp", func() {
		for _, avail := range avails {
			results += len(refine.TopRQs(terms, avail, rs, 2*k))
		}
	})
	runtime.ReadMemStats(&ms1)
	calls = len(avails)
	s.dpCalls += int64(calls)
	s.dpResults += int64(results)
	s.dpAllocs += int64(ms1.Mallocs - ms0.Mallocs)
	return calls, results
}

// tracedApply runs one update batch through the mutate and storage
// layers: mutate.Stage alone, then the engine's full Apply (stage, WAL
// append, store commit, epoch swap).
func tracedApply(rec *recorder, req int, eng *core.Engine, st xrefine.Store, b *mutate.Batch, s *layerSums) error {
	top := rec.begin(req, 0, "update")
	defer rec.end(top)
	before := st.StorageStats().DiskBytes
	var err error
	s.stage += rec.timed(req, top, "mutate.stage", func() { _, err = mutate.Stage(eng.Document(), eng.Index(), b) })
	if err != nil {
		return err
	}
	var res *core.ApplyResult
	s.apply += rec.timed(req, top, "core.apply", func() { res, err = eng.Apply(b) })
	if err != nil {
		return err
	}
	s.batches++
	s.ops += int64(len(b.Ops))
	s.storeBytes += st.StorageStats().DiskBytes - before
	s.walBytes += res.WALBytes
	return nil
}

// reportLayers turns the sums into the per-layer metrics, prints the
// self-time table and writes the spans out.
func reportLayers(o options, wl *workload, e *env, rec *recorder, s *layerSums, failures []string, rep *report) error {
	n := float64(s.n)
	ns := func(d time.Duration) float64 { return float64(d) / n }
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("tokenize.ns", ns(s.tokenize), "ns")
	rep.set("rules.ns", ns(s.rules), "ns")
	rep.set("rules.count", per(s.rulesCount), "count")
	rep.set("searchfor.ns", ns(s.searchfor), "ns")
	rep.set("searchfor.candidates", per(s.candidates), "count")
	rep.set("index.ns", ns(s.index), "ns")
	rep.set("index.postings", per(s.postings), "count")
	rep.set("index.lists_loaded", per(s.loaded), "count")
	rep.set("refine.ns", ns(s.refine), "ns")
	rep.set("refine.partitions", per(s.partitions), "count")
	rep.set("refine.rq_generated", per(s.generated), "count")
	rep.set("refine.slca_calls", per(s.slcaCalls), "count")
	rep.set("refine.prune_ratio", ratio(s.pruned, s.generated), "ratio")
	rep.set("dp.ns", ns(s.dp), "ns")
	rep.set("dp.calls", per(s.dpCalls), "count")
	rep.set("dp.allocs", ratio(s.dpAllocs, s.dpCalls), "allocs/call")
	rep.set("dp.repeat_ratio", ratio(s.dpRepeats, s.dpCalls), "ratio")
	rep.set("slca.ns", ns(s.slca), "ns")
	rep.set("slca.postings", per(s.slcaPostings), "count")
	rep.set("rank.ns", ns(s.rank), "ns")
	rep.set("core.ns", ns(s.core), "ns")
	rep.set("core.allocs", per(s.coreAllocs), "allocs/call")
	rep.set("encode.json_ns", ns(s.encJSON), "ns")
	rep.set("encode.wire_ns", ns(s.encWire), "ns")
	rep.set("encode.bytes", per(s.encBytes), "B")
	// Transport is what a round trip costs beyond the engine and the
	// encoder of its surface; the sharded server's engine is the router.
	engineNS := ns(s.core)
	if wl.shards {
		engineNS = ns(s.shardTotal)
	}
	rep.set("transport.http_ns", ns(s.rtHTTP)-engineNS-ns(s.encJSON), "ns")
	rep.set("transport.wire_ns", ns(s.rtWire)-engineNS-ns(s.encWire), "ns")
	rep.set("server.healthz_ns", ns(s.healthz), "ns")
	rep.set("server.metrics_ns", ns(s.metrics), "ns")
	rep.set("shard.ns", ns(s.shardTotal), "ns")
	rep.set("shard.scan_ns", ns(s.shardScan), "ns")
	rep.set("shard.merge_ns", ns(s.shardMerge), "ns")
	b := float64(s.batches)
	rep.set("mutate.stage_ns", float64(s.stage)/b, "ns")
	rep.set("core.apply_ns", float64(s.apply)/b, "ns")
	rep.set("storage.commit_ns", float64(s.apply-s.stage)/b, "ns")
	rep.set("storage.bytes_per_op", float64(s.storeBytes)/float64(s.ops), "B/op")
	rep.set("wal.bytes_per_op", float64(s.walBytes)/float64(s.ops), "B/op")
	rep.set("trace.overhead_ns", ns(s.coreTraced-s.core), "ns")

	rep.note("traced inputs %d, update batches %d (%d ops), DP replay mismatches %d",
		s.n, s.batches, s.ops, s.replayMismatch)
	rep.note("tracing overhead: traced core %.0f ns vs untraced %.0f ns per request (%.2f%%)",
		ns(s.coreTraced), ns(s.core), 100*float64(s.coreTraced-s.core)/float64(s.core))
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		rep.note("self time %-28s %14.0f ns per traced request", k, float64(self[k])/n)
	}
	out := filepath.Join(e.traceOut, fmt.Sprintf("%s-s%d.spans.jsonl", o.workload, o.seed))
	if err := rec.write(out); err != nil {
		return err
	}
	rep.note("spans written to %s", out)
	rep.phase("traced-requests", s.n, len(failures))
	for _, f := range failures {
		rep.fail("%s", f)
	}
	return nil
}

// alternate runs a then b on even inputs and b then a on odd ones. The
// untraced and the traced call of one layer go through it, so whatever one
// call leaves behind for the other (garbage, warm caches) does not bias
// the tracing-overhead figure.
func alternate(req int, a, b func() error) error {
	if req%2 == 1 {
		a, b = b, a
	}
	if err := a(); err != nil {
		return err
	}
	return b()
}

// walkSpans visits every span of a tree.
func walkSpans(d *obs.SpanData, fn func(*obs.SpanData)) {
	fn(d)
	for _, c := range d.Children {
		walkSpans(c, fn)
	}
}

// serveLocal answers one GET through the in-process handler.
func serveLocal(h http.Handler, path string) {
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
}
