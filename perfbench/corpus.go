package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"xrefine"
	"xrefine/internal/core"
	"xrefine/internal/datagen"
	"xrefine/internal/index"
	"xrefine/internal/mutate"
	"xrefine/internal/server"
	"xrefine/internal/tokenize"
	"xrefine/internal/xmltree"
)

// The corpus and the two request pools are fixed by these constants, so
// every run and every seed serves the same data and the same distinct
// queries; the run seed decides the request sequence drawn from the pools
// and the update batches. That keeps the cost mix of a run independent of
// the seed while the order of requests still varies with it.
const (
	corpusAuthors  = 1000
	corpusSeed     = 1
	poolSeed       = 7
	refinePoolSize = 1000
	refineZipfS    = 1.1
	refineBlock    = 250
	refineK        = 3
	// Refine cases answering with more results than this are skipped
	// (see refineStream).
	refineMaxResults = 100
	lookupK          = 10
	// Lookup terms: frequent enough to answer with many snippets, not so
	// frequent that one response runs to megabytes.
	lookupMinPostings = 40
	lookupMaxPostings = 600
	// Shard layout served by refine-sharded.
	shardCount    = 2
	shardReplicas = 2
)

// env locates the binaries and the per-run scratch directory.
type env struct {
	bin      string // built xserve, xrefine and xgen
	dir      string // this run's directory, removed at the end
	traceOut string // where the traced pass writes its spans
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// tool runs one of the built command-line programs to completion.
func (e *env) tool(name string, args ...string) error {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, out.String())
	}
	return nil
}

// request is one /search request: the tokenized terms the wire protocol
// carries and the raw query string HTTP carries, which tokenizes to the
// same terms.
type request struct {
	terms []string
	q     string
	k     int
}

// corpus is the generated document, its btree store (written by
// xrefine index -with-doc) and the in-process reference engine over a
// private copy of that store.
type corpus struct {
	doc        *xmltree.Document
	xmlPath    string
	storePath  string
	storeBytes int64
	refStore   xrefine.Store
	ref        *core.Engine
}

func buildCorpus(e *env) (*corpus, error) {
	var xml strings.Builder
	if err := datagen.DBLP(&xml, datagen.DBLPConfig{Authors: corpusAuthors, Seed: corpusSeed}); err != nil {
		return nil, err
	}
	doc, err := xmltree.ParseString(xml.String(), nil)
	if err != nil {
		return nil, err
	}
	c := &corpus{doc: doc, xmlPath: e.path("corpus.xml"), storePath: e.path("base.kv")}
	if err := os.WriteFile(c.xmlPath, []byte(xml.String()), 0o644); err != nil {
		return nil, err
	}
	if err := e.tool("xrefine", "index", "-xml", c.xmlPath, "-index", c.storePath, "-with-doc", "-backend", "btree"); err != nil {
		return nil, err
	}
	st, err := os.Stat(c.storePath)
	if err != nil {
		return nil, err
	}
	c.storeBytes = st.Size()
	refPath := e.path("ref.kv")
	if err := copyFile(c.storePath, refPath); err != nil {
		return nil, err
	}
	if c.refStore, err = xrefine.OpenStoreKind("btree", refPath, true); err != nil {
		return nil, err
	}
	if c.ref, err = core.Open(c.refStore, &core.Config{}); err != nil {
		c.refStore.Close()
		return nil, err
	}
	return c, nil
}

func (c *corpus) close() { c.refStore.Close() }

// buildShards writes the shardCount x shardReplicas directory that
// refine-sharded serves, from the corpus XML, and returns its path.
func buildShards(e *env, c *corpus) (string, error) {
	dir := e.path("shards")
	err := e.tool("xgen", "-kind", "shards", "-xml", c.xmlPath, "-shards", fmt.Sprint(shardCount),
		"-replicas", fmt.Sprint(shardReplicas), "-shard-dir", dir, "-backend", "btree")
	return dir, err
}

// refineCase is one broken query of the refine pool with the corruptions
// that made it.
type refineCase struct {
	req   request
	kinds []string
}

// refinePool returns refinePoolSize distinct broken queries drawn from
// datagen.Workload cases, in a fixed order (refineStream gives them their
// Zipf ranks in that order).
// A case qualifies only when one of its terms is absent from the corpus,
// which makes the original query unsatisfiable by construction (no SLCA
// can hold a keyword the data lacks); refineStream confirms need_refine
// on every reference. One case in four carries two corruptions, which is
// how over-restriction (adding a rare term of another partition,
// satisfiable on its own in this corpus more often than not) enters the
// pool alongside typo, split, merge and mismatch.
func refinePool(c *corpus) ([]refineCase, error) {
	one, err := datagen.Workload(c.doc, datagen.WorkloadConfig{Seed: poolSeed, Queries: 3 * refinePoolSize, OpsPerQuery: 1})
	if err != nil {
		return nil, err
	}
	two, err := datagen.Workload(c.doc, datagen.WorkloadConfig{Seed: poolSeed + 1, Queries: refinePoolSize, OpsPerQuery: 2})
	if err != nil {
		return nil, err
	}
	ix := c.ref.Index()
	seen := map[string]bool{}
	var pool []refineCase
	add := func(cs datagen.Case) {
		terms := tokenize.Query(strings.Join(cs.Corrupted, " "))
		q := strings.Join(terms, " ")
		if len(terms) == 0 || seen[q] || len(pool) >= refinePoolSize {
			return
		}
		absent := false
		for _, t := range terms {
			if !ix.HasTerm(t) {
				absent = true
			}
		}
		if !absent {
			return
		}
		seen[q] = true
		rc := refineCase{req: request{terms: terms, q: q, k: refineK}}
		for _, op := range cs.Applied {
			rc.kinds = append(rc.kinds, op.String())
		}
		pool = append(pool, rc)
	}
	for i := 0; i < len(one) && len(pool) < refinePoolSize; i++ {
		add(one[i])
		if i%3 == 2 && i/3 < len(two) {
			add(two[i/3])
		}
	}
	if len(pool) < refinePoolSize {
		return nil, fmt.Errorf("refine pool: only %d qualifying cases", len(pool))
	}
	return pool, nil
}

// refineStream returns the refine workload: its distinct requests, with
// their references in o, and a request sequence of length n over them.
//
// The sequence is one fixed block of refineBlock Zipf draws over the pool
// ranks, in an order permuted by the run seed, repeated. The block's
// multiset is the same for every seed, so runs of different seeds ask the
// same mix of cheap and expensive queries and differ only in their order;
// the seed cannot move the cost mix of a run.
//
// The block's distinct ranks, smallest first, go to the pool's cases in
// pool order, skipping every case whose answer lists more than
// refineMaxResults results. Answer bytes grow with the result count
// (about 210 bytes a result), and a few cases answer with up to 4,000
// results and a megabyte; at the head of the Zipf block one of them would
// make encoding, not the refinement, the workload's main cost. Only as
// many cases are answered in process as the block needs.
func refineStream(c *corpus, o *oracle, seed int64, n int) ([]request, []int32, map[string]int, error) {
	cases, err := refinePool(c)
	if err != nil {
		return nil, nil, nil, err
	}
	z := rand.NewZipf(rand.New(rand.NewSource(poolSeed)), refineZipfS, 1, uint64(len(cases)-1))
	block := make([]int32, refineBlock)
	slot := map[int32]int32{} // drawn rank -> request index
	for i := range block {
		block[i] = int32(z.Uint64())
		slot[block[i]] = 0
	}
	ranks := make([]int32, 0, len(slot))
	for r := range slot {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	var pool []request
	kinds := map[string]int{}
	for _, rc := range cases {
		if len(pool) == len(ranks) {
			break
		}
		resp, err := o.query(rc.req)
		if err != nil {
			return nil, nil, nil, err
		}
		results := 0
		for _, rq := range resp.Queries {
			results += len(rq.Results)
		}
		if results > refineMaxResults {
			continue
		}
		if !resp.NeedRefine {
			return nil, nil, nil, fmt.Errorf("refine query %q lacks a corpus term but does not need refinement", rc.req.q)
		}
		if err := o.keep(len(pool), resp); err != nil {
			return nil, nil, nil, err
		}
		slot[ranks[len(pool)]] = int32(len(pool))
		pool = append(pool, rc.req)
		for _, k := range rc.kinds {
			kinds[k]++
		}
	}
	if len(pool) < len(ranks) {
		return nil, nil, nil, fmt.Errorf("refine pool: %d cases answer with at most %d results, the block needs %d",
			len(pool), refineMaxResults, len(ranks))
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(block))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = slot[block[perm[i%len(block)]]]
	}
	return pool, seq, kinds, nil
}

// cycleSequence visits the pool in one seeded permutation, repeated, so
// that no entry recurs before every other one has been asked: an LRU
// smaller than the pool never hits.
func cycleSequence(seed int64, poolSize, n int) []int32 {
	perm := rand.New(rand.NewSource(seed)).Perm(poolSize)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(perm[i%poolSize])
	}
	return out
}

// lookupPool returns satisfiable 1- and 2-term queries on frequent terms
// with their reference digests: every non-tag term whose list holds
// between lookupMinPostings and lookupMaxPostings postings, alone and
// paired with the next one or two terms in frequency order. Queries that
// would need refinement are dropped, so every answer is the original
// query's full result list with snippets.
func lookupPool(c *corpus, o *oracle) ([]request, error) {
	ix := c.ref.Index()
	terms := valueTerms(ix, lookupMinPostings, lookupMaxPostings)
	sort.SliceStable(terms, func(i, j int) bool { return ix.ListLen(terms[i]) > ix.ListLen(terms[j]) })
	var cands [][]string
	for i, t := range terms {
		cands = append(cands, []string{t})
		for d := 1; d <= 2 && i+d < len(terms); d++ {
			cands = append(cands, []string{t, terms[i+d]})
		}
	}
	var pool []request
	for _, ts := range cands {
		ts = tokenize.Query(strings.Join(ts, " "))
		req := request{terms: ts, q: strings.Join(ts, " "), k: lookupK}
		resp, err := o.query(req)
		if err != nil {
			return nil, err
		}
		if resp.NeedRefine {
			continue
		}
		if err := o.keep(len(pool), resp); err != nil {
			return nil, err
		}
		pool = append(pool, req)
	}
	return pool, nil
}

// setupProbe is the request set-up time waits for: the non-tag term with
// the fewest postings (the first such in lexicographic order), so its
// answer is small and cheap and set-up time is the server's own start-up
// cost.
func setupProbe(c *corpus) (request, error) {
	ix := c.ref.Index()
	best := ""
	for _, t := range valueTerms(ix, 1, math.MaxInt) {
		if terms := tokenize.Query(t); len(terms) == 1 && terms[0] == t && (best == "" || ix.ListLen(t) < ix.ListLen(best)) {
			best = t
		}
	}
	if best == "" {
		return request{}, fmt.Errorf("no set-up probe term in the corpus")
	}
	return request{terms: []string{best}, q: best, k: refineK}, nil
}

// valueTerms lists, in lexicographic order, the indexed terms that are not
// element tags and whose lists hold between min and max postings.
func valueTerms(ix *index.Index, min, max int) []string {
	tags := map[string]bool{}
	for _, t := range ix.Types.Types() {
		tags[t.Tag] = true
	}
	var out []string
	for _, t := range ix.Vocabulary() {
		if n := ix.ListLen(t); n >= min && n <= max && !tags[t] {
			out = append(out, t)
		}
	}
	return out
}

// oracle holds the in-process reference answers: the bytes of
// server.EncodeBody(server.SearchBody(...)) from a direct engine call,
// which both the HTTP body and the wire payload must equal.
type oracle struct {
	eng  server.Backend
	refs map[int]digest // by request index
}

func newOracle(eng server.Backend) *oracle {
	return &oracle{eng: eng, refs: map[int]digest{}}
}

// query answers one request in process.
func (o *oracle) query(req request) (*core.Response, error) {
	resp, err := o.eng.QueryTermsCtx(context.Background(), req.terms, core.StrategyPartition, req.k, 0)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", req.q, err)
	}
	return resp, nil
}

// encode returns the bytes the server sends for resp.
func (o *oracle) encode(resp *core.Response) ([]byte, error) {
	var b bytes.Buffer
	if err := server.EncodeBody(&b, server.SearchBody(o.eng, resp, nil)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// body returns the reference bytes of one request.
func (o *oracle) body(req request) ([]byte, *core.Response, error) {
	resp, err := o.query(req)
	if err != nil {
		return nil, nil, err
	}
	b, err := o.encode(resp)
	return b, resp, err
}

// keep remembers the reference digest of request i.
func (o *oracle) keep(i int, resp *core.Response) error {
	b, err := o.encode(resp)
	if err != nil {
		return err
	}
	o.refs[i] = digestOf(b)
	return nil
}

// updateBatches derives the run's update stream from the seed.
func updateBatches(c *corpus, seed int64, n int) ([]*mutate.Batch, error) {
	return datagen.Updates(c.doc, datagen.UpdatesConfig{Batches: n, Ops: 8, Seed: seed})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyDir copies the regular files of src (one level, as a shard
// directory holds them) into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// openCopy opens a private read-only copy of the base store.
func openCopy(c *corpus, path string) (xrefine.Store, error) {
	if err := copyFile(c.storePath, path); err != nil {
		return nil, err
	}
	return xrefine.OpenStoreKind("btree", path, true)
}

// openLive opens a live engine over a private copy of the base store.
func openLive(e *env, c *corpus, name string, cfg *core.Config) (*core.Engine, xrefine.Store, error) {
	path := e.path(name + ".kv")
	if err := copyFile(c.storePath, path); err != nil {
		return nil, nil, err
	}
	st, err := xrefine.OpenStoreKind("btree", path, false)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.OpenLive(st, path+".wal", cfg)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return eng, st, nil
}
