package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"xrefine/internal/core"
)

// workload describes one named traffic mix.
type workload struct {
	pool   string // "refine" (Zipf over broken queries) or "lookup" (cycled satisfiable lookups)
	http   bool   // reads over keep-alive HTTP instead of wire
	conns  int    // closed-loop read connections
	live   bool   // xserve -live with an open-loop /update writer
	shards bool   // xserve -shards over a 2-shard x 2-replica directory
}

var workloads = map[string]*workload{
	"refine-wire":    {pool: "refine", conns: 2},
	"lookup-http":    {pool: "lookup", http: true, conns: 2},
	"update-mix":     {pool: "refine", conns: 1, live: true},
	"refine-sharded": {pool: "refine", conns: 2, shards: true},
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}

const (
	// setupStarts is how many times set-up is measured per run; setup_s
	// is their median.
	setupStarts = 21
	// warmup is the untimed load before measuring: lazily loaded posting
	// lists become resident, as they are on any long-running server.
	warmup = 2 * time.Second
	// updateRate is the writer's fixed schedule in batches per second:
	// one batch every 250 ms against a p50 commit of about 80-100 ms
	// under the read load, so the writer keeps its schedule even when the
	// host runs half as fast. At 20 measured seconds it sends 80 batches.
	updateRate = 4.0
	// lateBound invalidates an update-mix run whose writer sent its
	// 90th-percentile batch later than this share of the interval.
	lateBound = 0.5
	// probeCount is the size of the fixed probe set compared after the
	// update-mix crash and restart.
	probeCount = 20
	seqLen     = 1 << 18
)

// deployment is the store or shard directory a server instance runs on.
type deployment struct {
	args []string
	// store and wal are the live store and its log (update-mix only).
	store, wal string
}

// deploy makes a pristine copy of the served data for one server
// instance and returns the xserve flags that serve it.
func deploy(e *env, c *corpus, wl *workload, shardDir string, n int) (*deployment, error) {
	dir := e.path(fmt.Sprintf("inst-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if wl.shards {
		d := dir + "/shards"
		if err := copyDir(shardDir, d); err != nil {
			return nil, err
		}
		return &deployment{args: []string{"-shards", d}}, nil
	}
	st := dir + "/store.kv"
	if err := copyFile(c.storePath, st); err != nil {
		return nil, err
	}
	d := &deployment{args: []string{"-index", st}}
	if wl.live {
		d.store, d.wal = st, st+".wal"
		d.args = append(d.args, "-live")
	}
	return d, nil
}

// runEndToEnd measures one workload against a child xserve: set-up,
// warm-up, the timed closed loop (plus the open-loop writer for
// update-mix), then the answer check and, for update-mix, the crash and
// restart check.
func runEndToEnd(o options, wl *workload, e *env, c *corpus, rep *report) error {
	orc := newOracle(c.ref)
	var pool []request
	var seq *sequence
	switch wl.pool {
	case "refine":
		p, idx, kinds, err := refineStream(c, orc, o.seed, seqLen)
		if err != nil {
			return err
		}
		pool = p
		seq = &sequence{idx: idx}
		rep.note("refine stream %d distinct broken queries (zipf s=%.1f over %d cases, at most %d results each), k=%d, corruptions %v",
			len(pool), refineZipfS, refinePoolSize, refineMaxResults, refineK, kinds)
	case "lookup":
		p, err := lookupPool(c, orc)
		if err != nil {
			return err
		}
		pool = p
		seq = &sequence{idx: cycleSequence(o.seed, len(pool), seqLen)}
		rep.note("lookup pool %d satisfiable 1-2 term queries, k=%d, cycled", len(pool), lookupK)
	}
	var shardDir string
	if wl.shards {
		var err error
		if shardDir, err = buildShards(e, c); err != nil {
			return err
		}
	}

	// Set-up: exec to first correct answer, several times. The last
	// instance started before the measurement serves it; the remaining
	// starts follow the measurement, so that the samples span the run
	// rather than one moment of a host whose speed drifts.
	probe, err := setupProbe(c)
	if err != nil {
		return err
	}
	probeBody, _, err := orc.body(probe)
	if err != nil {
		return err
	}
	if err := selfCheck(probeBody); err != nil {
		return err
	}
	var setups []float64
	var srv *xserve
	var dep *deployment
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// setUp stops the running instance, if any, and starts a new one on a
	// pristine copy of the data, recording its set-up time.
	setUp := func() error {
		if srv != nil {
			srv.stop()
		}
		n := len(setups)
		var err error
		if dep, err = deploy(e, c, wl, shardDir, n); err != nil {
			return err
		}
		if srv, err = startServer(e, fmt.Sprintf("xserve-%d.log", n), dep.args...); err != nil {
			return err
		}
		took, err := srv.awaitAnswer(probe, probeBody, 60*time.Second)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		return srv.awaitWire(10 * time.Second)
	}
	for len(setups) < setupStarts/2+1 {
		if err := setUp(); err != nil {
			return err
		}
	}

	newConn := wireConn(srv.wireAddr, pool)
	if wl.http {
		var closeIdle func()
		newConn, closeIdle = httpConns(srv, pool, wl.conns)
		defer closeIdle()
	}

	warm, err := closedLoop(wl.conns, time.Now().Add(warmup), newConn, seq, nil)
	if err != nil {
		return err
	}
	seq.pos.Store(0) // every measurement starts at the head of its stream

	var reads *loadResult
	var writes *writeResult
	var storeBefore int64
	measured := time.Duration(o.seconds) * time.Second
	if wl.live {
		if storeBefore, err = diskBytes(dep); err != nil {
			return err
		}
		batches, err := updateBatches(c, o.seed, int(updateRate*float64(o.seconds))+1)
		if err != nil {
			return err
		}
		start := time.Now()
		deadline := start.Add(measured)
		done := make(chan *writeResult)
		go func() { done <- openLoopWriter(srv, batches, updateRate, start, deadline) }()
		// Reads race with epoch swaps, so no single reference holds
		// for them: each body must be a complete, non-degraded answer
		// to its own query that still needs refinement (its terms stay
		// absent from the corpus, since inserts draw on the corpus
		// vocabulary). Byte identity is checked on the final state.
		reads, err = closedLoop(wl.conns, deadline, newConn, seq, headCheck(pool))
		writes = <-done
		if err != nil {
			return err
		}
	} else {
		if reads, err = closedLoop(wl.conns, time.Now().Add(measured), newConn, seq, nil); err != nil {
			return err
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	// Answer check against the in-process references.
	checked := []*loadResult{warm}
	if !wl.live {
		checked = append(checked, reads)
	}
	for _, r := range checked {
		bad, first := r.answers.verify(orc.refs)
		r.failed += bad
		if r.firstErr == "" {
			r.firstErr = first
		}
	}
	rep.phase("warmup", warm.attempted, warm.failed)
	rep.phase("measured-reads", reads.attempted, reads.failed)
	for _, r := range []*loadResult{warm, reads} {
		if r.firstErr != "" {
			rep.fail("%s", r.firstErr)
		}
	}

	ok := len(reads.lat)
	rep.set("qps", float64(ok)/reads.elapsed.Seconds(), "1/s")
	p50, n50 := reads.lat.quantile(0.50)
	p99, n99 := reads.lat.quantile(0.99)
	rep.set("p50_ms", p50, "ms")
	rep.set("p99_ms", p99, "ms")
	rep.set("rss_mb", rss, "MB")
	rep.note("read samples %d (beyond p50: %d, beyond p99: %d), distinct requests %d, elapsed %.3fs",
		ok, n50, n99, len(reads.answers), reads.elapsed.Seconds())

	if wl.live {
		if err := finishUpdates(e, c, pool, srv, dep, writes, storeBefore, rep); err != nil {
			return err
		}
	}
	for len(setups) < setupStarts {
		if err := setUp(); err != nil {
			return err
		}
	}
	rep.phase("setup", len(setups), 0)
	rep.set("setup_s", median(setups), "s")
	rep.note("setup_s samples %d: %v", len(setups), setups)

	attempted, failed := rep.res.Attempted, rep.res.Failed
	rep.note("fail_ratio %.6f (%d failed of %d attempted operations)", float64(failed)/float64(attempted), failed, attempted)
	if failed > 0 {
		rep.fail("%d operations failed", failed)
	}
	return nil
}

// headCheck vets an update-mix read: its body must open with the terms of
// its own query and need_refine true, exactly as the server encodes them.
func headCheck(pool []request) func(int, []byte) error {
	heads := make([][]byte, len(pool))
	for i, r := range pool {
		// Strings and a bool always marshal.
		b, _ := json.MarshalIndent(struct {
			Terms      []string `json:"terms"`
			NeedRefine bool     `json:"need_refine"`
			Cut        int      `json:"cut"`
		}{r.terms, true, 0}, "", "  ")
		heads[i] = b[:bytes.Index(b, []byte(`  "cut"`))]
	}
	return func(i int, body []byte) error {
		if !bytes.HasPrefix(body, heads[i]) {
			return fmt.Errorf("body does not answer %q with need_refine true", pool[i].q)
		}
		return nil
	}
}

// diskBytes is the on-disk size of a live deployment: store plus WAL.
func diskBytes(d *deployment) (int64, error) {
	var n int64
	for _, p := range []string{d.store, d.wal} {
		st, err := os.Stat(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// finishUpdates reports the writer's figures, then crashes the server with
// SIGKILL, restarts it on the same store and WAL, and compares a fixed
// probe set with an in-process engine that applied the acknowledged
// batches, in order, to a pristine copy of the base store.
func finishUpdates(e *env, c *corpus, pool []request, srv *xserve, dep *deployment, w *writeResult, storeBefore int64, rep *report) error {
	rep.phase("measured-writes", w.attempted, w.failed)
	if w.firstErr != "" {
		rep.fail("%s", w.firstErr)
	}
	up50, n50 := w.lat.quantile(0.50)
	up90, n90 := w.lat.quantile(0.90)
	late90, _ := w.late.quantile(0.90)
	lateMax, _ := w.late.quantile(1)
	interval := 1000 / updateRate
	rep.note("update_p50_ms %.4f ms, update_p90_ms %.4f ms (batches %d, beyond p50: %d, beyond p90: %d, rate %.1f/s open loop)",
		up50, up90, len(w.lat), n50, n90, updateRate)
	rep.note("writer lateness p90 %.4f ms, max %.4f ms (bound: p90 under %.0f ms)", late90, lateMax, lateBound*interval)
	if late90 > lateBound*interval {
		rep.fail("writer ran late: p90 lateness %.1f ms exceeds %.1f ms", late90, lateBound*interval)
	}
	after, err := diskBytes(dep)
	if err != nil {
		return err
	}
	if w.ackBytes > 0 {
		rep.note("write_amp %.4f (store+WAL growth %d bytes / acknowledged payload %d bytes)",
			float64(after-storeBefore)/float64(w.ackBytes), after-storeBefore, w.ackBytes)
	}

	// Crash and restart on the same files.
	srv.kill()
	restarted, err := startServer(e, "xserve-restart.log", dep.args...)
	if err != nil {
		return err
	}
	defer restarted.stop()

	eng, st, err := openLive(e, c, "replica", &core.Config{})
	if err != nil {
		return err
	}
	defer st.Close()
	defer eng.Close()
	for i, b := range w.acked {
		if _, err := eng.Apply(b); err != nil {
			return fmt.Errorf("replaying acknowledged batch %d in process: %w", i, err)
		}
	}
	final := newOracle(eng)
	probes := pool[:probeCount]
	attempted, failed := 0, 0
	var first string
	var buf bytes.Buffer
	for i, p := range probes {
		want, _, err := final.body(p)
		if err != nil {
			return err
		}
		attempted++
		if i == 0 {
			if _, err := restarted.awaitAnswer(p, want, 60*time.Second); err != nil {
				failed++
				first = err.Error()
			}
			continue
		}
		got, err := clientDo(probeClient, restarted.searchURL(p, 0), nil, &buf)
		if err != nil || !bytes.Equal(got, want) {
			failed++
			if first == "" {
				first = fmt.Sprintf("probe %q after restart differs from in-process replay (err %v)", p.q, err)
			}
		}
	}
	rep.phase("restart-probes", attempted, failed)
	if first != "" {
		rep.fail("%s", first)
	}
	rep.note("restart at epoch %d after %d acknowledged batches; %d probes byte-identical", eng.Epoch(), len(w.acked), attempted-failed)
	return nil
}
