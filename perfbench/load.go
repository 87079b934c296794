package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"xrefine/internal/core"
	"xrefine/internal/mutate"
	"xrefine/internal/wire"
)

// sequence hands out pool indexes in a fixed order to the closed-loop
// connections; the set of requests issued in a run is therefore a prefix
// of one seeded sequence, whichever connection sends each.
type sequence struct {
	idx []int32
	pos atomic.Int64
}

func (s *sequence) next() int {
	p := s.pos.Add(1) - 1
	return int(s.idx[p%int64(len(s.idx))])
}

// loadResult is what one phase of closed-loop reads produced.
type loadResult struct {
	lat       latencies
	attempted int
	failed    int
	elapsed   time.Duration
	answers   answers
	firstErr  string
}

func (r *loadResult) merge(o *loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	r.answers.merge(o.answers)
}

func (r *loadResult) failure(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// closedLoop runs conns connections until the deadline, each sending its
// next request only after the previous answer arrived, and merges their
// results. newConn opens one connection and returns its request function.
// check, when set, vets each body as it arrives; bodies are otherwise
// only digested, to be compared with their references after timing.
func closedLoop(conns int, deadline time.Time, newConn func() (func(i int) ([]byte, error), func(), error), seq *sequence, check func(i int, body []byte) error) (*loadResult, error) {
	dos := make([]func(int) ([]byte, error), conns)
	closers := make([]func(), 0, conns)
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for c := range dos {
		do, closeConn, err := newConn()
		if err != nil {
			return nil, err
		}
		dos[c] = do
		closers = append(closers, closeConn)
	}
	total := &loadResult{answers: answers{}}
	parts := make([]*loadResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			do := dos[c]
			r := &loadResult{answers: answers{}}
			parts[c] = r
			for time.Now().Before(deadline) {
				i := seq.next()
				t0 := time.Now()
				body, err := do(i)
				d := time.Since(t0)
				r.attempted++
				var cerr error
				if err == nil && check != nil {
					cerr = check(i, body)
				}
				switch {
				case err != nil:
					// The connection is unusable after a transport
					// error; this connection stops.
					r.failure("request for pool entry %d: %v", i, err)
					return
				case degraded(body):
					r.failure("pool entry %d answered degraded", i)
				case cerr != nil:
					r.failure("pool entry %d: %v", i, cerr)
				default:
					r.lat = append(r.lat, d)
					r.answers.add(i, digestOf(body))
				}
			}
		}(c)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	for _, p := range parts {
		total.merge(p)
	}
	return total, nil
}

// wireConn opens one persistent wire connection issuing pool requests.
func wireConn(addr string, pool []request) func() (func(int) ([]byte, error), func(), error) {
	return func() (func(int) ([]byte, error), func(), error) {
		c, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			return nil, nil, err
		}
		do := func(i int) ([]byte, error) {
			req := pool[i]
			resp, err := c.Query(0, byte(core.StrategyPartition), req.k, 0, req.terms)
			if err != nil {
				return nil, err
			}
			if resp.Status != wire.StatusOK {
				return nil, fmt.Errorf("wire status %d: %s", resp.Status, resp.Payload)
			}
			return resp.Payload, nil
		}
		return do, func() { c.Close() }, nil
	}
}

// httpConns returns a connection factory whose clients share one
// keep-alive transport capped at conns connections.
func httpConns(s *xserve, pool []request, conns int) (func() (func(int) ([]byte, error), func(), error), func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	urls := make([]string, len(pool))
	for i, r := range pool {
		urls[i] = s.searchURL(r, 0)
	}
	return func() (func(int) ([]byte, error), func(), error) {
		var buf bytes.Buffer
		do := func(i int) ([]byte, error) { return clientDo(client, urls[i], nil, &buf) }
		return do, func() {}, nil
	}, tr.CloseIdleConnections
}

// writeResult is what the open-loop update writer produced.
type writeResult struct {
	lat       latencies // from each batch's scheduled send time to its answer
	late      latencies // actual send time minus scheduled send time
	attempted int
	failed    int
	acked     []*mutate.Batch // acknowledged batches, in commit order
	ackBytes  int64           // payload bytes of the acknowledged batches
	firstErr  string
}

// openLoopWriter POSTs batches to /update on one keep-alive connection at
// a fixed rate until the deadline. Batch i is due at start + i/rate; a
// batch sent late (the previous answer arrived after its due time) is
// still timed from its due time, so a stalled writer shows as latency
// rather than as a slower schedule.
func openLoopWriter(s *xserve, batches []*mutate.Batch, rate float64, start, deadline time.Time) *writeResult {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	u := "http://" + s.httpAddr + "/update"
	r := &writeResult{}
	fail := func(format string, args ...any) {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf(format, args...)
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	var buf bytes.Buffer
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		body, err := json.Marshal(b)
		if err != nil {
			fail("encode batch %d: %v", i, err)
			continue
		}
		sent := time.Now()
		r.late = append(r.late, sent.Sub(due))
		r.attempted++
		ans, err := clientDo(client, u, body, &buf)
		r.lat = append(r.lat, time.Since(due))
		var ack struct {
			Epoch uint64 `json:"epoch"`
		}
		switch {
		case err != nil:
			fail("batch %d: %v", i, err)
		case json.Unmarshal(ans, &ack) != nil || ack.Epoch != uint64(len(r.acked)+1):
			fail("batch %d: acknowledged epoch %d, want %d", i, ack.Epoch, len(r.acked)+1)
		default:
			r.acked = append(r.acked, b)
			r.ackBytes += int64(len(body))
		}
	}
	return r
}
