package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// xserve is one running server child process.
type xserve struct {
	cmd      *exec.Cmd
	log      string
	httpAddr string
	wireAddr string
	started  time.Time
	done     chan struct{} // closed once the process has exited
	waitErr  error
}

// probeClient makes one-off requests on fresh connections.
var probeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 60 * time.Second}

// freeAddrs reserves n distinct loopback ports by binding them all at
// once, then releases them for the server to bind. Binding one at a time
// would let the kernel hand the port just released out again.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startServer execs xserve with args plus fresh HTTP and wire listen
// addresses. Nothing else is set: cache off, parallelism GOMAXPROCS and
// snippets on are the shipped defaults.
func startServer(e *env, logName string, args ...string) (*xserve, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	h, w := addrs[0], addrs[1]
	s := &xserve{log: e.path(logName), httpAddr: h, wireAddr: w, done: make(chan struct{})}
	lf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	s.cmd = exec.Command(filepath.Join(e.bin, "xserve"), append(args, "-addr", h, "-wire", w)...)
	s.cmd.Stdout, s.cmd.Stderr = lf, lf
	// A server outlives no benchmark: if this process dies without
	// stopping it, the kernel kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// exited reports whether the process has ended.
func (s *xserve) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// logTail returns the end of the server log for error messages.
func (s *xserve) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// awaitAnswer polls GET /search for req until the body equals want and
// returns the time from exec to that first correct answer. Transport
// errors (not listening yet) are retried every millisecond.
func (s *xserve) awaitAnswer(req request, want []byte, timeout time.Duration) (time.Duration, error) {
	u := s.searchURL(req, 0)
	deadline := s.started.Add(timeout)
	var buf bytes.Buffer
	var last error
	for time.Now().Before(deadline) {
		if s.exited() {
			return 0, fmt.Errorf("xserve exited before answering: %v\n%s", s.waitErr, s.logTail())
		}
		body, err := clientDo(probeClient, u, nil, &buf)
		took := time.Since(s.started)
		var se *statusError
		switch {
		case errors.As(err, &se):
			return 0, fmt.Errorf("first answer to %q: %w", req.q, err)
		case err != nil:
			last = err
			time.Sleep(time.Millisecond)
		case !bytes.Equal(body, want):
			return 0, fmt.Errorf("first answer to %q is wrong: %d bytes, want %d bytes", req.q, len(body), len(want))
		default:
			return took, nil
		}
	}
	return 0, fmt.Errorf("xserve gave no answer within %v (last error: %v)\n%s", timeout, last, s.logTail())
}

// awaitWire waits until the wire listener accepts connections. xserve
// binds it after the HTTP listener, so a first HTTP answer does not mean
// the wire port is open yet.
func (s *xserve) awaitWire(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", s.wireAddr, time.Second)
		if err == nil {
			return c.Close()
		}
		if s.exited() || time.Now().After(deadline) {
			return fmt.Errorf("wire listener %s: %w\n%s", s.wireAddr, err, s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// searchURL is the GET /search URL of a request; parallel 0 leaves the
// server's configured parallelism.
func (s *xserve) searchURL(req request, parallel int) string {
	u := "http://" + s.httpAddr + "/search?q=" + url.QueryEscape(req.q) + "&k=" + strconv.Itoa(req.k)
	if parallel > 0 {
		u += "&parallel=" + strconv.Itoa(parallel)
	}
	return u
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *xserve) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop ends the process with SIGTERM (graceful drain), escalating to
// SIGKILL after a grace period, and waits for it to exit.
func (s *xserve) stop() {
	if s.exited() {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a process that already exited is caught below
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

// kill ends the process with SIGKILL, as a crash would, and waits for it.
func (s *xserve) kill() {
	if !s.exited() {
		_ = s.cmd.Process.Kill() // the wait below observes the exit either way
	}
	<-s.done
}

// statusError is an HTTP answer other than 200 OK.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("http status %d: %s", e.code, e.body) }

// clientDo sends one request, a GET when payload is nil and a JSON POST
// otherwise, and reads the whole answer into buf, which it returns. An
// answer other than 200 OK is a *statusError.
func clientDo(c *http.Client, u string, payload []byte, buf *bytes.Buffer) ([]byte, error) {
	var resp *http.Response
	var err error
	if payload == nil {
		resp, err = c.Get(u)
	} else {
		resp, err = c.Post(u, "application/json", bytes.NewReader(payload))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{code: resp.StatusCode, body: buf.String()}
	}
	return buf.Bytes(), nil
}
