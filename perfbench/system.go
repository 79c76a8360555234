package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/schemaevo/schemaevo/internal/serve"
	"github.com/schemaevo/schemaevo/internal/store"
)

// system is one generation of the served stack: the daemon in this process
// (serve.New over disk stores, on a loopback listener) and the repo's proxy
// binary in front of it.
type system struct {
	srv     *serve.Server // the current daemon generation
	front   front
	retired serve.Snapshot // counters of the generations renew retired
	seeds   *store.Disk
	hists   *store.Disk
	hs      *http.Server
	served  chan error

	direct string // daemon base URL
	proxy  string // proxy base URL

	cmd       *exec.Cmd
	proxyLogs *tailBuffer
	proxyDone chan error
}

// startSystem opens the stores under dir (kept across generations, so a new
// generation restores what an earlier one persisted), starts the daemon and
// the proxy, and returns once the proxy reports healthy.
func startSystem(ctx context.Context, dir, proxyBin string) (*system, error) {
	seeds, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	hists, err := store.Open(filepath.Join(dir, "histories"))
	if err != nil {
		return nil, err
	}
	s := &system{seeds: seeds, hists: hists}
	s.srv = s.newDaemon()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.direct = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: &s.front}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	if err := s.startProxy(ctx, proxyBin); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// newDaemon makes a daemon over the system's stores and routes the
// listener to it.
func (s *system) newDaemon() *serve.Server {
	srv := serve.New(serve.Options{Store: s.seeds, HistoryStore: s.hists})
	s.front.cur.Store(srv)
	return srv
}

// renew replaces the daemon with a fresh one over the same stores, on the
// same listener, so the proxy keeps its backend: a restart without the
// process start. The old daemon's write-behind saves land first, and its
// counters are kept for counters.
func (s *system) renew() {
	s.srv.SyncStore()
	s.retired = addCounts(s.retired, s.srv.Metrics().Snapshot())
	s.srv = s.newDaemon()
}

// counters reads the daemon counters setServeRows uses, summed over every
// daemon generation of the system.
func (s *system) counters() serve.Snapshot {
	return addCounts(s.retired, s.srv.Metrics().Snapshot())
}

// addCounts adds b's counters to a's; only those setServeRows uses.
func addCounts(a, b serve.Snapshot) serve.Snapshot {
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.MemoHits += b.MemoHits
	a.PipelineRuns += b.PipelineRuns
	a.IngestAccepted += b.IngestAccepted
	a.IngestDedupHits += b.IngestDedupHits
	return a
}

// front hands each request to the current daemon.
type front struct{ cur atomic.Pointer[serve.Server] }

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.cur.Load().ServeHTTP(w, r) }

var listeningRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startProxy runs the proxy binary on an ephemeral port in front of the
// daemon and waits for its listening line and a healthy /v1/healthz.
func (s *system) startProxy(ctx context.Context, bin string) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-backends", s.direct)
	// The proxy must not outlive the benchmark, even if the benchmark is
	// killed before it can stop the proxy itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start proxy: %w", err)
	}
	s.cmd = cmd
	s.proxyLogs = &tailBuffer{}
	s.proxyDone = make(chan error, 1)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.proxyLogs.add(line)
			if m := listeningRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		s.proxyDone <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.proxy = "http://" + a
	case <-time.After(20 * time.Second):
		return fmt.Errorf("proxy did not report its address: %s", s.proxyLogs)
	case <-ctx.Done():
		return ctx.Err()
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		r, err := fetch(ctx, probeClient, http.MethodGet, s.proxy+"/v1/healthz", "", nil)
		if err == nil && r.Status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("proxy not healthy (last: %v %d): %s", err, r.Status, s.proxyLogs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the proxy (and waits for it), drains the daemon's listener
// and lets every write-behind save land.
func (s *system) Close() {
	if s.cmd != nil && s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.proxyDone:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.proxyDone
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a forced close after the timeout is fine here
	<-s.served
	s.srv.SyncStore()
	// Connections to this generation are dead; drop them from the pools.
	loadClient.CloseIdleConnections()
	probeClient.CloseIdleConnections()
}

// proxyCPU returns the proxy process's CPU time so far, from /proc.
func (s *system) proxyCPU() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 12th and 13th of them, in clock ticks (100 per second on Linux).
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// proxyCounter sums one counter family from the proxy's /v1/metrics.
func (s *system) proxyCounter(ctx context.Context, family string) (float64, error) {
	r, err := fetch(ctx, probeClient, http.MethodGet, s.proxy+"/v1/metrics", "", nil)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(string(r.Body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum, nil
}

// tailBuffer keeps the last lines of a child's log for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// Clients. Load uses at most nproc connections per host (the load
// generator runs nproc workers); probeClient serves set-up and checks.
var (
	loadClient  = newClient(nproc)
	probeClient = newClient(1)
)

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// reply is one HTTP exchange.
type reply struct {
	Status int
	Body   []byte
	TTFB   time.Duration // request start → first response byte
	Total  time.Duration // request start → body fully read
}

// fetch performs one request and reads the whole body.
func fetch(ctx context.Context, c *http.Client, method, url, ctype string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	var first time.Time
	req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	}))
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{Status: resp.StatusCode}, fmt.Errorf("read body: %w", err)
	}
	r := reply{Status: resp.StatusCode, Body: b, Total: time.Since(start)}
	if !first.IsZero() {
		r.TTFB = first.Sub(start)
	}
	return r, nil
}
