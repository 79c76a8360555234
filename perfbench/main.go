// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the served stack (the daemon in this process, the
// proxy binary in front of it), checks every response, and prints each
// metric by name with its unit. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}. See README.md.
//
//	perfbench -workload cold-seed -seed 1 -seconds 40 -trace 0 -proxy bin/schemaevo-proxy
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nproc bounds the load generator's workers and connections.
var nproc = runtime.NumCPU()

// metricSpec declares one reported metric. The lists below are the ones
// BENCHMARK.json names; the self-test keeps the two in step.
type metricSpec struct{ Name, Unit string }

// endToEnd is what every untraced run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"success_rate", "frac"},
}

// perLayer is what every traced run reports, on every workload. A layer the
// workload does not exercise reads 0.
var perLayer = append([]metricSpec{
	{"corpus.generate_s", "s"},
	{"collect.generate_s", "s"},
	{"collect.funnel_s", "s"},
	{"sqlparse.parse_s", "s"},
	{"sqlparse.bytes", "bytes"},
	{"sqlparse.repeat_stmt_frac", "frac"},
	{"diff.compute_s", "s"},
	{"diff.transitions", "count"},
	{"history.analyze_s", "s"},
	{"core.measure_classify_s", "s"},
	{"study.render_s", "s"},
	{"study.artifact_bytes", "bytes"},
	{"study.live_heap_mb", "MB"},
	{"store.put_s", "s"},
	{"store.snapshot_bytes", "bytes"},
	{"store.get_s", "s"},
	{"serve.handler_us", "us"},
	{"serve.direct_us", "us"},
	{"serve.memo_hit_frac", "frac"},
	{"serve.pipeline_runs", "count"},
	{"serve.ingest_dedup_frac", "frac"},
	{"serve.heap_mb", "MB"},
	{"ingest.prepare_ms", "ms"},
	{"ingest.run_ms", "ms"},
	{"ingest.upload_bytes", "bytes"},
	{"proxy.hop_us", "us"},
	{"proxy.hedge_frac", "frac"},
	{"process.cpu_util", "frac"},
	{"process.alloc_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"gen.tail_ms", "ms"},
	{"gen.read_tail_ms", "ms"},
	{"gen.first_byte_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.max_rps", "1/s"},
	{"remainder_s", "s"},
	{"trace_overhead_frac", "frac"},
}, renderMetricSpecs()...)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *env) error{
	"cold-seed":  runColdSeed,
	"warm-read":  runWarmRead,
	"ingest-mix": runIngestMix,
}

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	ProxyBin string // the schemaevo-proxy binary
	Root     string // repository root (golden files, provenance)
	Work     string // scratch directory for stores and traces
	TraceOut string // Chrome trace path for traced runs
	// Corrupt flips one byte of the first response the checks see; the
	// self-test uses it to prove a corrupted byte counts as a failure.
	Corrupt bool
}

// env is the state one run shares across its phases.
type env struct {
	cfg config
	rec *recorder // nil on untraced runs
	log io.Writer // progress lines (standard error)
	t0  time.Time // run start

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string
	corrupted         atomic.Bool

	metricMu sync.Mutex
	metrics  map[string]float64
}

// check counts one checked operation and records why it failed, if it did.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted.Add(1)
	if !ok {
		e.failed.Add(1)
		e.failMu.Lock()
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
		e.failMu.Unlock()
	}
	return ok
}

// body returns a response body as the checks should see it: unchanged,
// except that with Corrupt set the first one has a byte flipped.
func (e *env) body(b []byte) []byte {
	if e.cfg.Corrupt && len(b) > 0 && e.corrupted.CompareAndSwap(false, true) {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x20
		return c
	}
	return b
}

// logf prints one progress line, stamped with the time since the run began.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: %7.2fs %s\n", time.Since(e.t0).Seconds(), fmt.Sprintf(format, args...))
}

func (e *env) set(name string, v float64) {
	e.metricMu.Lock()
	e.metrics[name] = v
	e.metricMu.Unlock()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, _, err := runWorkload(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, cfg, res)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: cold-seed, warm-read or ingest-mix")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed; every input derives from it")
	fs.IntVar(&cfg.Seconds, "seconds", 30, "measured duration of the run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.ProxyBin, "proxy", "", "path of the schemaevo-proxy binary")
	fs.StringVar(&cfg.Root, "root", ".", "repository root")
	fs.StringVar(&cfg.Work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	fs.StringVar(&cfg.TraceOut, "trace-out", "", "Chrome trace output of traced runs (default <work>/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds < 1 {
		return cfg, errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.Trace = trace == 1
	if cfg.ProxyBin == "" {
		return cfg, errors.New("-proxy is required")
	}
	if cfg.Work == "" {
		cfg.Work = filepath.Join(cfg.Root, ".bench_build", "work")
	}
	if cfg.TraceOut == "" {
		cfg.TraceOut = filepath.Join(cfg.Work, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed))
	}
	return cfg, nil
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in a fresh scratch directory and collects
// its result; the env carries every figure the run measured. The scratch
// directory is removed afterwards.
func runWorkload(ctx context.Context, cfg config, stderr io.Writer) (*result, *env, error) {
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.Work, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Work = dir

	e := &env{cfg: cfg, metrics: map[string]float64{}, log: stderr, t0: time.Now()}
	if cfg.Trace {
		e.rec = newRecorder()
	}
	if err := workloads[cfg.Workload](ctx, e); err != nil {
		return nil, nil, err
	}
	e.logf("%s done", cfg.Workload)
	if e.attempted.Load() == 0 {
		return nil, nil, errors.New("no operation was attempted")
	}
	for _, f := range e.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	failRate := float64(e.failed.Load()) / float64(e.attempted.Load())
	e.set("success_rate", 1-failRate)

	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
		if err := writeTrace(e); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", e.rec.Len(), cfg.TraceOut)
	}
	res := &result{
		Correct:   e.failed.Load() == 0,
		Attempted: e.attempted.Load(),
		Failed:    e.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		v, ok := e.metrics[m.Name]
		if !ok && !cfg.Trace {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", cfg.Workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, e, nil
}

// writeTrace writes the run's spans as Chrome trace JSON to TraceOut, which
// lies outside the run's scratch directory (removed when the run ends).
func writeTrace(e *env) error {
	if err := os.MkdirAll(filepath.Dir(e.cfg.TraceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(e.cfg.TraceOut)
	if err != nil {
		return err
	}
	if err := e.rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints provenance, one line per metric, and the JSON result
// as the last line.
func printResult(w io.Writer, cfg config, res *result) {
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(cfg)})
	fmt.Fprintln(w, string(prov))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// provenance identifies the box and the code a result came from, so results
// from different machines or commits are never compared by accident.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.Workload,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"trace":         cfg.Trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(cfg.Root),
		"source_sha256": sourceDigest(cfg.Root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit: $BENCH_COMMIT when set, else git's
// HEAD when root is a git work tree, else "unknown" (a plain export).
func commit(root string) string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), identifying the code even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// processSample is a reading of the process counters; the difference of
// two readings gives the process.* rows.
type processSample struct {
	at       time.Time
	cpu      time.Duration // this process (daemon + load generator)
	proxyCPU time.Duration
	mem      runtime.MemStats
}

func sampleProcess(s *system) processSample {
	p := processSample{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if s != nil {
		p.proxyCPU = s.proxyCPU()
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// setProcessRows reports the process.* rows for the window [a, b]. CPU time
// counts this process and the proxy, over wall time × GOMAXPROCS.
func (e *env) setProcessRows(a, b processSample) {
	wall := b.at.Sub(a.at).Seconds()
	cpu := (b.cpu - a.cpu + b.proxyCPU - a.proxyCPU).Seconds()
	e.set("process.cpu_util", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	e.set("process.alloc_mb", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/(1<<20))
	e.set("process.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	e.set("process.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
}

// liveHeapMB forces a collection and returns the live heap in MB. It
// collects twice: memory kept alive only by a finalizer (a closed
// generation's sockets, say) is freed by the second collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timedSetup runs setup several times — at least setupRuns times, and
// cheap set-ups until setupBudget has been spent, up to setupMaxRuns — keeps
// the system of the last run, closes the others, and reports setup_s as the
// median duration of the set-ups leastStolen keeps.
func (e *env) timedSetup(setup func() (*system, error)) (*system, error) {
	var times, steal []float64
	var keep *system
	var spent time.Duration
	for len(times) < setupRuns || (spent < setupBudget && len(times) < setupMaxRuns) {
		if keep != nil {
			keep.Close()
			keep = nil
		}
		steal0 := stolen()
		start := time.Now()
		s, err := setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		steal = append(steal, stealShare(steal0, stolen(), d))
		spent += d
		times = append(times, d.Seconds())
		keep = s
	}
	kept := leastStolenOf(times, steal)
	e.set("setup_s", median(kept))
	e.logf("set up %d times: %.4f s median of the %d kept (%.4f s over all)", len(times), median(kept), len(kept), median(times))
	return keep, nil
}

// Set-up repetitions for setup_s.
const (
	setupRuns    = 5
	setupMaxRuns = 200
	setupBudget  = time.Second
)
