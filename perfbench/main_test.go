package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// The self-test smoke-runs every workload against the real stack. It builds
// the proxy from the enclosing repository, so it runs from perfbench/:
//
//	go test ./...            (about three minutes; -short skips the runs)

var (
	proxyOnce sync.Once
	proxyBin  string
	proxyErr  error
)

func buildProxy(t *testing.T) string {
	t.Helper()
	proxyOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-proxy-")
		if err != nil {
			proxyErr = err
			return
		}
		proxyBin = filepath.Join(dir, "schemaevo-proxy")
		cmd := exec.Command("go", "build", "-o", proxyBin, "./cmd/schemaevo-proxy")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			proxyErr = err
			t.Logf("%s", out)
		}
	})
	if proxyErr != nil {
		t.Fatalf("build proxy: %v", proxyErr)
	}
	return proxyBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if proxyBin != "" {
		os.RemoveAll(filepath.Dir(proxyBin))
	}
	os.Exit(code)
}

// benchmarkFile is the part of BENCHMARK.json the self-test compares.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric lists the
// program reports in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, f.EndToEnd)
	same("per_layer", perLayer, f.PerLayer)
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

type smokeKey struct {
	workload       string
	seconds        int
	trace, corrupt bool
}

type smokeRun struct {
	res *result
	env *env
}

var (
	smokeMu   sync.Mutex
	smokeRuns = map[smokeKey]smokeRun{}
)

// smoke runs a workload for the given seconds, once per distinct setting.
func smoke(t *testing.T, workload string, seconds int, trace, corrupt bool) (*result, *env) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs start the whole stack")
	}
	key := smokeKey{workload, seconds, trace, corrupt}
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if r, ok := smokeRuns[key]; ok {
		return r.res, r.env
	}
	cfg := config{
		Workload: workload, Seed: 7, Seconds: seconds, Trace: trace, Corrupt: corrupt,
		ProxyBin: buildProxy(t), Root: "..", Work: t.TempDir(),
	}
	cfg.TraceOut = filepath.Join(cfg.Work, "trace.json")
	res, e, err := runWorkload(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	smokeRuns[key] = smokeRun{res, e}
	return res, e
}

// TestSmokeEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks every metric BENCHMARK.json names is emitted and that
// the checks passed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			res, _ := smoke(t, w.Name, 2, trace, false)
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, m.Name)
				} else if v.Unit != m.Unit || math.IsNaN(v.Value) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, v)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w.Name, trace, res.Failed, res.Attempted)
			}
			if !trace {
				for _, m := range f.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestColdSeedLayersAddUp checks cold-seed's traced rows against figures
// timed apart from them. The top-level layer rows must cover the
// seed.layered spans they sit in, less the benchmark's own diagnostic
// passes. And they must account for the daemon's seed-ready time: the
// remainder may be at most 10% of it either way. It can read a little below
// 0, because the daemon and the library path are two executions of the same
// work and a repetition's time varies by several percent from one execution
// to the next. The run takes three repetitions so that this noise averages
// down.
func TestColdSeedLayersAddUp(t *testing.T) {
	res, e := smoke(t, "cold-seed", 45, true, false)
	var rows float64
	for _, l := range seedTopLayers {
		v, ok := res.Metrics[l+"_s"]
		if !ok {
			t.Fatalf("layer row %s_s missing", l)
		}
		rows += v.Value
	}
	layered := e.metrics["layered_s"]
	if layered <= 0 || math.Abs(rows-layered) > 0.02*layered {
		t.Errorf("top-level layer rows = %.4f s, seed.layered span = %.4f s; want within 2%%", rows, layered)
	}
	ready := e.metrics["anchor_s"]
	if r := res.Metrics["remainder_s"].Value; ready <= 0 || math.Abs(r) > 0.1*ready {
		t.Errorf("remainder = %.4f s, seed ready = %.4f s; want |remainder| <= 10%%", r, ready)
	}
	if !res.Correct {
		t.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
}

// TestWarmReadRunsNoPipeline checks that warm-read counts the daemon's
// pipeline runs in traced and untraced runs alike, and finds none.
func TestWarmReadRunsNoPipeline(t *testing.T) {
	for _, trace := range []bool{false, true} {
		_, e := smoke(t, "warm-read", 2, trace, false)
		if runs, ok := e.metrics["serve.pipeline_runs"]; !ok || runs != 0 {
			t.Errorf("trace=%v: serve.pipeline_runs = %v (measured %v), want 0", trace, runs, ok)
		}
	}
}

// TestCorruptedByteIsAFailure flips one byte of one response and checks the
// run reports it as a failed check instead of passing it.
func TestCorruptedByteIsAFailure(t *testing.T) {
	for _, w := range []string{"ingest-mix", "warm-read"} {
		res, _ := smoke(t, w, 2, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted response passed: correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestColdSeedIsColdEveryRepetition checks that every cold-seed repetition
// ran the pipeline: a fresh daemon over a store without the seed.
func TestColdSeedIsColdEveryRepetition(t *testing.T) {
	_, e := smoke(t, "cold-seed", 45, true, false)
	want := math.Round(45 / (2 * coldSeedCost.Seconds()))
	if runs := e.metrics["serve.pipeline_runs"]; runs != want {
		t.Errorf("serve.pipeline_runs = %v over %v repetitions, want one each", runs, want)
	}
}

// TestLeastStolen checks which measurements a timed figure is taken from.
func TestLeastStolen(t *testing.T) {
	for _, c := range []struct {
		name  string
		steal []float64
		keep  float64
		want  []int
	}{
		{"all quiet", []float64{0, 0.005, 0.01}, 0.5, []int{0, 1, 2}},
		{"noisy dropped", []float64{0, 0.05, 0.002, 0.001}, 0.5, []int{0, 2, 3}},
		{"too few quiet", []float64{0.04, 0.002, 0.07, 0.02, 0.03}, 0.5, []int{1, 3, 4}},
		{"none quiet", []float64{0.04, 0.03}, 0.5, []int{1}},
		{"a quarter", []float64{0.04, 0.03, 0.05, 0.02, 0.06, 0.07, 0.08, 0.09}, 0.25, []int{1, 3}},
		{"a quarter quiet", []float64{0.04, 0.001, 0.05, 0.002, 0.06, 0, 0.08, 0.09}, 0.25, []int{1, 3, 5}},
		{"none", nil, 0.5, nil},
	} {
		got := leastStolen(c.steal, c.keep)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}
