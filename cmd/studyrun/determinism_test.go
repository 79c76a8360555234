package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/schemaevo/schemaevo/internal/study"
)

// TestDeterminismAcrossWorkerCounts is the parallel pipeline's contract
// test: the worker pool must never change a single output byte. The full
// study runs at workers=1, workers=4 and workers=GOMAXPROCS for seeds
// 1–3, and every rendered artifact — the 22 experiment texts, the CSV and
// JSON exports, the HTML report and the SVG figures, keyed the way the
// daemon's snapshots key them — must be byte-identical across the three
// pools. For seed 1 the artifacts are additionally pinned against the
// golden fixtures and the sha256 manifest of the whole set, so the
// sequential baseline itself cannot drift behind the cross-worker
// comparison's back.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full pipeline runs")
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	goldenDir := filepath.Join("testdata", "golden")

	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// reference holds the artifacts of the first worker count;
			// every later pool must reproduce them byte for byte.
			var reference map[string][]byte
			var refWorkers int
			ran := map[int]bool{}
			for _, w := range workerCounts {
				if ran[w] {
					continue // e.g. GOMAXPROCS == 1 or == 4
				}
				ran[w] = true
				got := runArtifacts(t, seed, w)
				if reference == nil {
					reference, refWorkers = got, w
					continue
				}
				if len(got) != len(reference) {
					t.Errorf("seed %d: %d artifacts at workers=%d, %d at workers=%d",
						seed, len(reference), refWorkers, len(got), w)
				}
				for key, want := range reference {
					if string(got[key]) != string(want) {
						t.Errorf("seed %d: artifact %s differs between workers=%d and workers=%d\n%s",
							seed, key, refWorkers, w, firstDiff(string(want), string(got[key])))
					}
				}
			}
			if seed != 1 {
				return
			}
			for _, key := range study.ExperimentKeys() {
				want, err := os.ReadFile(filepath.Join(goldenDir, key+".txt"))
				if err != nil {
					t.Fatalf("golden fixture missing: %v", err)
				}
				if string(reference[key]) != string(want) {
					t.Errorf("seed 1: artifact %s drifted from golden fixture\n%s",
						key, firstDiff(string(want), string(reference[key])))
				}
			}
			checkManifest(t, filepath.Join(goldenDir, manifestFile), reference)
		})
	}
}

// manifestFile pins the sha256 of every seed-1 artifact, one
// "<hex>  <key>" line per artifact, sorted by key.
const manifestFile = "artifacts.sha256"

// checkManifest compares an artifact set against a sha256 manifest: the
// same keys, and every artifact hashing to its pinned digest.
func checkManifest(t *testing.T, path string, arts map[string][]byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact manifest missing: %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[key] = sum
	}
	for key, sum := range want {
		b, ok := arts[key]
		if !ok {
			t.Errorf("artifact %s pinned in %s but not rendered", key, path)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sum {
			t.Errorf("artifact %s hashes to %s, manifest pins %s", key, got, sum)
		}
	}
	for key := range arts {
		if _, ok := want[key]; !ok {
			t.Errorf("artifact %s rendered but not pinned in %s", key, path)
		}
	}
}

// runArtifacts executes the CLI end to end (exercising the -workers flag)
// and returns every rendered artifact: experiment texts under their keys,
// the exports and the report under their file names, and the SVG figures
// under "figures/<name>".
func runArtifacts(t *testing.T, seed, workers int) map[string][]byte {
	t.Helper()
	outDir := t.TempDir()
	exports := []string{"export.csv", "export.json", "report.html"}
	var stdout, stderr strings.Builder
	args := []string{"-seed", fmt.Sprint(seed), "-workers", fmt.Sprint(workers),
		"-out", filepath.Join(outDir, "experiments"),
		"-csv", filepath.Join(outDir, exports[0]),
		"-json", filepath.Join(outDir, exports[1]),
		"-html", filepath.Join(outDir, exports[2]),
		"-svg", filepath.Join(outDir, "figures")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("studyrun %v exited %d: %s", args, code, stderr.String())
	}
	read := func(key, path string, out map[string][]byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %d workers %d: artifact missing: %v", seed, workers, err)
		}
		out[key] = data
	}
	out := map[string][]byte{}
	for _, key := range study.ExperimentKeys() {
		read(key, filepath.Join(outDir, "experiments", key+".txt"), out)
	}
	for _, name := range exports {
		read(name, filepath.Join(outDir, name), out)
	}
	figs, err := os.ReadDir(filepath.Join(outDir, "figures"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		read("figures/"+f.Name(), filepath.Join(outDir, "figures", f.Name()), out)
	}
	return out
}
