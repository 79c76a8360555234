package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/schemaevo/schemaevo/internal/study"
)

// cold-seed: corpus seed 1 made servable again and again, each time by a
// fresh daemon that has never seen it (GET taxonomy), then awaited until
// its write-behind snapshot holds every artifact. The pipeline and
// rendering do nearly all the work.

// coldCorpusSeed is the corpus every cold-seed repetition makes servable.
// One corpus, not several: corpora differ in cost by up to 1.6 times, and
// on a shared host a run's slow spells last several seconds, so a run must
// repeat one cost for its median to stand. Seed 1's artifacts are checked
// against the golden files on every repetition.
const coldCorpusSeed = 1

// coldSeedCost is the nominal cost of one cold seed on a 2-vCPU VM. The
// number of repetitions follows from -seconds and this constant alone,
// never from measured times, so two commits always do the same work.
const coldSeedCost = 7500 * time.Millisecond

// readBackReads is how many artifact reads the post-ready check makes per
// run. Each repetition's reads give one tail (at least its 97th
// percentile); the run reports the median of those tails, so a burst of
// noise during one read-back does not set the run's figure.
const readBackReads = 1000

func runColdSeed(ctx context.Context, e *env) error {
	perSeed := coldSeedCost
	if e.cfg.Trace {
		perSeed *= 2 // the traced run also runs the library path each time
	}
	n := int(math.Round(float64(e.cfg.Seconds) / perSeed.Seconds()))
	if n < 1 {
		n = 1
	}
	if !e.cfg.Trace && n < 3 {
		n = 3 // a median that one slow repetition cannot set
	}
	seed := int64(coldCorpusSeed)

	dir := filepath.Join(e.cfg.Work, "stack")
	sys, err := e.timedSetup(func() (*system, error) {
		return startSystem(ctx, dir, e.cfg.ProxyBin)
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	before := sampleProcess(sys)
	counters := sys.counters()
	hedges0, proxied0 := proxyCounts(ctx, sys)

	var ready, steal, first, readTails, heap []float64
	for i := 0; i < n; i++ {
		op := int64(i + 1)
		if i > 0 {
			// A fresh daemon, and a store without the seed: the seed is
			// new to the stack, as the first time.
			sys.renew()
			if err := sys.seeds.Delete(ctx, seed); err != nil {
				return fmt.Errorf("drop seed %d from the store: %w", seed, err)
			}
		}
		// Start each repetition from a collected heap, as the traced run's
		// library path does, so none pays the garbage of what ran before it.
		heapBase := liveHeapMB()
		sp := e.rec.Start("seed.cold", 0, op)
		steal0 := stolen()
		start := time.Now()
		r, err := fetch(ctx, probeClient, http.MethodGet,
			fmt.Sprintf("%s/v1/seeds/%d/artifacts/taxonomy", sys.direct, seed), "", nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		e.rec.Time("serve.sync_store", sp.ID, op, func(int64) { sys.srv.SyncStore() })
		elapsed := time.Since(start)
		sp.End()
		ready = append(ready, elapsed.Seconds())
		steal = append(steal, stealShare(steal0, stolen(), elapsed))
		first = append(first, r.TTFB.Seconds())
		e.check(r.Status == http.StatusOK, "seed %d taxonomy: status %d", seed, r.Status)
		e.logf("seed %d ready in %.2f s (first byte %.2f s, %.1f%% stolen)", seed, elapsed.Seconds(), r.TTFB.Seconds(), 100*steal[i])

		snap, err := sys.seeds.Get(ctx, seed)
		if !e.check(err == nil, "seed %d: store snapshot: %v", seed, err) {
			continue
		}
		arts := snap.Artifacts
		e.check(bytes.Equal(e.body(r.Body), arts["taxonomy"]), "seed %d: served taxonomy differs from the stored one", seed)
		e.checkArtifactSet(seed, arts)
		e.checkGolden(seed, arts)
		// Read back once the daemon has settled: collect the cold run's
		// garbage first, so the reads time serving, not the run's GC debt.
		runtime.GC()
		perRun := n * max(len(arts), 1)
		passes := (readBackReads + perRun - 1) / perRun
		readTails = append(readTails, tail(e.readBack(ctx, sys, seed, arts, passes)))
		if e.cfg.Trace {
			heap = append(heap, liveHeapMB()-heapBase)
			lib, err := e.layeredSeed(ctx, op, seed, filepath.Join(e.cfg.Work, fmt.Sprintf("layered-%d", op)))
			if err != nil {
				return err
			}
			e.compareArtifacts(seed, arts, lib)
		}
	}
	after := sampleProcess(sys)

	// Every repetition has the same cost, so their median stands for the
	// run, taken over those the hypervisor disturbed least.
	kept := leastStolenOf(ready, steal)
	e.logf("latency from %d of %d repetitions", len(kept), n)
	e.set("latency_ms", median(kept)*1e3)
	e.set("gen.tail_ms", tail(ready)*1e3)
	e.set("gen.first_byte_ms", median(first)*1e3)
	e.set("gen.read_tail_ms", median(readTails))
	if err := e.ingestProbe(ctx, sys); err != nil {
		return err
	}
	if !e.cfg.Trace {
		return nil
	}
	e.set("serve.heap_mb", median(heap))

	e.setProcessRows(before, after)
	e.setServeRows(ctx, sys, counters, hedges0, proxied0)
	e.setLayerMeans(seedTopLayers, n)
	for _, k := range renderKeys() {
		e.setLayerMeans([]string{"study.render." + k}, n)
	}
	e.setLayerMeans([]string{"store.get"}, n)
	e.perOp([]string{"sqlparse.parse_s", "diff.compute_s", "sqlparse.bytes", "diff.transitions",
		"study.artifact_bytes", "store.snapshot_bytes"}, n)
	e.setRepeatFrac()
	var layers float64
	for _, l := range seedTopLayers {
		layers += e.metrics[l+"_s"]
	}
	e.set("remainder_s", mean(ready)-layers)
	e.set("anchor_s", mean(ready))
	// The seed.layered spans less the diagnostic passes inside them, timed
	// apart from the rows: the self-test checks the rows cover it.
	layered := e.rec.Total("seed.layered")
	for _, d := range seedDiagnostics {
		layered -= e.rec.Total(d)
	}
	e.set("layered_s", layered.Seconds()/float64(n))

	var paths []string
	if snap, err := sys.seeds.Get(ctx, seed); err == nil {
		for key := range snap.Artifacts {
			paths = append(paths, artifactPath(seed, key))
		}
	}
	sort.Strings(paths)
	e.probeLayers(ctx, sys, paths)
	return nil
}

// artifactPath is the /v1 route of one seed artifact key.
func artifactPath(seed int64, key string) string {
	if name, ok := strings.CutPrefix(key, figPrefix); ok {
		return fmt.Sprintf("/v1/seeds/%d/figures/%s", seed, name)
	}
	return fmt.Sprintf("/v1/seeds/%d/artifacts/%s", seed, key)
}

// checkArtifactSet checks that a snapshot holds every artifact a seed has:
// each experiment, the three exports and at least one figure.
func (e *env) checkArtifactSet(seed int64, arts map[string][]byte) {
	for _, k := range append(study.ExperimentKeys(), keyCSV, keyJSON, keyHTML) {
		e.check(len(arts[k]) > 0, "seed %d: snapshot lacks %s", seed, k)
	}
	figs := 0
	for k := range arts {
		if strings.HasPrefix(k, figPrefix) {
			figs++
		}
	}
	e.check(figs > 0, "seed %d: snapshot has no figures", seed)
}

// readBack reads every artifact of a ready seed through the proxy, passes
// times, checks each against the stored bytes, and returns the latencies
// in milliseconds.
func (e *env) readBack(ctx context.Context, sys *system, seed int64, arts map[string][]byte, passes int) []float64 {
	keys := make([]string, 0, len(arts))
	for k := range arts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lat []float64
	for p := 0; p < passes; p++ {
		for _, k := range keys {
			r, err := fetch(ctx, loadClient, http.MethodGet, sys.proxy+artifactPath(seed, k), "", nil)
			ok := err == nil && r.Status == http.StatusOK && bytes.Equal(e.body(r.Body), arts[k])
			e.check(ok, "seed %d read-back %s: status %d err %v", seed, k, r.Status, err)
			lat = append(lat, float64(r.Total.Nanoseconds())/1e6)
		}
	}
	return lat
}

// checkGolden compares seed 1's experiment artifacts with the golden files
// of cmd/studyrun; other seeds have none.
func (e *env) checkGolden(seed int64, arts map[string][]byte) {
	if seed != 1 {
		return
	}
	for _, k := range study.ExperimentKeys() {
		want, err := os.ReadFile(filepath.Join(e.cfg.Root, "cmd", "studyrun", "testdata", "golden", k+".txt"))
		if err != nil {
			e.check(false, "golden %s: %v", k, err)
			continue
		}
		e.check(bytes.Equal(arts[k], want), "seed 1 %s differs from its golden file", k)
	}
}

// compareArtifacts checks the served (stored) artifact set against the
// library path's render.
func (e *env) compareArtifacts(seed int64, served, lib map[string][]byte) {
	e.check(len(served) == len(lib), "seed %d: %d served artifacts, %d from the library", seed, len(served), len(lib))
	for k, b := range lib {
		e.check(bytes.Equal(served[k], b), "seed %d: served %s differs from the library render", seed, k)
	}
}

// perOp divides accumulated counters by the number of operations.
func (e *env) perOp(names []string, ops int) {
	for _, n := range names {
		e.set(n, e.metrics[n]/float64(ops))
	}
}

// setRepeatFrac turns the statement counters into sqlparse.repeat_stmt_frac.
func (e *env) setRepeatFrac() {
	if t := e.metrics["sqlparse.statements"]; t > 0 {
		e.set("sqlparse.repeat_stmt_frac", e.metrics["sqlparse.repeated"]/t)
	}
}
