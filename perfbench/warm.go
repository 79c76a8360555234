package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/study"
)

// warm-read: an open loop of Poisson GETs through the proxy over seeds
// made servable during set-up — every artifact, the figures and the seed
// summaries, in a skewed mix. Serving does all the work; the pipeline none.

const (
	warmSeedCount = 2
	// warmBaseRate is the fixed offered rate of the measured window, well
	// below the stack's capacity on a 2-core box. Like the Zipf skew, it is
	// an assumption, not taken from recorded traffic.
	warmBaseRate = 250.0
	// readLimit is the latency past which a read counts as failed.
	readLimit = time.Second
	// ladderLimit is the p99 a ladder step must meet to count as sustained.
	ladderLimit = 50 * time.Millisecond
	// ladderStep is how long each ladder rate is offered.
	ladderStep = 1500 * time.Millisecond
	// zipfS skews the mix: a few artifacts take most of the reads.
	zipfS = 1.1
	// tailSlice is the slice length of the read tail: the reported tail is
	// the median of the slices' tails.
	tailSlice = 5 * time.Second
	// stealSlice is the slice length over which steal is read; latency_ms
	// is the median read of the stealKeep share of slices leastStolen
	// keeps. In the noisiest runs the median slice lost 10–15%, so the
	// least-stolen half would still hold disturbed slices.
	stealSlice = time.Second
	stealKeep  = 0.25
)

func warmSeeds(workloadSeed int64) []int64 {
	rng := rand.New(rand.NewSource(workloadSeed))
	var out []int64
	for len(out) < warmSeedCount {
		s := 1 + rng.Int63n(1_000_000)
		if len(out) == 0 || out[0] != s {
			out = append(out, s)
		}
	}
	return out
}

func runWarmRead(ctx context.Context, e *env) error {
	seeds := warmSeeds(e.cfg.Seed)
	dir := filepath.Join(e.cfg.Work, "stack")
	ref, err := populate(ctx, e, dir, seeds)
	if err != nil {
		return err
	}
	e.logf("populated seeds %v", seeds)
	paths := warmPaths(ref, seeds)
	if len(paths) != len(ref) {
		return fmt.Errorf("ranked %d of %d warm paths", len(paths), len(ref))
	}

	heapBase := liveHeapMB()
	sys, err := e.timedSetup(func() (*system, error) {
		s, err := startSystem(ctx, dir, e.cfg.ProxyBin)
		if err != nil {
			return nil, err
		}
		if err := s.srv.Prewarm(ctx, seeds); err != nil {
			s.Close()
			return nil, err
		}
		// Ready means every path answers through the proxy with the bytes
		// the populating generation served.
		for _, p := range paths {
			r, err := fetch(ctx, probeClient, http.MethodGet, s.proxy+p, "", nil)
			e.check(err == nil && r.Status == http.StatusOK && sha256.Sum256(e.body(r.Body)) == ref[p],
				"setup read %s: status %d err %v", p, r.Status, err)
		}
		e.checkNoPipelineRuns(s)
		return s, nil
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(e.cfg.Seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(paths)-1))
	pick := func() string { return paths[zipf.Uint64()] }

	before := sampleProcess(sys)
	counters := sys.counters()
	hedges0, proxied0 := proxyCounts(ctx, sys)

	window := time.Duration(e.cfg.Seconds) * time.Second
	if e.cfg.Trace {
		window /= 2 // the other half runs the ladder
	}
	due := arrivals(rng, warmBaseRate, window)
	targets := make([]string, len(due))
	for i := range targets {
		targets[i] = pick()
	}
	ttfb := make([]float64, len(due))
	stopSteal := trackSteal(stealSlice)
	outs := openLoop(ctx, due, nproc, func(i int) bool {
		var sp span
		if e.rec != nil {
			sp = e.rec.Start("read", 0, int64(i+1))
		}
		r, err := fetch(ctx, loadClient, http.MethodGet, sys.proxy+targets[i], "", nil)
		sp.End()
		ttfb[i] = float64(r.TTFB.Nanoseconds()) / 1e6
		return err == nil && r.Status == http.StatusOK && sha256.Sum256(e.body(r.Body)) == ref[targets[i]]
	})
	// Reads are due only within the window; drop the slices after it.
	steal := stopSteal()
	steal = steal[:min(len(steal), int((window+stealSlice-1)/stealSlice))]
	if err := ctx.Err(); err != nil {
		return err
	}
	e.logf("read window done: %d requests", len(outs))
	lat := latenciesMS(outs)
	for i, o := range outs {
		e.check(o.OK && o.Latency() <= readLimit, "read %s: ok=%v latency %v", targets[i], o.OK, o.Latency())
	}
	sliced, tails := slicedTailMS(outs, tailSlice)
	e.logf("read tail per %v slice: %.2f ms", tailSlice, tails)
	// The median read of the seconds the hypervisor disturbed least. A
	// quarter of them still holds some 2500 reads.
	kept := leastStolen(steal, stealKeep)
	e.set("latency_ms", median(keptLatenciesMS(outs, stealSlice, kept)))
	e.logf("latency %.3f ms from %d of %d %v slices (all slices: %.3f ms; stolen per slice: median %.1f%%, max %.1f%%)",
		e.metrics["latency_ms"], len(kept), len(steal), stealSlice, median(lat), 100*median(steal), 100*quantile(steal, 1))
	e.set("gen.tail_ms", sliced)
	e.set("gen.read_tail_ms", sliced)
	e.set("gen.first_byte_ms", median(ttfb))
	late := generatorLateMS(outs)
	meanLatency := mean(lat) / 1e3
	outs, ttfb, targets, due, lat = nil, nil, nil, nil, nil
	if !e.cfg.Trace {
		e.checkNoPipelineRuns(sys)
		return nil
	}
	e.set("serve.heap_mb", (liveHeapMB()-heapBase)/float64(len(seeds)))

	e.set("gen.max_rps", e.ladder(ctx, sys, rng, pick, ref))
	after := sampleProcess(sys)
	e.setProcessRows(before, after)
	e.setServeRows(ctx, sys, counters, hedges0, proxied0)
	e.set("gen.late_p99_ms", tail(late))
	for _, s := range seeds {
		e.rec.Time("store.get", 0, 0, func(int64) { _, err = sys.seeds.Get(ctx, s) })
		e.check(err == nil, "store.get seed %d: %v", s, err)
	}
	e.setLayerMeans([]string{"store.get"}, len(seeds))
	e.probeLayers(ctx, sys, paths)
	e.set("anchor_s", meanLatency)
	e.set("remainder_s", meanLatency-(e.metrics["serve.direct_us"]+e.metrics["proxy.hop_us"])/1e6)
	e.checkNoPipelineRuns(sys)
	return nil
}

// checkNoPipelineRuns checks that a daemon generation never ran the
// pipeline. Every set-up generation is checked once it is ready, and the
// serving one again at the end of the run, after the window, the ladder and
// the probes. A stack that recomputed the seeds would serve the same bytes
// but no longer measure warm reads. It also sets serve.pipeline_runs to the
// generation's count.
func (e *env) checkNoPipelineRuns(sys *system) {
	runs := sys.counters().PipelineRuns
	e.check(runs == 0, "warm-read: the daemon ran the pipeline %d times", runs)
	e.set("serve.pipeline_runs", float64(runs))
}

// warmPaths ranks the warm paths for the Zipf draw by an assumed browsing
// order (no recorded traffic stands behind it), the same in every run: the
// seed summaries first, then the reports, the exports, the experiments in
// registry order and the figures by name, each rank interleaving the seeds.
// The mix of small and large artifacts therefore does not change with the
// workload seed. The report, ten times the size of any other artifact,
// takes about one read in nine, which also puts the read tail (an unbounded
// per-layer row) inside its latencies.
func warmPaths(ref map[string][sha256.Size]byte, seeds []int64) []string {
	var figs []string
	prefix := fmt.Sprintf("/v1/seeds/%d/figures/", seeds[0])
	for p := range ref {
		if name, ok := strings.CutPrefix(p, prefix); ok {
			figs = append(figs, name)
		}
	}
	sort.Strings(figs)
	routes := []string{""} // the summary
	for _, k := range append([]string{keyHTML, keyCSV, keyJSON}, study.ExperimentKeys()...) {
		routes = append(routes, "/artifacts/"+k)
	}
	for _, f := range figs {
		routes = append(routes, "/figures/"+f)
	}
	var ranked []string
	for _, r := range routes {
		for _, s := range seeds {
			if p := fmt.Sprintf("/v1/seeds/%d%s", s, r); ref[p] != [sha256.Size]byte{} {
				ranked = append(ranked, p)
			}
		}
	}
	return ranked
}

// populate makes the seeds servable in a first generation of the stack —
// cold pipeline runs whose write-behind persists every artifact — and
// returns the hash of every warm path as that generation serves it.
func populate(ctx context.Context, e *env, dir string, seeds []int64) (map[string][sha256.Size]byte, error) {
	sys, err := startSystem(ctx, dir, e.cfg.ProxyBin)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			r, err := fetch(ctx, probeClient, http.MethodGet, fmt.Sprintf("%s/v1/seeds/%d/artifacts/taxonomy", sys.direct, s), "", nil)
			if err == nil && r.Status != http.StatusOK {
				err = fmt.Errorf("status %d", r.Status)
			}
			errs[i] = err
		}(i, s)
	}
	wg.Wait()
	sys.srv.SyncStore()
	ref := map[string][sha256.Size]byte{}
	for i, s := range seeds {
		if errs[i] != nil {
			return nil, fmt.Errorf("populate seed %d: %w", s, errs[i])
		}
		snap, err := sys.seeds.Get(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("populate seed %d: %w", s, err)
		}
		e.checkArtifactSet(s, snap.Artifacts)
		paths := []string{fmt.Sprintf("/v1/seeds/%d", s)}
		for k := range snap.Artifacts {
			paths = append(paths, artifactPath(s, k))
		}
		for _, p := range paths {
			r, err := fetch(ctx, probeClient, http.MethodGet, sys.direct+p, "", nil)
			if err != nil || r.Status != http.StatusOK {
				return nil, fmt.Errorf("populate read %s: status %d err %v", p, r.Status, err)
			}
			ref[p] = sha256.Sum256(r.Body)
		}
	}
	return ref, nil
}

// ladder offers the read mix at rising rates, doubling from twice the base
// rate until a step fails and then bisecting, and returns the highest rate
// that met ladderLimit at the 99th percentile without a growing backlog.
func (e *env) ladder(ctx context.Context, sys *system, rng *rand.Rand, pick func() string, ref map[string][sha256.Size]byte) float64 {
	lo, hi := warmBaseRate, 0.0
	rate := 2 * warmBaseRate
	budget := time.Now().Add(time.Duration(e.cfg.Seconds) * time.Second / 2)
	for time.Now().Before(budget) && ctx.Err() == nil {
		due := arrivals(rng, rate, ladderStep)
		targets := make([]string, len(due))
		for i := range targets {
			targets[i] = pick()
		}
		outs := openLoop(ctx, due, nproc, func(i int) bool {
			r, err := fetch(ctx, loadClient, http.MethodGet, sys.proxy+targets[i], "", nil)
			return err == nil && r.Status == http.StatusOK && sha256.Sum256(e.body(r.Body)) == ref[targets[i]]
		})
		// Past capacity latencies exceed any limit by design; only wrong
		// answers count as failures here.
		pass := len(outs) > 0
		for i, o := range outs {
			pass = e.check(o.OK, "ladder read %s at %.0f/s", targets[i], rate) && pass
		}
		lat := latenciesMS(outs)
		if quantile(lat, 0.99) > float64(ladderLimit.Milliseconds()) || backlogGrew(outs) {
			pass = false
		}
		if pass {
			lo = rate
		} else {
			hi = rate
		}
		if hi == 0 {
			rate *= 2
		} else {
			if hi/lo < 1.1 {
				break
			}
			rate = math.Sqrt(lo * hi)
		}
	}
	return lo
}

// backlogGrew reports whether operations at the end of a step waited in
// the queue much longer than those at its start.
func backlogGrew(outs []outcome) bool {
	n := len(outs) / 10
	if n == 0 {
		return false
	}
	wait := func(os []outcome) float64 {
		var xs []float64
		for _, o := range os {
			xs = append(xs, float64((o.Start-o.Due).Nanoseconds())/1e6)
		}
		return median(xs)
	}
	return wait(outs[len(outs)-n:])-wait(outs[:n]) > float64(ladderLimit.Milliseconds())/2
}
