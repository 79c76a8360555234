package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/schemaevo/schemaevo/internal/serve"
)

// probePasses is how many times probeLayers replays its paths.
const probePasses = 3

// probeLayers replays paths, interleaved, three ways: through the daemon's
// handler with no network (serve.handler_us), straight to the daemon over
// loopback (serve.direct_us), and through the proxy (proxy.hop_us is the
// proxied time minus the direct one). Each path is served once untimed
// first, so every variant times a memo hit. It also replays the handler
// with and without a span around each call; the difference is the span
// recorder's cost on the finest spans a run records (trace_overhead_frac).
func (e *env) probeLayers(ctx context.Context, sys *system, paths []string) {
	var handler, direct, proxied []float64
	var plain, traced time.Duration
	serveOnce := func(p string) time.Duration {
		start := time.Now()
		sys.srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, p, nil).WithContext(ctx))
		return time.Since(start)
	}
	for pass := 0; pass < probePasses; pass++ {
		for i, p := range paths {
			serveOnce(p) // load the artifact into the memo first, untimed
			// Alternate which variant goes first so warm-up favours neither.
			spanned := func() time.Duration {
				start := time.Now()
				sp := e.rec.Start("probe.handler", 0, 0)
				serveOnce(p)
				sp.End()
				return time.Since(start)
			}
			if (i+pass)%2 == 0 {
				d := serveOnce(p)
				plain += d
				traced += spanned()
				handler = append(handler, float64(d.Nanoseconds())/1e3)
			} else {
				traced += spanned()
				d := serveOnce(p)
				plain += d
				handler = append(handler, float64(d.Nanoseconds())/1e3)
			}
			if r, err := fetch(ctx, probeClient, http.MethodGet, sys.direct+p, "", nil); err == nil {
				direct = append(direct, float64(r.Total.Nanoseconds())/1e3)
			}
			if r, err := fetch(ctx, probeClient, http.MethodGet, sys.proxy+p, "", nil); err == nil {
				proxied = append(proxied, float64(r.Total.Nanoseconds())/1e3)
			}
		}
	}
	e.set("serve.handler_us", median(handler))
	e.set("serve.direct_us", median(direct))
	e.set("proxy.hop_us", median(proxied)-median(direct))
	if plain > 0 {
		e.set("trace_overhead_frac", float64(traced-plain)/float64(plain))
	}
}

// proxyCounts reads the proxy's hedge and request counters.
func proxyCounts(ctx context.Context, sys *system) (hedges, requests float64) {
	hedges, _ = sys.proxyCounter(ctx, "schemaevo_proxy_hedges_total")
	requests, _ = sys.proxyCounter(ctx, "schemaevo_proxy_requests_total")
	return hedges, requests
}

// setServeRows reports the daemon's and proxy's counter rows for the
// window since before, hedges0 and proxied0 were read.
func (e *env) setServeRows(ctx context.Context, sys *system, before serve.Snapshot, hedges0, proxied0 float64) {
	after := sys.counters()
	lookups := after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses
	if lookups > 0 {
		e.set("serve.memo_hit_frac", float64(after.MemoHits-before.MemoHits)/float64(lookups))
	}
	e.set("serve.pipeline_runs", float64(after.PipelineRuns-before.PipelineRuns))
	if accepted := after.IngestAccepted - before.IngestAccepted; accepted > 0 {
		e.set("serve.ingest_dedup_frac", float64(after.IngestDedupHits-before.IngestDedupHits)/float64(accepted))
	}
	hedges, proxied := proxyCounts(ctx, sys)
	if n := proxied - proxied0; n > 0 {
		e.set("proxy.hedge_frac", (hedges-hedges0)/n)
	}
}
