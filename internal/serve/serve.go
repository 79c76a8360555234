// Package serve is the HTTP layer of schemaevod: it exposes the full study
// pipeline as a versioned /v1 API backed by a bounded LRU cache of completed
// studies, a per-(seed, artifact) render memo, singleflight deduplication,
// and an optional persistent snapshot store — so any number of concurrent
// requests for one seed trigger exactly one pipeline run, and a restarted
// daemon serves previously-seen seeds without any run at all. The package
// also carries the daemon's observability surface (/v1/healthz, /v1/metrics)
// and the graceful-shutdown loop. Pure stdlib.
//
// # API versioning
//
// The canonical surface lives under /v1, a unified resource model with two
// resource collections — the built-in corpus seeds and user-ingested DDL
// histories — sharing one route shape:
//
//	POST /v1/histories                          ingest a DDL history upload
//	GET  /v1/{seeds|histories}                  list (?limit=&cursor= paginates)
//	GET  /v1/{seeds|histories}/{id}             one resource's summary
//	GET  /v1/{seeds|histories}/{id}/artifacts/{key}  one rendered artifact
//	GET  /v1/{seeds|histories}/{id}/events      SSE live stage progress
//	GET  /v1/seeds/{id}/figures/{name}          one SVG figure (seeds only)
//	GET  /v1/experiments                        experiment key list
//	GET  /v1/healthz                            readiness + cache digest + shard identity
//	GET  /v1/metrics                            Prometheus text exposition
//	GET  /v1/debug/trace                        instrumented pipeline run
//	GET  /v1/debug/stats                        latency/stage histogram join
//	GET  /v1/debug/events                       SSE firehose of all span events
//
// Errors on /v1 routes use a uniform JSON envelope {error, code, resource,
// id}; seed routes additionally keep the pre-redesign seed field. The
// original flat routes (/healthz, /metrics, /debug/trace,
// /v1/study/{seed}/...) remain as deprecated aliases: same behaviour and
// plain-text errors, plus a Deprecation header and a hit counter
// (schemaevod_legacy_requests_total).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/schemaevo/schemaevo/internal/ingest"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// Options configures a Server. The zero value serves with sensible
// defaults: an 8-study cache, a 60-second request deadline, the real
// pipeline as runner, and no persistence.
type Options struct {
	// CacheSize bounds the number of seeds kept in memory — live studies and
	// store-restored snapshots alike (default 8; a full entry is a few MB).
	CacheSize int
	// Timeout is the per-request deadline. Requests that exceed it get 504,
	// but an underlying pipeline run keeps going and still fills the cache.
	Timeout time.Duration
	// Runner executes the pipeline for one seed (default: the real
	// pipeline, study.NewContext). The context carries the server's obs
	// tracer, so pipeline stages feed the schemaevo_stage_* metric families.
	// Tests substitute fakes; wrap a plain function with RunnerFunc.
	Runner Runner
	// Store persists completed studies as snapshots (nil = memory only).
	// It sits under the LRU as a read-through / write-behind tier: misses
	// consult it before running the pipeline, completed runs are snapshotted
	// asynchronously, and a restarted daemon serves every stored seed
	// without a single run.
	Store store.Store
	// GC bounds the persistent store's retention (snapshot count and age).
	// It is applied by RunStoreGC and by the periodic background sweep, and
	// only has effect when Store implements store.Lifecycler (the Disk
	// backend does).
	GC store.GCPolicy
	// GCInterval is the cadence of the background retention sweep started by
	// the serving loop; each tick is jittered by up to +10% so a fleet
	// sharing a store directory doesn't sweep in lockstep. 0 disables the
	// background sweep (RunStoreGC can still be called explicitly).
	GCInterval time.Duration
	// PrewarmWorkers bounds the parallel Prewarm worker pool
	// (default GOMAXPROCS/2, minimum 1).
	PrewarmWorkers int
	// PipelineWorkers bounds the per-study worker pool inside the default
	// pipeline Runner (0 = GOMAXPROCS). Deterministic: any value yields
	// byte-identical artifacts. Ignored when a custom Runner is supplied.
	PipelineWorkers int
	// EventBuffer bounds each SSE subscriber's event ring (the span event
	// stream behind /v1/seeds/{seed}/events and /v1/debug/events). A slow
	// consumer loses its oldest buffered events, never the publisher's time
	// (0 = obs.DefaultEventBuffer).
	EventBuffer int
	// HistoryStore persists ingested-history results, keyed by the 64-bit
	// truncation of the history's content address (nil = memory only). It
	// must be a separate namespace from Store — the daemon opens it under
	// <store-dir>/histories — because seed numbers and truncated hashes
	// share the int64 key space.
	HistoryStore store.Store
	// MaxUploadBytes bounds a POST /v1/histories request body; beyond it the
	// upload is rejected with 413 (default 8 MiB, negative = that default).
	MaxUploadBytes int64
	// TraceMaxSpans head-samples the collecting tracer behind /v1/debug/trace:
	// at most this many spans are retained per trace, keeping the response
	// bounded under deep proxy→backend span trees (0 = DefaultTraceMaxSpans;
	// negative = unlimited). Dropped spans count into
	// schemaevo_trace_dropped_spans_total.
	TraceMaxSpans int
	// Logger receives the daemon's structured log lines (nil = silent).
	// Pipeline runs log with the seed as correlation key.
	Logger *slog.Logger
}

// Server serves cached studies over HTTP. Create with New; the type is an
// http.Handler.
type Server struct {
	opts    Options
	cache   *resourceCache[*study.Study] // seed-keyed studies
	flight  *flightGroup                 // one pipeline run per seed
	loads   *flightGroup                 // one store restore per seed
	metrics *Metrics
	tracer  *obs.Tracer // metrics-only: feeds stage histograms, retains no spans
	bus     *obs.Bus    // live span events for the SSE endpoints
	mux     *http.ServeMux

	// The ingested-history namespace mirrors the seed machinery 1:1, keyed
	// by the 64-bit truncation of the history's content address: its own
	// LRU, ingest singleflight, restore singleflight, and id registry (the
	// truncated key → full hex identity map behind listings and snapshot
	// verification).
	histories    *resourceCache[*ingest.Result]
	ingestFlight *flightGroup
	historyLoads *flightGroup
	idMu         sync.Mutex
	historyIDs   map[int64]string

	persistMu      sync.Mutex
	persisting     map[int64]bool
	persistingHist map[int64]bool
	persistWG      sync.WaitGroup

	// gcWG tracks the background retention loops StartGC launched.
	gcWG sync.WaitGroup

	// render produces a study's complete artifact set for the write-behind.
	// It is renderAll in production; tests substitute a stub so persistence
	// mechanics can be exercised without paying for real renders.
	render func(ctx context.Context, st *study.Study) (map[string][]byte, error)
}

// deprecationDate is the RFC 9745 Deprecation value sent on legacy routes.
var deprecationDate = "@1767225600" // 2026-01-01T00:00:00Z

// New builds a Server from opts.
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	if opts.Runner == nil {
		opts.Runner = pipelineRunner{workers: opts.PipelineWorkers}
	}
	if opts.TraceMaxSpans == 0 {
		opts.TraceMaxSpans = DefaultTraceMaxSpans
	} else if opts.TraceMaxSpans < 0 {
		opts.TraceMaxSpans = 0 // obs: 0 = unlimited
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUploadBytes
	}
	s := &Server{
		opts:           opts,
		metrics:        NewMetrics(),
		flight:         newFlightGroup(),
		loads:          newFlightGroup(),
		ingestFlight:   newFlightGroup(),
		historyLoads:   newFlightGroup(),
		historyIDs:     map[int64]string{},
		persisting:     map[int64]bool{},
		persistingHist: map[int64]bool{},
		render:         renderAll,
	}
	s.cache = newStudyCache(opts.CacheSize, s.metrics)
	s.histories = newHistoryCache(opts.CacheSize, s.metrics)
	s.bus = obs.NewBus()
	// The shared tracer covers render-time spans (experiment.<key>); its
	// events are unkeyed (seed 0) and reach only the firehose. Pipeline runs
	// get per-run tracers with the seed stamped on — see getStudy.
	s.tracer = obs.NewTracer(obs.Options{Stages: s.metrics.stages, Logger: opts.Logger, Bus: s.bus})

	mux := http.NewServeMux()
	// Canonical /v1 surface: two instances of the unified resource model,
	// sharing the JSON error envelope.
	mountResource(mux, resourceRoutes{
		plural:   "seeds",
		list:     s.handleSeeds,
		get:      s.handleSeedResource,
		artifact: s.handleArtifact(true),
		events:   s.handleSeedEvents,
	})
	mountResource(mux, resourceRoutes{
		plural:   "histories",
		create:   s.handleIngest,
		list:     s.handleHistories,
		get:      s.handleHistoryResource,
		artifact: s.handleHistoryArtifact,
		events:   s.handleHistoryEvents,
	})
	mux.HandleFunc("GET /v1/seeds/{id}/figures/{name}", s.handleFigure(true))
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Deprecated flat aliases: original behaviour, plain-text errors.
	mux.HandleFunc("GET /v1/study/{seed}/{key}", s.legacy("/v1/seeds/{seed}/artifacts/{key}", s.handleArtifact(false)))
	mux.HandleFunc("GET /v1/study/{seed}/figures/{name}", s.legacy("/v1/seeds/{seed}/figures/{name}", s.handleFigure(false)))
	mux.HandleFunc("GET /healthz", s.legacy("/v1/healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.legacy("/v1/metrics", s.handleMetrics))
	registerDebug(mux, s)
	s.mux = mux
	return s
}

// Metrics exposes the server's counters, mainly for tests and prewarm
// reporting.
func (s *Server) Metrics() *Metrics { return s.metrics }

// legacy wraps a deprecated flat route: hits are counted and the response
// advertises the successor under /v1 (RFC 9745 Deprecation header).
func (s *Server) legacy(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.legacyRequests.Add(1)
		w.Header().Set("Deprecation", deprecationDate)
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// statusRecorder captures the response code for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the SSE endpoints can stream
// through the recorder.
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// ServeHTTP counts the request, tracks the in-flight gauge, and applies the
// per-request deadline before dispatching to the route table. The SSE event
// streams are exempt from the deadline: they live exactly as long as the
// watched run (seed streams) or the client's interest (the firehose).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	ctx := r.Context()
	if !isEventStreamPath(r.URL.Path) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.Timeout)
		defer cancel()
	}

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
	if rec.status >= 400 {
		s.metrics.errors.Add(1)
	}
}

// getStudy resolves one seed to a live study: cache hit, join of an
// in-flight run, or a fresh pipeline execution. The context only bounds this
// caller's wait — a pipeline run that loses its caller still completes,
// fills the cache, and schedules its snapshot save.
func (s *Server) getStudy(ctx context.Context, seed int64) (*study.Study, error) {
	if st, ok := s.cache.Get(seed); ok {
		s.metrics.cacheHits.Add(1)
		return st, nil
	}
	s.metrics.cacheMisses.Add(1)
	ch := s.flight.DoChan(seed, func() (any, error) {
		// Re-check under the flight: a run that completed between this
		// caller's cache miss and its flight creation has already filled the
		// cache, and must not trigger a second pipeline execution.
		if st, ok := s.cache.Get(seed); ok {
			return st, nil
		}
		s.metrics.pipelineRuns.Add(1)
		s.metrics.pipelineInflight.Add(1)
		defer s.metrics.pipelineInflight.Add(-1)
		// The run is deliberately detached from the request context: a caller
		// that times out must not cancel the pipeline, whose result still
		// fills the cache. A per-run tracer feeds the shared stage registry
		// like before and additionally stamps the seed on every live event,
		// so SSE watchers of this seed see the run's stages as they happen.
		runTracer := obs.NewTracer(obs.Options{
			Stages: s.metrics.stages, Logger: s.opts.Logger, Bus: s.bus, Seed: seed,
		})
		runCtx := obs.WithTracer(context.Background(), runTracer)
		runCtx = obs.WithLogger(runCtx, s.opts.Logger)
		st, err := s.opts.Runner.Run(runCtx, seed)
		if err != nil {
			return nil, err
		}
		s.cache.Put(seed, st)
		s.schedulePersist(seed, st)
		return st, nil
	})
	select {
	case <-ctx.Done():
		s.metrics.timeouts.Add(1)
		if s.flight.Inflight(seed) {
			// The waiter gives up but the run keeps going: an orphaned run.
			s.metrics.orphanedRuns.Add(1)
			s.opts.Logger.Warn("request abandoned in-flight pipeline run", "seed", seed)
		}
		return nil, ctx.Err()
	case res := <-ch:
		if res.Shared {
			s.metrics.flightJoins.Add(1)
		}
		if res.Err != nil {
			return nil, res.Err
		}
		return res.Val.(*study.Study), nil
	}
}

// ensureSeed makes a seed servable warm: already cached, restored from the
// store, or — as the last resort — computed by the pipeline.
func (s *Server) ensureSeed(ctx context.Context, seed int64) error {
	if s.cache.Has(seed) {
		return nil
	}
	s.restoreSnapshot(ctx, seed)
	if s.cache.Has(seed) {
		return nil
	}
	_, err := s.getStudy(ctx, seed)
	return err
}

// Prewarm makes the given seeds servable ahead of traffic using a bounded
// parallel worker pool (the study.MultiSeed semaphore pattern). Seeds
// present in the store are restored without a pipeline run; the rest run
// concurrently, deduplicated like any other lookup. Prewarm returns once
// every seed is warm and every snapshot save has reached the store.
func (s *Server) Prewarm(ctx context.Context, seeds []int64) error {
	workers := s.opts.PrewarmWorkers
	if workers <= 0 {
		workers = maxInt(1, runtime.GOMAXPROCS(0)/2)
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			if err := s.ensureSeed(ctx, seed); err != nil {
				errs[i] = fmt.Errorf("serve: prewarm seed %d: %w", seed, err)
				return
			}
			s.opts.Logger.Info("prewarmed", "seed", seed,
				"took", time.Since(start).Round(time.Millisecond))
		}(i, seed)
	}
	wg.Wait()
	s.SyncStore() // prewarmed seeds are durable once Prewarm returns
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parseSeed reads the seed from the path: {id} on the unified resource
// routes, {seed} on the legacy aliases.
func parseSeed(r *http.Request) (int64, error) {
	raw := r.PathValue("id")
	if raw == "" {
		raw = r.PathValue("seed")
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("seed must be an integer, got %q", raw)
	}
	return seed, nil
}

// respondError writes one error either as the /v1 JSON envelope or in the
// legacy plain-text form, depending on the route generation. A non-zero
// seed stamps the resource-model fields alongside the legacy seed field.
func respondError(w http.ResponseWriter, jsonErr bool, code int, msg string, seed int64) {
	if !jsonErr {
		http.Error(w, msg, code)
		return
	}
	env := errEnvelope{Error: msg, Code: code, Seed: seed}
	if seed != 0 {
		env.Resource = "seed"
		env.ID = strconv.FormatInt(seed, 10)
	}
	writeEnvelope(w, env)
}

// failErr maps a resolution error to the right status for either route
// generation.
func failErr(w http.ResponseWriter, jsonErr bool, seed int64, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		respondError(w, jsonErr, http.StatusGatewayTimeout,
			"study run exceeded the request deadline; retry — the run continues and will be cached", seed)
	case errors.Is(err, context.Canceled):
		respondError(w, jsonErr, 499, "request canceled", seed) // nginx-style client-closed-request
	default:
		respondError(w, jsonErr, http.StatusInternalServerError, err.Error(), seed)
	}
}

// handleArtifact serves one whole-study artifact — the three exports or any
// experiment key — on both route generations.
func (s *Server) handleArtifact(jsonErr bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !knownArtifact(key) {
			respondError(w, jsonErr, http.StatusNotFound,
				fmt.Sprintf("unknown artifact %q; experiment keys are listed at /v1/experiments", key), 0)
			return
		}
		seed, err := parseSeed(r)
		if err != nil {
			respondError(w, jsonErr, http.StatusBadRequest, err.Error(), 0)
			return
		}
		start := time.Now()
		if streamableArtifact(key) {
			s.serveStreamedArtifact(r.Context(), w, jsonErr, seed, key)
			s.metrics.ObserveLatency(key, time.Since(start))
			return
		}
		b, err := s.artifactBytes(r.Context(), seed, key)
		if err != nil {
			failErr(w, jsonErr, seed, err)
			return
		}
		w.Header().Set("Content-Type", contentTypeFor(key))
		w.Write(b)
		s.metrics.ObserveLatency(key, time.Since(start))
	}
}

// handleFigure serves one SVG figure on both route generations.
func (s *Server) handleFigure(jsonErr bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !strings.HasSuffix(name, ".svg") {
			respondError(w, jsonErr, http.StatusNotFound, "figure names end in .svg", 0)
			return
		}
		seed, err := parseSeed(r)
		if err != nil {
			respondError(w, jsonErr, http.StatusBadRequest, err.Error(), 0)
			return
		}
		start := time.Now()
		svg, ok, err := s.figureBytes(r.Context(), seed, name)
		if err != nil {
			failErr(w, jsonErr, seed, err)
			return
		}
		if !ok {
			respondError(w, jsonErr, http.StatusNotFound, fmt.Sprintf("unknown figure %q", name), seed)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write(svg)
		s.metrics.ObserveLatency("figures", time.Since(start))
	}
}

// handleExperiments lists the experiment keys the artifact endpoint accepts.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(study.ExperimentKeys())
}

// handleSeeds reports which seeds are warm (cached, most recent first) and
// which are durable in the store. With ?limit= or ?cursor= the response
// switches to one paginated ascending list of known seeds (cached ∪ stored)
// plus a next_cursor.
func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	pr, err := parsePage(r)
	if err != nil {
		respondError(w, true, http.StatusBadRequest, err.Error(), 0)
		return
	}
	var stored []int64
	if s.opts.Store != nil {
		stored, _ = s.opts.Store.List(r.Context())
	}
	w.Header().Set("Content-Type", "application/json")
	if !pr.paged {
		resp := map[string]any{"cached": s.cache.Seeds()}
		if s.opts.Store != nil {
			resp["stored"] = stored
		}
		json.NewEncoder(w).Encode(resp)
		return
	}
	known := map[int64]bool{}
	for _, seed := range s.cache.Seeds() {
		known[seed] = true
	}
	for _, seed := range stored {
		known[seed] = true
	}
	all := make([]int64, 0, len(known))
	for seed := range known {
		all = append(all, seed)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	page, next := pageSeeds(all, pr)
	json.NewEncoder(w).Encode(map[string]any{"seeds": page, "next_cursor": next})
}

// handleSeedResource describes one seed in the unified resource model:
// identity, warmth, durability.
func (s *Server) handleSeedResource(w http.ResponseWriter, r *http.Request) {
	seed, err := parseSeed(r)
	if err != nil {
		respondError(w, true, http.StatusBadRequest, err.Error(), 0)
		return
	}
	stored := false
	if s.opts.Store != nil {
		if seeds, err := s.opts.Store.List(r.Context()); err == nil {
			for _, st := range seeds {
				if st == seed {
					stored = true
					break
				}
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"resource": "seed",
		"id":       strconv.FormatInt(seed, 10),
		"seed":     seed,
		"cached":   s.cache.Has(seed),
		"stored":   stored,
	})
}

// handleHealth reports readiness plus a cache digest and the shard-identity
// fields (snapshot_count, store_path, pipeline_workers) the proxy's
// aggregation uses to tell backends apart without scraping /v1/metrics.
// During graceful drain it turns 503 so load balancers stop sending new work.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if s.metrics.shuttingDown.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	workers := s.opts.PipelineWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	body := map[string]any{
		"status":           status,
		"cached_seeds":     s.cache.Seeds(),
		"cached_histories": s.histories.Len(),
		"inflight":         s.metrics.inflight.Load(),
		"snapshot_count":   0,
		"store_path":       "",
		"pipeline_workers": workers,
	}
	if s.opts.Store != nil {
		if stored, err := s.opts.Store.List(r.Context()); err == nil {
			body["stored_seeds"] = len(stored)
			body["snapshot_count"] = len(stored)
		}
		if d, ok := s.opts.Store.(interface{ Dir() string }); ok {
			body["store_path"] = d.Dir()
		}
	}
	if s.opts.HistoryStore != nil {
		if stored, err := s.opts.HistoryStore.List(r.Context()); err == nil {
			body["stored_histories"] = len(stored)
		}
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// ListenAndServe runs srv on addr until ctx is canceled (SIGINT/SIGTERM in
// the daemon), then drains in-flight requests for up to drain before
// forcing connections closed. logger receives progress lines (nil = silent).
func ListenAndServe(ctx context.Context, addr string, srv *Server, drain time.Duration, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	return serveListener(ctx, ln, srv, drain, logger)
}

// serveListener is ListenAndServe on an established listener — the seam
// tests use to get an ephemeral port.
func serveListener(ctx context.Context, ln net.Listener, srv *Server, drain time.Duration, logger *slog.Logger) error {
	if logger == nil {
		logger = obs.NopLogger()
	}
	srv.StartGC(ctx) // periodic retention sweep, if configured
	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("schemaevod listening",
			"addr", ln.Addr().String(), "cache", srv.opts.CacheSize, "timeout", srv.opts.Timeout)
		errCh <- hs.Serve(ln)
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	srv.metrics.shuttingDown.Store(true)
	logger.Info("shutdown signal received", "drain", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	// Let in-flight snapshot saves land — even after a forced drain: the
	// next daemon generation starts warm from whatever this one finished
	// computing, and abandoning a save wastes the render it already paid for.
	srv.SyncStore()
	// ctx is done, so the retention loop is exiting; wait until no sweep
	// is still touching the store.
	srv.WaitGC()
	if err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}
