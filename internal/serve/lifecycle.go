package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/store"
)

// This file wires the store's lifecycle subsystem (retention GC + integrity
// scrub, internal/store/gc.go) into the daemon: one-shot entry points the
// startup path and the /v1/debug/scrub endpoint call, plus the periodic
// background sweep that keeps a long-lived deployment's disk bounded.

// ErrNoLifecycle reports that the configured store has no maintenance
// surface — either no store at all, or a backend (Nop, Mem) with no durable
// footprint to maintain.
var ErrNoLifecycle = errors.New("serve: snapshot store does not support lifecycle maintenance")

// lifecycler resolves the store's optional maintenance interface.
func (s *Server) lifecycler() (store.Lifecycler, error) {
	if s.opts.Store == nil {
		return nil, ErrNoLifecycle
	}
	lc, ok := s.opts.Store.(store.Lifecycler)
	if !ok {
		return nil, ErrNoLifecycle
	}
	return lc, nil
}

// RunStoreGC executes one retention/orphan sweep under the server's GC
// policy, feeding the store.gc span into the stage metrics and the result
// into the schemaevo_store_gc_* counters.
func (s *Server) RunStoreGC(ctx context.Context) (store.GCResult, error) {
	lc, err := s.lifecycler()
	if err != nil {
		return store.GCResult{}, err
	}
	ctx = obs.WithTracer(ctx, s.tracer)
	res, err := lc.GC(ctx, s.opts.GC)
	if err != nil {
		s.opts.Logger.Error("store gc failed", "err", err)
		return res, err
	}
	s.metrics.gcRuns.Add(1)
	s.metrics.gcEvicted.Add(int64(res.Evicted))
	s.metrics.gcOrphanBlobs.Add(int64(res.OrphanBlobs))
	s.metrics.gcTmpFiles.Add(int64(res.TmpFiles))
	s.opts.Logger.Info("store gc complete",
		"evicted", res.Evicted, "remaining", res.Remaining,
		"orphan_blobs", res.OrphanBlobs, "tmp_files", res.TmpFiles)
	return res, nil
}

// RunStoreScrub re-verifies every stored blob, deleting snapshots that fail,
// and records the result in the schemaevo_store_scrub_* counters.
func (s *Server) RunStoreScrub(ctx context.Context) (store.ScrubResult, error) {
	lc, err := s.lifecycler()
	if err != nil {
		return store.ScrubResult{}, err
	}
	ctx = obs.WithTracer(ctx, s.tracer)
	res, err := lc.Scrub(ctx)
	if err != nil {
		s.opts.Logger.Error("store scrub failed", "err", err)
		return res, err
	}
	s.metrics.scrubRuns.Add(1)
	s.metrics.scrubBlobs.Add(int64(res.Blobs))
	s.metrics.scrubDamaged.Add(int64(res.Damaged))
	s.opts.Logger.Info("store scrub complete",
		"snapshots", res.Snapshots, "blobs", res.Blobs,
		"damaged", res.Damaged, "removed", res.Removed)
	return res, nil
}

// StartGC launches the periodic background retention sweep and reports
// whether a loop was actually started. It is a no-op — returning false —
// when the policy bounds nothing, the interval is zero, or the store has no
// lifecycle surface. The loop stops when ctx is canceled; WaitGC waits for
// it to have stopped.
func (s *Server) StartGC(ctx context.Context) bool {
	if !s.opts.GC.Enabled() || s.opts.GCInterval <= 0 {
		return false
	}
	if _, err := s.lifecycler(); err != nil {
		return false
	}
	s.gcWG.Add(1)
	go func() {
		defer s.gcWG.Done()
		for {
			timer := time.NewTimer(jitter(s.opts.GCInterval))
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			// Errors are logged inside RunStoreGC; the loop keeps going — a
			// transiently failing sweep must not end retention for the rest
			// of the daemon's life.
			s.RunStoreGC(ctx)
		}
	}()
	return true
}

// WaitGC blocks until every loop StartGC launched has exited: its context
// is canceled and the sweep it was running, if any, has returned. The
// graceful-shutdown path calls it so no sweep still writes to the store
// once the daemon has stopped.
func (s *Server) WaitGC() { s.gcWG.Wait() }

// jitter stretches d by a uniform 0–10% so daemons sharing a store directory
// (or a fleet restarted together) don't sweep in lockstep.
func jitter(d time.Duration) time.Duration {
	return d + rand.N(d/10+1)
}
