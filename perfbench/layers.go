package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/schemaevo/schemaevo/internal/collect"
	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/diff"
	"github.com/schemaevo/schemaevo/internal/history"
	"github.com/schemaevo/schemaevo/internal/pool"
	"github.com/schemaevo/schemaevo/internal/schema"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
	"github.com/schemaevo/schemaevo/internal/store"
	"github.com/schemaevo/schemaevo/internal/study"
)

// This file is the traced run's library path: the pipeline the daemon runs
// for a seed, re-composed from each module's public functions so that every
// layer call can be timed in its own span. Its artifacts must equal the
// served ones byte for byte, which proves the composition is the daemon's.

// Artifact keys beyond the experiment registry, as the daemon and its store
// snapshots name them. "figures" stands for the whole SVG figure set, which
// renders in one call.
const (
	keyCSV     = "export.csv"
	keyJSON    = "export.json"
	keyHTML    = "report.html"
	keyFigures = "figures"
	figPrefix  = "figures/"
)

// renderKeys lists every render call of a seed's artifact set, in the
// daemon's order.
func renderKeys() []string {
	return append(study.ExperimentKeys(), keyCSV, keyJSON, keyHTML, keyFigures)
}

func renderMetricSpecs() []metricSpec {
	var out []metricSpec
	for _, k := range renderKeys() {
		out = append(out, metricSpec{"study.render." + k + "_s", "s"})
	}
	return out
}

// seedTopLayers are the layer rows that, with remainder_s, add up to the
// time a cold seed takes to become ready. sqlparse and diff are children
// of history.analyze and study.render.<key> children of study.render, so
// they are not added again.
var seedTopLayers = []string{
	"corpus.generate", "collect.generate", "collect.funnel",
	"history.analyze", "core.measure_classify", "study.render", "store.put",
}

// seedDiagnostics are the benchmark's own passes inside a seed.layered span:
// the parse/diff split and the live-heap reading. They are not pipeline
// layers, so the top-level rows must cover the span less these.
var seedDiagnostics = []string{"history.split", "study.heap"}

// layeredSeed runs one seed's pipeline layer by layer and returns its
// artifact set keyed like the daemon's snapshots. Spans go to rec under op.
// storeDir receives the snapshot (store.put / store.get rows).
func (e *env) layeredSeed(ctx context.Context, op, seed int64, storeDir string) (map[string][]byte, error) {
	rec := e.rec
	heapBefore := liveHeapMB()
	root := rec.Start("seed.layered", 0, op)

	var projects []*corpus.Project
	rec.Time("corpus.generate", root.ID, op, func(int64) {
		projects = corpus.GenerateContext(ctx, corpus.Config{Seed: seed})
	})

	var (
		files    []collect.FileRecord
		meta     []collect.RepoMeta
		outcomes collect.Outcomes
		err      error
	)
	rec.Time("collect.generate", root.ID, op, func(int64) {
		var studyRepos, rigidRepos []string
		for _, m := range corpus.Roster(corpus.Config{Seed: seed}) {
			if m.Intended == core.HistoryLess {
				rigidRepos = append(rigidRepos, "foss/"+m.Name)
			} else {
				studyRepos = append(studyRepos, "foss/"+m.Name)
			}
		}
		files, meta, outcomes, err = collect.GenerateDatasetsContext(ctx, collect.GenConfig{
			Seed: seed, Targets: collect.DefaultTargets(), StudyRepos: studyRepos, RigidRepos: rigidRepos,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("collect.generate seed %d: %w", seed, err)
	}
	var funnel *collect.Funnel
	rec.Time("collect.funnel", root.ID, op, func(int64) {
		funnel = collect.RunContext(ctx, files, meta, outcomes)
	})

	var studySet []*corpus.Project
	var hists []*history.History
	for _, p := range projects {
		if p.Intended != core.HistoryLess {
			studySet = append(studySet, p)
			hists = append(hists, p.Hist)
		}
	}
	var analyses []*history.Analysis
	rec.Time("history.analyze", root.ID, op, func(id int64) {
		analyses, err = history.AnalyzeAll(ctx, hists, 0)
	})
	if err != nil {
		return nil, fmt.Errorf("history.analyze seed %d: %w", seed, err)
	}
	if err := e.splitHistories(ctx, op, root.ID, hists); err != nil {
		return nil, err
	}

	st := &study.Study{
		Seed: seed, Corpus: projects, Funnel: funnel,
		ReedLimit: core.DefaultReedLimit, Analyses: map[string]*history.Analysis{},
	}
	rec.Time("core.measure_classify", root.ID, op, func(int64) {
		for i, p := range studySet {
			st.Analyses[p.Name] = analyses[i]
			st.Measures = append(st.Measures, core.Measure(analyses[i], st.ReedLimit))
		}
		st.DerivedLimit = core.DeriveReedLimit(st.Measures)
		st.ByTaxon = core.ByTaxon(st.Measures)
	})
	rec.Time("study.heap", root.ID, op, func(int64) {
		e.set("study.live_heap_mb", liveHeapMB()-heapBefore)
	})

	arts := map[string][]byte{}
	render := rec.Start("study.render", root.ID, op)
	for _, key := range renderKeys() {
		rec.Time("study.render."+key, render.ID, op, func(int64) {
			err = renderOne(ctx, st, key, arts)
		})
		if err != nil {
			return nil, fmt.Errorf("render %s seed %d: %w", key, seed, err)
		}
	}
	render.End()
	var artBytes int
	for _, b := range arts {
		artBytes += len(b)
	}
	e.add("study.artifact_bytes", float64(artBytes))

	disk, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	snap := &store.Snapshot{Seed: seed, SavedAt: time.Now().UTC(), Summary: st.Summary(), Artifacts: arts}
	rec.Time("store.put", root.ID, op, func(int64) {
		err = disk.Put(ctx, seed, snap)
	})
	if err != nil {
		return nil, fmt.Errorf("store.put seed %d: %w", seed, err)
	}
	root.End()
	e.add("store.snapshot_bytes", float64(dirBytes(storeDir)))
	rec.Time("store.get", root.ID, op, func(int64) {
		_, err = disk.Get(ctx, seed)
	})
	if err != nil {
		return nil, fmt.Errorf("store.get seed %d: %w", seed, err)
	}
	return arts, nil
}

// renderOne renders one render key into arts with the study's public
// renderers — the calls the daemon's write-behind makes.
func renderOne(ctx context.Context, st *study.Study, key string, arts map[string][]byte) error {
	switch key {
	case keyCSV:
		arts[key] = []byte(st.ExportCSV())
	case keyJSON:
		js, err := st.ExportJSON()
		if err != nil {
			return err
		}
		arts[key] = []byte(js)
	case keyHTML:
		html, err := st.HTMLReport(ctx)
		if err != nil {
			return err
		}
		arts[key] = []byte(html)
	case keyFigures:
		for name, svg := range st.SVGFigures() {
			arts[figPrefix+name] = []byte(svg)
		}
	default:
		text, ok := st.RunExperiment(ctx, key)
		if !ok {
			return fmt.Errorf("unknown experiment %q", key)
		}
		arts[key] = []byte(text)
	}
	return nil
}

// splitHistories times the two layers under history.analyze on the same
// histories, the way the history layer calls them: per history, every
// version parsed (a sqlparse.parse span), then every transition diffed (a
// diff.compute span), fanned out over the worker pool the history layer
// uses. The pass's wall time is split between the two rows in proportion to
// their summed span time, so the rows add up to the pass like the parent's
// children do. It also counts the bytes parsed, the transitions, and the
// statements repeated verbatim from the previous version.
func (e *env) splitHistories(ctx context.Context, op, parent int64, hists []*history.History) error {
	rec := e.rec
	split := rec.Start("history.split", parent, op)
	var parseBusy, diffBusy, parsedBytes, transitions atomic.Int64
	err := pool.Map(ctx, pool.Workers(0), len(hists), func(i int) error {
		h := hists[i]
		d, ok := sqlparse.DialectByName(h.Dialect)
		if !ok {
			d = sqlparse.MySQL
		}
		schemas := make([]*schema.Schema, len(h.Versions))
		var n int64
		parse := rec.Start("sqlparse.parse", split.ID, op)
		for j, v := range h.Versions {
			schemas[j] = sqlparse.ParseDialect(v.SQL, d).Schema
			n += int64(len(v.SQL))
		}
		parseBusy.Add(int64(parse.End()))
		parsedBytes.Add(n)
		cp := diff.NewComputer(diff.Options{})
		dc := rec.Start("diff.compute", split.ID, op)
		for j := 1; j < len(schemas); j++ {
			cp.Compute(schemas[j-1], schemas[j])
		}
		diffBusy.Add(int64(dc.End()))
		if len(schemas) > 1 {
			transitions.Add(int64(len(schemas) - 1))
		}
		return nil
	})
	wall := split.End().Seconds()
	if err != nil {
		return err
	}
	if busy := float64(parseBusy.Load() + diffBusy.Load()); busy > 0 {
		e.add("sqlparse.parse_s", wall*float64(parseBusy.Load())/busy)
		e.add("diff.compute_s", wall*float64(diffBusy.Load())/busy)
	}
	var repeated, total int
	for _, h := range hists {
		r, t := repeatedStatements(h)
		repeated += r
		total += t
	}
	e.add("sqlparse.bytes", float64(parsedBytes.Load()))
	e.add("diff.transitions", float64(transitions.Load()))
	e.add("sqlparse.statements", float64(total))
	e.add("sqlparse.repeated", float64(repeated))
	return nil
}

// repeatedStatements counts a history's DDL statements (split at ';') and
// how many of them occur verbatim in the previous version.
func repeatedStatements(h *history.History) (repeated, total int) {
	var prev map[string]bool
	for _, v := range h.Versions {
		cur := map[string]bool{}
		for _, stmt := range strings.Split(v.SQL, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			total++
			if prev[stmt] {
				repeated++
			}
			cur[stmt] = true
		}
		prev = cur
	}
	return repeated, total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// add accumulates into a metric (counters summed over a run's operations).
func (e *env) add(name string, v float64) {
	e.metricMu.Lock()
	e.metrics[name] += v
	e.metricMu.Unlock()
}

// setLayerMeans turns the recorder's span totals into per-operation rows:
// each named layer's total time divided by ops, in seconds.
func (e *env) setLayerMeans(names []string, ops int) {
	for _, n := range names {
		e.set(n+"_s", e.rec.Total(n).Seconds()/float64(ops))
	}
}
