package study

import (
	"context"
	"sync"

	"github.com/schemaevo/schemaevo/internal/obs"
)

// This file is the canonical experiment registry: every rendered artifact of
// the study keyed by the selector name the CLI and the serving daemon share.
// Adding an experiment means adding one row here; studyrun, schemaevod and
// Everything() all follow.

// Experiment is one named driver of the study: a stable selector key plus
// the function rendering its text artifact.
type Experiment struct {
	Key string
	Run func(*Study, context.Context) string
}

// Render runs the experiment under the obs span "experiment.<key>", so both
// the CLI trace and the daemon's stage metrics break latency down per
// experiment. It always renders afresh; Study.RunExperiment is the
// memoised form.
func (e Experiment) Render(ctx context.Context, s *Study) string {
	ctx, span := obs.Start(ctx, "experiment."+e.Key)
	defer span.End()
	return e.Run(s, ctx)
}

// experimentTable lists every experiment in presentation order (E01–E26 of
// DESIGN.md, paper artifacts first, extensions after).
var experimentTable = []Experiment{
	{"funnel", (*Study).RunFunnel},
	{"fig1", (*Study).RunFig1},
	{"fig2", (*Study).RunFig2},
	{"taxonomy", (*Study).RunTaxonomy},
	{"fig4", (*Study).RunFig4},
	{"exemplars", (*Study).RunExemplars},
	{"fig10", (*Study).RunFig10},
	{"fig11", (*Study).RunFig11},
	{"fig12", (*Study).RunFig12},
	{"fig13", (*Study).RunFig13},
	{"kw", (*Study).RunOverallKW},
	{"shapiro", (*Study).RunShapiro},
	{"durations", (*Study).RunDurations},
	{"reedlimit", (*Study).RunReedLimit},
	{"fkeys", (*Study).RunForeignKeys},
	{"tables", (*Study).RunTablePatterns},
	{"granularity", (*Study).RunGranularity},
	{"sensitivity", (*Study).RunSensitivity},
	{"forecast", (*Study).RunForecast},
	{"tempo", (*Study).RunTempo},
	{"shapes", (*Study).RunShapes},
	{"dialects", (*Study).RunDialects},
}

// Experiments returns the full driver table in presentation order. The
// returned slice is a copy; callers may reorder it freely.
func Experiments() []Experiment {
	return append([]Experiment(nil), experimentTable...)
}

// ExperimentKeys returns the selector keys in presentation order.
func ExperimentKeys() []string {
	keys := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		keys[i] = e.Key
	}
	return keys
}

// KnownExperiment reports whether key names a registered experiment.
func KnownExperiment(key string) bool {
	for _, e := range experimentTable {
		if e.Key == key {
			return true
		}
	}
	return false
}

// RunExperiment renders the artifact for one experiment key. It reports
// ok = false for unknown keys. Texts are memoised per Study, so each
// experiment renders once however many artifacts include it.
func (s *Study) RunExperiment(ctx context.Context, key string) (text string, ok bool) {
	for _, e := range experimentTable {
		if e.Key == key {
			return s.render(ctx, e), true
		}
	}
	return "", false
}

// textMemo holds a Study's rendered experiment texts, keyed by experiment.
// It fills lazily and is safe for concurrent use; its zero value is ready,
// so a Study built as a struct literal memoises too.
type textMemo struct {
	mu    sync.Mutex
	texts map[string]string
}

// render returns e's text from the memo, rendering and memoising it on a
// miss. A render whose ctx ended is returned but not kept: experiments may
// answer a cancelled ctx with a placeholder, which a later live render must
// not see. Two concurrent first renders of one key both run; experiments
// are deterministic, so either text is the one kept.
func (s *Study) render(ctx context.Context, e Experiment) string {
	m := &s.memo
	m.mu.Lock()
	text, ok := m.texts[e.Key]
	m.mu.Unlock()
	if ok {
		return text
	}
	text = e.Render(ctx, s)
	if ctx.Err() != nil {
		return text
	}
	m.mu.Lock()
	if m.texts == nil {
		m.texts = map[string]string{}
	}
	m.texts[e.Key] = text
	m.mu.Unlock()
	return text
}
