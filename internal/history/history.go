// Package history models schema histories — the ordered list of versions of
// one DDL file — and computes their transitions: parsed schema pairs plus
// the quantified delta between them.
//
// This is the bridge between the repository substrate (gitstore) and the
// measurement layer (core): it applies the paper's version-level filters
// (empty files and versions without CREATE TABLE statements are dropped) and
// produces, for every surviving transition, timing information, schema sizes
// and the attribute-level delta.
package history

import (
	"context"
	"fmt"
	"time"

	"github.com/schemaevo/schemaevo/internal/diff"
	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/obs"
	"github.com/schemaevo/schemaevo/internal/pool"
	"github.com/schemaevo/schemaevo/internal/schema"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
)

// Version is one commit of the DDL file.
type Version struct {
	// ID is the sequential index in the extracted history (0 = V0).
	ID int
	// When is the commit timestamp.
	When time.Time
	// SQL is the full text of the DDL file at this version.
	SQL string
	// Commit and Message identify the originating commit, when extracted
	// from a repository.
	Commit  string
	Message string
}

// History is a schema history plus the project-level context needed for the
// study's duration and commit-share measures.
type History struct {
	Project  string
	Path     string
	Versions []Version

	// Dialect names the SQL dialect the versions are written in (one of
	// sqlparse.DialectNames). Empty means MySQL — the study's default and
	// the meaning of every history recorded before this field existed.
	Dialect string

	// ProjectCommits is the total number of commits in the whole project
	// (the denominator of the DDL-commit-share measure).
	ProjectCommits int
	// ProjectStart / ProjectEnd delimit the Project Update Period (PUP).
	ProjectStart time.Time
	ProjectEnd   time.Time
}

// dialect resolves the history's dialect, falling back to MySQL for empty
// or unknown names (tolerance: analysis should degrade, not fail).
func (h *History) dialect() *sqlparse.Dialect {
	if d, ok := sqlparse.DialectByName(h.Dialect); ok {
		return d
	}
	return sqlparse.MySQL
}

// FromRepo extracts the history of the DDL file at path from a repository,
// reading the full first-parent log from HEAD. Project-level measures are
// derived from the same walk.
func FromRepo(repo *gitstore.Repo, project, path string) (*History, error) {
	return FromRepoContext(context.Background(), repo, project, path)
}

// FromRepoContext is FromRepo under the obs span "gitstore.walk".
func FromRepoContext(ctx context.Context, repo *gitstore.Repo, project, path string) (*History, error) {
	_, span := obs.Start(ctx, "gitstore.walk", obs.String("project", project))
	defer span.End()
	head, err := repo.Head()
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	return fromCommit(repo, project, path, head)
}

// FromRepoBranch extracts the history from a specific branch instead of
// HEAD — the single-branch alternative the paper's threats-to-validity
// section discusses for non-linear git histories.
func FromRepoBranch(repo *gitstore.Repo, project, branch, path string) (*History, error) {
	head, err := repo.ResolveRef("refs/heads/" + branch)
	if err != nil {
		return nil, fmt.Errorf("history: %s: branch %s: %w", project, branch, err)
	}
	return fromCommit(repo, project, path, head)
}

func fromCommit(repo *gitstore.Repo, project, path string, head gitstore.Hash) (*History, error) {
	chain, err := repo.Log(head)
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("history: %s: empty repository", project)
	}
	files, err := repo.PathHistory(head, path)
	if err != nil {
		return nil, fmt.Errorf("history: %s: %w", project, err)
	}
	h := &History{
		Project:        project,
		Path:           path,
		ProjectCommits: len(chain),
		ProjectStart:   chain[0].Committer.When,
		ProjectEnd:     chain[len(chain)-1].Committer.When,
	}
	for i, fv := range files {
		h.Versions = append(h.Versions, Version{
			ID:      i,
			When:    fv.When,
			SQL:     string(fv.Content),
			Commit:  fv.Commit.String(),
			Message: fv.Message,
		})
	}
	return h, nil
}

// Filter applies the paper's version-level cleaning: empty versions and
// versions whose SQL contains no CREATE TABLE statement are removed, and IDs
// are renumbered. It returns the number of versions dropped.
func (h *History) Filter() int {
	dropped, _ := h.filterParsed()
	return dropped
}

// filterParsed is Filter that also returns the parse of every kept
// version, in order, so an analysis can reuse them instead of parsing the
// versions again.
func (h *History) filterParsed() (int, []*sqlparse.Result) {
	kept := h.Versions[:0]
	var parsed []*sqlparse.Result
	memo := sqlparse.NewMemo(h.dialect())
	for _, v := range h.Versions {
		if len(v.SQL) == 0 {
			continue
		}
		res := memo.Parse(v.SQL)
		if !res.HasCreateTable() {
			continue
		}
		kept = append(kept, v)
		parsed = append(parsed, res)
	}
	dropped := len(h.Versions) - len(kept)
	for i := range kept {
		kept[i].ID = i
	}
	h.Versions = kept
	return dropped, parsed
}

// IsHistoryLess reports whether the history has at most one version — the
// paper's "rigid" projects, excluded from the 195-project study set.
func (h *History) IsHistoryLess() bool { return len(h.Versions) <= 1 }

// SchemaUpdatePeriod returns the time span between the first and last commit
// of the schema file.
func (h *History) SchemaUpdatePeriod() time.Duration {
	if len(h.Versions) < 2 {
		return 0
	}
	return h.Versions[len(h.Versions)-1].When.Sub(h.Versions[0].When)
}

// ProjectUpdatePeriod returns the time span of the whole project history.
func (h *History) ProjectUpdatePeriod() time.Duration {
	return h.ProjectEnd.Sub(h.ProjectStart)
}

// Prefix returns a copy of the history truncated to its first n versions —
// the "what was observable after k commits" view used by the forecasting
// experiment. n is clamped to [0, len(Versions)].
func (h *History) Prefix(n int) *History {
	if n > len(h.Versions) {
		n = len(h.Versions)
	}
	if n < 0 {
		n = 0
	}
	out := &History{
		Project:        h.Project,
		Path:           h.Path,
		Dialect:        h.Dialect,
		ProjectCommits: h.ProjectCommits,
		ProjectStart:   h.ProjectStart,
		ProjectEnd:     h.ProjectEnd,
	}
	out.Versions = append(out.Versions, h.Versions[:n]...)
	return out
}

// Squash returns a copy of the history where runs of commits closer than
// window collapse into their final state. This models teams that batch
// changes into larger commits; the paper's threats-to-validity section
// argues commit habits do not change a project's aggregate profile, and the
// E21 experiment uses Squash to test that claim. A zero window returns an
// unmodified copy.
func (h *History) Squash(window time.Duration) *History {
	return h.pick(h.squashKeep(window))
}

// squashKeep returns the indices of the versions Squash keeps: the last
// version of every run whose consecutive commits are closer than window.
// Collapsing onto the run's final state keeps its time at the last member,
// so the SUP end stays put.
func (h *History) squashKeep(window time.Duration) []int {
	keep := make([]int, 0, len(h.Versions))
	for i, v := range h.Versions {
		if n := len(keep); n > 0 && window > 0 &&
			v.When.Sub(h.Versions[keep[n-1]].When) < window {
			keep[n-1] = i
			continue
		}
		keep = append(keep, i)
	}
	return keep
}

// pick returns a copy of the history holding the versions at the given
// indices, renumbered from 0.
func (h *History) pick(idx []int) *History {
	out := &History{
		Project:        h.Project,
		Path:           h.Path,
		Dialect:        h.Dialect,
		ProjectCommits: h.ProjectCommits,
		ProjectStart:   h.ProjectStart,
		ProjectEnd:     h.ProjectEnd,
	}
	for j, i := range idx {
		v := h.Versions[i]
		v.ID = j
		out.Versions = append(out.Versions, v)
	}
	return out
}

// Transition is the evolution step from version FromID to version ToID.
type Transition struct {
	FromID int
	ToID   int
	// When is the commit time of the destination version.
	When time.Time
	// DaysSinceV0 is the distance of the destination commit from V0.
	DaysSinceV0 float64
	// Delta quantifies the attribute-level changes.
	Delta *diff.Delta
	// Schema sizes on both sides of the transition.
	TablesBefore, TablesAfter int
	AttrsBefore, AttrsAfter   int
}

// Analysis is a fully processed schema history: the parsed schema of every
// version and the transition chain.
type Analysis struct {
	History *History
	// Schemas holds the parsed schema of every version. Versions that
	// repeat a CREATE TABLE statement share its read-only *schema.Table
	// (see sqlparse.Memo), so Clone a schema before mutating it.
	Schemas     []*schema.Schema
	Transitions []Transition
	// ParseErrors counts statements skipped by the tolerant parser over the
	// whole history, a data-quality signal surfaced by the CLI tools. The
	// derived views (Prefix, Squash) do not set it: it cannot be split from
	// the per-history total, and core.Measure does not read it.
	ParseErrors int
}

// Analyze parses every version and computes all transitions. The history
// should already be filtered; Analyze does not mutate it.
func Analyze(h *History) (*Analysis, error) {
	return AnalyzeContext(context.Background(), h)
}

// AnalyzeContext is Analyze under the obs span "history.analyze", with the
// parse loop and the transition loop as child spans ("sqlparse.parse" and
// "diff.compute") so per-project profiles split SQL parsing from delta
// computation.
func AnalyzeContext(ctx context.Context, h *History) (*Analysis, error) {
	ctx, span := obs.Start(ctx, "history.analyze",
		obs.String("project", h.Project), obs.Int("versions", int64(len(h.Versions))))
	defer span.End()
	if len(h.Versions) == 0 {
		return nil, fmt.Errorf("history: %s: no versions to analyze", h.Project)
	}
	_, parseSpan := obs.Start(ctx, "sqlparse.parse")
	parsed := make([]*sqlparse.Result, len(h.Versions))
	// One memo per history: versions repeat most statements of the one
	// before, and each analysis (= each pool worker) owns its memo.
	memo := sqlparse.NewMemo(h.dialect())
	for i, v := range h.Versions {
		parsed[i] = memo.Parse(v.SQL)
	}
	parseSpan.SetAttr(obs.Int("bytes", sqlBytes(h)))
	parseSpan.End()
	return fromParsed(ctx, h, parsed), nil
}

// FilterAnalyze is Filter followed by AnalyzeContext with every version
// parsed once: the parses Filter needs for its CREATE TABLE test become the
// analysis's schemas. Like Filter it mutates h, and it returns the number
// of versions dropped. The analysis, its ParseErrors included, equals
// AnalyzeContext of the filtered history; if no version survives, it is nil
// and err says so.
func FilterAnalyze(ctx context.Context, h *History) (a *Analysis, dropped int, err error) {
	ctx, span := obs.Start(ctx, "history.analyze", obs.String("project", h.Project))
	defer span.End()
	_, parseSpan := obs.Start(ctx, "sqlparse.parse")
	dropped, parsed := h.filterParsed()
	// Like AnalyzeContext's, the attributes count the versions analyzed:
	// the kept ones.
	span.SetAttr(obs.Int("versions", int64(len(h.Versions))))
	parseSpan.SetAttr(obs.Int("bytes", sqlBytes(h)))
	parseSpan.End()
	if len(h.Versions) == 0 {
		return nil, dropped, fmt.Errorf("history: %s: no versions to analyze", h.Project)
	}
	return fromParsed(ctx, h, parsed), dropped, nil
}

// sqlBytes is the total SQL text of the history's versions.
func sqlBytes(h *History) int64 {
	var n int64
	for _, v := range h.Versions {
		n += int64(len(v.SQL))
	}
	return n
}

// fromParsed assembles the analysis of h from the parse of each of its
// versions and diffs the transition chain under the "diff.compute" span.
func fromParsed(ctx context.Context, h *History, parsed []*sqlparse.Result) *Analysis {
	a := &Analysis{History: h, Schemas: make([]*schema.Schema, len(parsed))}
	for i, res := range parsed {
		a.Schemas[i] = res.Schema
		a.ParseErrors += len(res.Errors)
	}
	_, diffSpan := obs.Start(ctx, "diff.compute")
	a.link(nil)
	diffSpan.SetAttr(obs.Int("transitions", int64(len(a.Transitions))))
	diffSpan.End()
	return a
}

// link builds the transition chain over a.Schemas. Transition i-1 (into
// version i) is reuse(i) when reuse reports one; otherwise the pair is
// diffed. IDs, time and distance from V0 are always set from a.History.
func (a *Analysis) link(reuse func(i int) (Transition, bool)) {
	if len(a.Schemas) < 2 {
		return
	}
	versions := a.History.Versions
	v0 := versions[0].When
	// One Computer per chain: its scratch buffers amortise over the whole
	// chain, and each analysis (= each pool worker) owns its own, so the
	// fan-out shares nothing.
	var cp *diff.Computer
	a.Transitions = make([]Transition, 0, len(a.Schemas)-1)
	for i := 1; i < len(a.Schemas); i++ {
		t, ok := Transition{}, false
		if reuse != nil {
			t, ok = reuse(i)
		}
		if !ok {
			if cp == nil {
				cp = diff.NewComputer(diff.Options{})
			}
			old, new := a.Schemas[i-1], a.Schemas[i]
			t = Transition{
				Delta:        cp.Compute(old, new),
				TablesBefore: old.NumTables(),
				TablesAfter:  new.NumTables(),
				AttrsBefore:  old.NumColumns(),
				AttrsAfter:   new.NumColumns(),
			}
		}
		t.FromID, t.ToID = i-1, i
		t.When = versions[i].When
		t.DaysSinceV0 = t.When.Sub(v0).Hours() / 24
		a.Transitions = append(a.Transitions, t)
	}
}

// Prefix returns the analysis of the history's first n versions — what
// AnalyzeContext(a.History.Prefix(n)) returns — without parsing or diffing
// anything: it is the first n schemas and the first n-1 transitions. n is
// clamped to [1, len(a.Schemas)]. The view shares the schemas and deltas
// of a, which no analysis consumer mutates. Its ParseErrors is 0.
func (a *Analysis) Prefix(n int) *Analysis {
	n = min(max(n, 1), len(a.Schemas))
	out := &Analysis{
		History: a.History.Prefix(n),
		Schemas: append([]*schema.Schema(nil), a.Schemas[:n]...),
	}
	if n > 1 {
		out.Transitions = append([]Transition(nil), a.Transitions[:n-1]...)
	}
	return out
}

// Squash returns the analysis of the squashed history — what
// AnalyzeContext(a.History.Squash(window)) returns — without parsing
// anything: the kept versions keep their already-parsed schemas, and a
// transition between two kept versions that were adjacent in the original
// history is reused. Only each newly adjacent pair (the two ends of a
// collapsed run) is diffed, with one diff.Computer for the whole chain.
// FromID, ToID and DaysSinceV0 are renumbered against the new V0. The view
// shares the schemas and deltas of a, which no analysis consumer mutates.
// Its ParseErrors is 0.
func (a *Analysis) Squash(window time.Duration) *Analysis {
	keep := a.History.squashKeep(window)
	out := &Analysis{
		History: a.History.pick(keep),
		Schemas: make([]*schema.Schema, len(keep)),
	}
	for j, i := range keep {
		out.Schemas[j] = a.Schemas[i]
	}
	out.link(func(j int) (Transition, bool) {
		if keep[j] != keep[j-1]+1 {
			return Transition{}, false
		}
		return a.Transitions[keep[j]-1], true
	})
	return out
}

// AnalyzeAll analyzes every history on a bounded worker pool and
// returns the analyses in input order. workers follows pool.Workers
// semantics (0 = GOMAXPROCS); any worker count yields identical
// results, since each history is analyzed independently and lands in
// its own slot. Per-history "history.analyze" spans are started from
// ctx on the worker goroutines, so they aggregate into the same stage
// histogram the sequential path feeds.
//
// On error (including a cancelled ctx or a panicking worker) the first
// failure is returned and the partial results are discarded.
func AnalyzeAll(ctx context.Context, hists []*History, workers int) ([]*Analysis, error) {
	out := make([]*Analysis, len(hists))
	err := pool.Map(ctx, pool.Workers(workers), len(hists), func(i int) error {
		a, err := AnalyzeContext(ctx, hists[i])
		if err != nil {
			return err
		}
		out[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SizeSeries returns (time, #tables, #attributes) for every version —
// the "schema size over human time" line of the paper's figures.
func (a *Analysis) SizeSeries() []SizePoint {
	out := make([]SizePoint, len(a.Schemas))
	for i, s := range a.Schemas {
		out[i] = SizePoint{
			When:   a.History.Versions[i].When,
			Tables: s.NumTables(),
			Attrs:  s.NumColumns(),
		}
	}
	return out
}

// SizePoint is one point of the schema-size chart.
type SizePoint struct {
	When   time.Time
	Tables int
	Attrs  int
}

// MonthlyActivity aggregates expansion and maintenance per calendar month —
// the paper's Fig. 1/9 presentation for active projects. Months with no
// transitions are included (zero-filled) between the first and last commit.
func (a *Analysis) MonthlyActivity() []MonthBucket {
	if len(a.Transitions) == 0 {
		return nil
	}
	type key struct{ y, m int }
	buckets := map[key]*MonthBucket{}
	first := a.History.Versions[0].When
	last := a.History.Versions[len(a.History.Versions)-1].When
	for cur := time.Date(first.Year(), first.Month(), 1, 0, 0, 0, 0, time.UTC); !cur.After(last); cur = cur.AddDate(0, 1, 0) {
		buckets[key{cur.Year(), int(cur.Month())}] = &MonthBucket{Year: cur.Year(), Month: int(cur.Month())}
	}
	for _, t := range a.Transitions {
		k := key{t.When.Year(), int(t.When.Month())}
		b, ok := buckets[k]
		if !ok {
			b = &MonthBucket{Year: k.y, Month: k.m}
			buckets[k] = b
		}
		b.Expansion += t.Delta.Expansion()
		b.Maintenance += t.Delta.Maintenance()
		b.Commits++
	}
	var out []MonthBucket
	for cur := time.Date(first.Year(), first.Month(), 1, 0, 0, 0, 0, time.UTC); !cur.After(last); cur = cur.AddDate(0, 1, 0) {
		out = append(out, *buckets[key{cur.Year(), int(cur.Month())}])
	}
	return out
}

// MonthBucket is one month of aggregated activity.
type MonthBucket struct {
	Year        int
	Month       int
	Expansion   int
	Maintenance int
	Commits     int
}
