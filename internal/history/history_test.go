package history

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/gitstore"
	"github.com/schemaevo/schemaevo/internal/obs"
)

func day(n int) time.Time {
	return time.Date(2019, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func hist(versions ...string) *History {
	h := &History{Project: "p", Path: "schema.sql"}
	for i, sql := range versions {
		h.Versions = append(h.Versions, Version{ID: i, When: day(i * 10), SQL: sql})
	}
	if len(h.Versions) > 0 {
		h.ProjectStart = h.Versions[0].When.AddDate(0, -1, 0)
		h.ProjectEnd = h.Versions[len(h.Versions)-1].When.AddDate(0, 1, 0)
		h.ProjectCommits = len(h.Versions) * 10
	}
	return h
}

func TestFilterDropsEmptyAndNonDDL(t *testing.T) {
	h := hist(
		"CREATE TABLE t (id INT);",
		"",
		"INSERT INTO t VALUES (1);",
		"CREATE TABLE t (id INT, v INT);",
	)
	dropped := h.Filter()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(h.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(h.Versions))
	}
	if h.Versions[0].ID != 0 || h.Versions[1].ID != 1 {
		t.Fatal("IDs not renumbered")
	}
}

func TestIsHistoryLess(t *testing.T) {
	if !hist("CREATE TABLE t (id INT);").IsHistoryLess() {
		t.Error("single version should be history-less")
	}
	if hist("CREATE TABLE t (id INT);", "CREATE TABLE t (id INT, v INT);").IsHistoryLess() {
		t.Error("two versions is a real history")
	}
}

func TestAnalyzeTransitions(t *testing.T) {
	h := hist(
		"CREATE TABLE a (x INT);",
		"CREATE TABLE a (x INT, y INT);",                                   // +1 injected
		"CREATE TABLE a (x INT, y INT); -- comment",                        // no logical change
		"CREATE TABLE a (x BIGINT, y INT);",                                // type change
		"CREATE TABLE a (x BIGINT, y INT); CREATE TABLE b (p INT, q INT);", // +2 born
	)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 4 {
		t.Fatalf("transitions = %d, want 4", len(a.Transitions))
	}
	wantActive := []bool{true, false, true, true}
	wantActivity := []int{1, 0, 1, 2}
	for i, tr := range a.Transitions {
		if tr.Delta.IsActive() != wantActive[i] {
			t.Errorf("transition %d active = %v", i, tr.Delta.IsActive())
		}
		if tr.Delta.Activity() != wantActivity[i] {
			t.Errorf("transition %d activity = %d, want %d", i, tr.Delta.Activity(), wantActivity[i])
		}
	}
	// Timing: transition i lands at day (i+1)*10.
	if a.Transitions[0].DaysSinceV0 != 10 {
		t.Errorf("DaysSinceV0 = %v", a.Transitions[0].DaysSinceV0)
	}
	// Sizes.
	last := a.Transitions[3]
	if last.TablesBefore != 1 || last.TablesAfter != 2 {
		t.Errorf("tables %d→%d", last.TablesBefore, last.TablesAfter)
	}
	if last.AttrsBefore != 2 || last.AttrsAfter != 4 {
		t.Errorf("attrs %d→%d", last.AttrsBefore, last.AttrsAfter)
	}
}

func TestAnalyzeEmptyHistoryFails(t *testing.T) {
	if _, err := Analyze(&History{Project: "void"}); err == nil {
		t.Fatal("expected error on empty history")
	}
}

func TestSchemaAndProjectPeriods(t *testing.T) {
	h := hist("CREATE TABLE t (id INT);", "CREATE TABLE t (id INT, v INT);", "CREATE TABLE t (id INT, v INT, w INT);")
	sup := h.SchemaUpdatePeriod()
	if got := sup.Hours() / 24; got != 20 {
		t.Errorf("SUP = %v days, want 20", got)
	}
	pup := h.ProjectUpdatePeriod()
	if pup <= sup {
		t.Error("PUP must exceed SUP in this fixture")
	}
}

func TestSizeSeries(t *testing.T) {
	h := hist(
		"CREATE TABLE a (x INT);",
		"CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);",
	)
	a, _ := Analyze(h)
	ss := a.SizeSeries()
	if len(ss) != 2 {
		t.Fatalf("series length = %d", len(ss))
	}
	if ss[0].Tables != 1 || ss[0].Attrs != 1 {
		t.Errorf("point 0 = %+v", ss[0])
	}
	if ss[1].Tables != 2 || ss[1].Attrs != 3 {
		t.Errorf("point 1 = %+v", ss[1])
	}
}

func TestMonthlyActivityZeroFillsGaps(t *testing.T) {
	h := &History{Project: "p", Path: "s.sql"}
	times := []time.Time{
		time.Date(2019, 1, 5, 0, 0, 0, 0, time.UTC),
		time.Date(2019, 1, 20, 0, 0, 0, 0, time.UTC),
		time.Date(2019, 4, 2, 0, 0, 0, 0, time.UTC),
	}
	sqls := []string{
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT);",
	}
	for i := range times {
		h.Versions = append(h.Versions, Version{ID: i, When: times[i], SQL: sqls[i]})
	}
	a, _ := Analyze(h)
	months := a.MonthlyActivity()
	if len(months) != 4 { // Jan, Feb, Mar, Apr
		t.Fatalf("months = %d, want 4", len(months))
	}
	if months[0].Expansion != 1 || months[0].Commits != 1 {
		t.Errorf("Jan = %+v", months[0])
	}
	if months[1].Expansion != 0 || months[1].Maintenance != 0 {
		t.Errorf("Feb should be zero-filled: %+v", months[1])
	}
	if months[3].Maintenance != 1 {
		t.Errorf("Apr = %+v", months[3])
	}
}

func TestFromRepoEndToEnd(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := gitstore.NewWorktree(repo, "master")
	sig := func(i int) gitstore.Signature {
		return gitstore.Signature{Name: "dev", Email: "d@e", When: day(i)}
	}
	// Commit 1: project starts, no schema yet.
	w.Set("README.md", []byte("hello"))
	w.Commit("init", sig(0))
	// Commit 2: schema appears.
	w.Set("db/schema.sql", []byte("CREATE TABLE t (id INT);"))
	w.Commit("add schema", sig(30))
	// Commit 3: unrelated change.
	w.Set("README.md", []byte("hello world"))
	w.Commit("docs", sig(60))
	// Commit 4: schema evolves.
	w.Set("db/schema.sql", []byte("CREATE TABLE t (id INT, v VARCHAR(10));"))
	w.Commit("add column", sig(90))

	h, err := FromRepo(repo, "proj", "db/schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	if h.ProjectCommits != 4 {
		t.Errorf("ProjectCommits = %d, want 4", h.ProjectCommits)
	}
	if len(h.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(h.Versions))
	}
	if got := h.ProjectUpdatePeriod().Hours() / 24; got != 90 {
		t.Errorf("PUP = %v days, want 90", got)
	}
	if got := h.SchemaUpdatePeriod().Hours() / 24; got != 60 {
		t.Errorf("SUP = %v days, want 60", got)
	}
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 1 || a.Transitions[0].Delta.Injected != 1 {
		t.Fatalf("transition = %+v", a.Transitions)
	}
}

func TestAnalyzeRecordsParseErrors(t *testing.T) {
	h := hist(
		"CREATE TABLE ok (id INT);",
		"CREATE TABLE ok (id INT); CREATE TABLE broken (id INT,,,;",
	)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.ParseErrors == 0 {
		t.Error("parse errors not surfaced")
	}
}

func TestManyVersionsStable(t *testing.T) {
	var versions []string
	for i := 1; i <= 40; i++ {
		sql := "CREATE TABLE t (id INT"
		for j := 0; j < i; j++ {
			sql += fmt.Sprintf(", c%d INT", j)
		}
		sql += ");"
		versions = append(versions, sql)
	}
	h := hist(versions...)
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 39 {
		t.Fatalf("transitions = %d", len(a.Transitions))
	}
	for i, tr := range a.Transitions {
		if tr.Delta.Injected != 1 || tr.Delta.Activity() != 1 {
			t.Fatalf("transition %d: %+v", i, tr.Delta)
		}
	}
}

func TestSquashZeroWindowIsIdentity(t *testing.T) {
	h := hist("CREATE TABLE t (a INT);", "CREATE TABLE t (a INT, b INT);")
	s := h.Squash(0)
	if len(s.Versions) != 2 {
		t.Fatalf("versions = %d", len(s.Versions))
	}
	if s.Versions[1].SQL != h.Versions[1].SQL {
		t.Fatal("identity squash altered content")
	}
	// It must be a copy, not an alias.
	s.Versions[0].SQL = "mutated"
	if h.Versions[0].SQL == "mutated" {
		t.Fatal("Squash shares version slice")
	}
}

func TestSquashCollapsesCloseCommits(t *testing.T) {
	h := &History{Project: "p", Path: "s.sql"}
	times := []time.Time{
		day(0),                    // kept
		day(0).Add(2 * time.Hour), // collapses into previous
		day(0).Add(4 * time.Hour), // collapses again
		day(5),                    // new cluster
	}
	sqls := []string{
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT, b INT, c INT);",
		"CREATE TABLE t (a INT, c INT);",
	}
	for i := range times {
		h.Versions = append(h.Versions, Version{ID: i, When: times[i], SQL: sqls[i]})
	}
	s := h.Squash(24 * time.Hour)
	if len(s.Versions) != 2 {
		t.Fatalf("versions = %d, want 2", len(s.Versions))
	}
	// The first cluster collapses onto its final state.
	if s.Versions[0].SQL != sqls[2] {
		t.Fatalf("cluster state = %q", s.Versions[0].SQL)
	}
	if s.Versions[0].ID != 0 || s.Versions[1].ID != 1 {
		t.Fatal("IDs not renumbered")
	}
	// V0 belongs to the first cluster, so the squashed baseline is already
	// (a,b,c); the single remaining transition ejects b.
	a, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transitions) != 1 {
		t.Fatalf("transitions = %d, want 1", len(a.Transitions))
	}
	if got := a.Transitions[0].Delta.Activity(); got != 1 {
		t.Fatalf("transition activity = %d, want 1 (eject b)", got)
	}
}

func TestSquashChainWindows(t *testing.T) {
	// Chained closeness: each gap < window, so all collapse into one.
	h := &History{Project: "p", Path: "s.sql"}
	for i := 0; i < 5; i++ {
		h.Versions = append(h.Versions, Version{
			ID: i, When: day(0).Add(time.Duration(i) * time.Hour),
			SQL: "CREATE TABLE t (a INT);",
		})
	}
	if got := len(h.Squash(2 * time.Hour).Versions); got != 1 {
		t.Fatalf("chained squash = %d versions, want 1", got)
	}
}

func TestPrefix(t *testing.T) {
	h := hist(
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT, b INT, c INT);",
	)
	p := h.Prefix(2)
	if len(p.Versions) != 2 {
		t.Fatalf("prefix versions = %d", len(p.Versions))
	}
	if p.ProjectCommits != h.ProjectCommits || !p.ProjectStart.Equal(h.ProjectStart) {
		t.Error("project context lost")
	}
	// Clamping.
	if got := len(h.Prefix(99).Versions); got != 3 {
		t.Errorf("over-long prefix = %d versions", got)
	}
	if got := len(h.Prefix(-1).Versions); got != 0 {
		t.Errorf("negative prefix = %d versions", got)
	}
	// Copy, not alias.
	p.Versions[0].SQL = "mutated"
	if h.Versions[0].SQL == "mutated" {
		t.Fatal("Prefix shares version structs")
	}
}

func TestSchemaUpdatePeriodSingleVersion(t *testing.T) {
	if got := hist("CREATE TABLE t (a INT);").SchemaUpdatePeriod(); got != 0 {
		t.Errorf("single-version SUP = %v", got)
	}
}

func TestFromRepoErrors(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// No HEAD commit yet.
	if _, err := FromRepo(repo, "p", "s.sql"); err == nil {
		t.Fatal("empty repository accepted")
	}
}

func TestFromRepoBranch(t *testing.T) {
	repo, err := gitstore.Init(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sig := func(i int) gitstore.Signature {
		return gitstore.Signature{Name: "d", Email: "d@e", When: day(i)}
	}
	// master: two schema versions.
	m := gitstore.NewWorktree(repo, "master")
	m.Set("schema.sql", []byte("CREATE TABLE t (a INT);"))
	m.Commit("v0", sig(0))
	m.Set("schema.sql", []byte("CREATE TABLE t (a INT, b INT);"))
	m.Commit("v1", sig(10))
	// dev branch: three versions, diverging content.
	d := gitstore.NewWorktree(repo, "dev")
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT);"))
	d.Commit("d0", sig(0))
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT, x INT);"))
	d.Commit("d1", sig(5))
	d.Set("schema.sql", []byte("CREATE TABLE t (a INT, x INT, y INT);"))
	d.Commit("d2", sig(6))

	hm, err := FromRepoBranch(repo, "p", "master", "schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	hd, err := FromRepoBranch(repo, "p", "dev", "schema.sql")
	if err != nil {
		t.Fatal(err)
	}
	if len(hm.Versions) != 2 || len(hd.Versions) != 3 {
		t.Fatalf("versions: master=%d dev=%d", len(hm.Versions), len(hd.Versions))
	}
	if _, err := FromRepoBranch(repo, "p", "nope", "schema.sql"); err == nil {
		t.Fatal("missing branch accepted")
	}
}

// errorHistory has parse errors in some versions but not others, at times
// that a 1-day squash collapses into two runs.
func errorHistory() *History {
	h := &History{Project: "p", Path: "s.sql"}
	sqls := []string{
		"CREATE TABLE t (a INT); CREATE TABLE broken (id INT,,,;",
		"CREATE TABLE t (a INT, b INT);",
		"CREATE TABLE t (a INT, b INT); CREATE TABLE broken (id INT,,,;",
		"CREATE TABLE t (a INT, b INT, c INT);",
		"CREATE TABLE t (a BIGINT, c INT); CREATE TABLE broken (id INT,,,;",
	}
	times := []time.Time{day(0), day(0).Add(time.Hour), day(3), day(3).Add(time.Hour), day(9)}
	for i := range sqls {
		h.Versions = append(h.Versions, Version{ID: i, When: times[i], SQL: sqls[i]})
	}
	return h
}

// The derived views equal a fresh analysis of the derived history, except
// that they leave ParseErrors 0.
func TestDerivedViewsMatchFreshAnalysisWithParseErrors(t *testing.T) {
	h := errorHistory()
	a, err := Analyze(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.ParseErrors == 0 {
		t.Fatal("fixture has no parse errors")
	}
	check := func(label string, got *Analysis, derived *History) {
		t.Helper()
		want, err := Analyze(derived)
		if err != nil {
			t.Fatal(err)
		}
		if got.ParseErrors != 0 {
			t.Errorf("%s.ParseErrors = %d, want 0", label, got.ParseErrors)
		}
		want.ParseErrors = 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, want %+v", label, got, want)
		}
	}
	for k := 0; k <= len(h.Versions)+1; k++ {
		check(fmt.Sprintf("Prefix(%d)", k), a.Prefix(k), h.Prefix(max(k, 1)))
	}
	for _, w := range []time.Duration{0, 2 * time.Hour, 24 * time.Hour, 30 * 24 * time.Hour} {
		check(fmt.Sprintf("Squash(%s)", w), a.Squash(w), h.Squash(w))
	}
}

// FilterAnalyze must leave the history, the analysis and the span
// attributes that Filter followed by AnalyzeContext leave: the versions and
// bytes attributes count only the kept versions.
func TestFilterAnalyzeMatchesFilterThenAnalyze(t *testing.T) {
	build := func() *History {
		h := errorHistory()
		h.Versions = append(h.Versions[:2], append([]Version{
			{When: day(1), SQL: ""},
			{When: day(2), SQL: "INSERT INTO t VALUES (1);"},
		}, h.Versions[2:]...)...)
		return h
	}
	traced := func() (context.Context, func() map[string][]obs.Attr) {
		tr := obs.NewTracer(obs.Options{Collect: true})
		return obs.WithTracer(context.Background(), tr), func() map[string][]obs.Attr {
			out := map[string][]obs.Attr{}
			for _, r := range tr.Records() {
				out[r.Name] = r.Attrs
			}
			return out
		}
	}
	ref := build()
	wantDropped := ref.Filter()
	ctx, wantAttrs := traced()
	want, err := AnalyzeContext(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	h := build()
	ctx, gotAttrs := traced()
	got, dropped, err := FilterAnalyze(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != wantDropped || dropped != 2 {
		t.Errorf("dropped = %d, Filter dropped %d (want 2)", dropped, wantDropped)
	}
	if !reflect.DeepEqual(h, ref) {
		t.Error("FilterAnalyze left a different history than Filter")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilterAnalyze = %+v, want %+v", got, want)
	}
	if g, w := gotAttrs(), wantAttrs(); len(w) != 3 || !reflect.DeepEqual(g, w) {
		t.Errorf("FilterAnalyze span attrs = %v, want %v", g, w)
	}

	empty := hist("", "INSERT INTO t VALUES (1);")
	a, dropped, err := FilterAnalyze(context.Background(), empty)
	if a != nil || err == nil || dropped != 2 || len(empty.Versions) != 0 {
		t.Errorf("all-dropped history: a=%v dropped=%d err=%v versions=%d", a, dropped, err, len(empty.Versions))
	}
}
