package study

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/history"
)

// The experiment memo's contract: it never changes a byte. These tests run
// under -race in the extended verify list.

// unrendered returns a Study over the shared study's data with an empty
// memo, so a test can watch the memo fill.
func unrendered(t *testing.T) *Study {
	t.Helper()
	s := getStudy(t)
	return &Study{
		Seed: s.Seed, Corpus: s.Corpus, Funnel: s.Funnel,
		ReedLimit: s.ReedLimit, DerivedLimit: s.DerivedLimit,
		Measures: s.Measures, Analyses: s.Analyses, ByTaxon: s.ByTaxon,
	}
}

// referenceTexts renders every experiment and the HTML report on the
// shared study.
func referenceTexts(t *testing.T) (map[string]string, string) {
	t.Helper()
	s := getStudy(t)
	ctx := context.Background()
	texts := map[string]string{}
	for _, key := range ExperimentKeys() {
		texts[key], _ = s.RunExperiment(ctx, key)
	}
	html, err := s.HTMLReport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return texts, html
}

func TestMemoConcurrentRendersAgree(t *testing.T) {
	texts, html := referenceTexts(t)
	s := unrendered(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(texts)+2)
	for round := 0; round < 2; round++ {
		for key, want := range texts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, ok := s.RunExperiment(ctx, key); !ok || got != want {
					errs <- "RunExperiment(" + key + ") differs from the reference"
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := s.HTMLReport(ctx); err != nil || got != html {
				errs <- "concurrent HTMLReport differs from the reference"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, _ := s.HTMLReport(ctx); got != html {
		t.Error("HTMLReport from a full memo differs from the reference")
	}
}

func TestMemoSkipsCancelledRenders(t *testing.T) {
	texts, html := referenceTexts(t)
	s := unrendered(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if got, _ := s.RunExperiment(cancelled, "dialects"); !strings.Contains(got, "cancelled") {
		t.Fatalf("E27 under a cancelled ctx = %q, want its cancelled placeholder", got)
	}
	if got, _ := s.HTMLReport(cancelled); got == html {
		t.Fatal("report under a cancelled ctx rendered in full; the test needs a placeholder")
	}
	live := context.Background()
	if got, _ := s.RunExperiment(live, "dialects"); got != texts["dialects"] {
		t.Errorf("live E27 after a cancelled render = %q, want the real text", got)
	}
	if got, _ := s.HTMLReport(live); got != html {
		t.Error("live report after a cancelled render differs from the reference")
	}
}

// TestStructLiteralStudyMatchesNew builds a Study the way a caller outside
// the package composes the pipeline (a struct literal, analyses from
// history.AnalyzeAll) and checks its zero-value memo renders the same
// bytes as New.
func TestStructLiteralStudyMatchesNew(t *testing.T) {
	texts, html := referenceTexts(t)
	ref := getStudy(t)
	ctx := context.Background()
	var studySet []*corpus.Project
	var hists []*history.History
	for _, p := range ref.Corpus {
		if p.Intended != core.HistoryLess {
			studySet = append(studySet, p)
			hists = append(hists, p.Hist)
		}
	}
	analyses, err := history.AnalyzeAll(ctx, hists, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Study{
		Seed: ref.Seed, Corpus: ref.Corpus, Funnel: ref.Funnel,
		ReedLimit: core.DefaultReedLimit, Analyses: map[string]*history.Analysis{},
	}
	for i, p := range studySet {
		s.Analyses[p.Name] = analyses[i]
		s.Measures = append(s.Measures, core.Measure(analyses[i], s.ReedLimit))
	}
	s.DerivedLimit = core.DeriveReedLimit(s.Measures)
	s.ByTaxon = core.ByTaxon(s.Measures)

	if got, _ := s.HTMLReport(ctx); got != html {
		t.Error("struct-literal report differs from New's")
	}
	for key, want := range texts {
		if got, _ := s.RunExperiment(ctx, key); got != want {
			t.Errorf("struct-literal %s differs from New's", key)
		}
	}
}
