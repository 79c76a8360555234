package history_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/schemaevo/schemaevo/internal/core"
	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/history"
)

// TestDerivedViewsMatchFreshAnalysis is the differential oracle for the
// derived analysis views: for every study project of corpus seeds 1–3,
// Analysis.Prefix and Analysis.Squash must equal a fresh AnalyzeContext of
// History.Prefix and History.Squash — schemas, transitions, history and
// the core measures. ParseErrors is left out: the views do not set it.
// Prefix lengths cover E23's horizons, the edges 1, 2 and n, and a few
// lengths per project drawn from a fixed-seed RNG; squash windows cover
// E21's plus 1h and 90d.
func TestDerivedViewsMatchFreshAnalysis(t *testing.T) {
	horizons := []float64{0.25, 0.5, 0.75, 1.0}
	windows := []time.Duration{0, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour, 90 * 24 * time.Hour}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkDerivedViews(t, seed, horizons, windows)
		})
	}
}

// checkDerivedViews runs the oracle over the study projects of one seed.
func checkDerivedViews(t *testing.T, seed int64, horizons []float64, windows []time.Duration) {
	ctx := context.Background()
	projects := corpus.Generate(corpus.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for _, p := range projects {
		if p.Intended == core.HistoryLess {
			continue
		}
		a, err := history.AnalyzeContext(ctx, p.Hist)
		if err != nil {
			t.Fatal(err)
		}
		n := len(a.Schemas)
		lengths := map[int]bool{1: true, 2: true, n: true}
		for _, h := range horizons {
			lengths[max(int(h*float64(n)+0.5), 2)] = true
		}
		for range 3 {
			lengths[1+rng.Intn(n)] = true
		}
		for k := range lengths {
			want, err := history.AnalyzeContext(ctx, p.Hist.Prefix(k))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d %s Prefix(%d)", seed, p.Name, k)
			sameAnalysis(t, label, a.Prefix(k), want)
		}
		for _, w := range windows {
			want, err := history.AnalyzeContext(ctx, p.Hist.Squash(w))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d %s Squash(%s)", seed, p.Name, w)
			sameAnalysis(t, label, a.Squash(w), want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("seed %d: no study projects", seed)
	}
}

// sameAnalysis reports where a derived analysis departs from a fresh one,
// whose ParseErrors it clears first.
func sameAnalysis(t *testing.T, label string, got, want *history.Analysis) {
	t.Helper()
	want.ParseErrors = 0
	if !reflect.DeepEqual(core.Measure(got, core.DefaultReedLimit), core.Measure(want, core.DefaultReedLimit)) {
		t.Errorf("%s: measures differ", label)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	switch {
	case !reflect.DeepEqual(got.History, want.History):
		t.Errorf("%s: history differs", label)
	case !reflect.DeepEqual(got.Schemas, want.Schemas):
		t.Errorf("%s: schemas differ", label)
	case !reflect.DeepEqual(got.Transitions, want.Transitions):
		t.Errorf("%s: transitions differ", label)
	default:
		t.Errorf("%s: ParseErrors = %d, want 0", label, got.ParseErrors)
	}
}
