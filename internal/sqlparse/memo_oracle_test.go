package sqlparse_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/schemaevo/schemaevo/internal/corpus"
	"github.com/schemaevo/schemaevo/internal/sqlparse"
)

// TestMemoMatchesParseDialect is the differential oracle for the statement
// memo: every version of every project of corpus seeds 1–3 (MySQL) and of
// seed 1 rendered in Postgres and in SQLite is parsed in order through one
// memo per history. Only once the whole history is parsed is each Result
// compared with a plain ParseDialect of the same version — schema, errors
// with line and column, and counts — so a later version that wrote to a
// table an earlier one shares fails the check. The test also requires the
// memo to have shared tables at all, so it cannot pass vacuously.
func TestMemoMatchesParseDialect(t *testing.T) {
	cases := []struct {
		seed    int64
		dialect string
	}{{1, ""}, {2, ""}, {3, ""}, {1, "postgres"}, {1, "sqlite"}}
	for _, c := range cases {
		name := c.dialect
		if name == "" {
			name = "mysql"
		}
		t.Run(fmt.Sprintf("seed%d/%s", c.seed, name), func(t *testing.T) {
			t.Parallel()
			d, ok := sqlparse.DialectByName(name)
			if !ok {
				t.Fatalf("no dialect %q", name)
			}
			projects := corpus.Generate(corpus.Config{Seed: c.seed, Dialect: c.dialect})
			versions, shared := 0, 0
			for _, p := range projects {
				if p.Hist == nil {
					continue
				}
				memo := sqlparse.NewMemo(d)
				got := make([]*sqlparse.Result, len(p.Hist.Versions))
				for i, v := range p.Hist.Versions {
					got[i] = memo.Parse(v.SQL)
				}
				for i, v := range p.Hist.Versions {
					if want := sqlparse.ParseDialect(v.SQL, d); !reflect.DeepEqual(got[i], want) {
						t.Fatalf("%s v%d: memoised parse differs from ParseDialect", p.Name, i)
					}
					if i > 0 {
						shared += sharedTables(got[i-1], got[i])
					}
				}
				versions += len(got)
			}
			if shared == 0 {
				t.Fatalf("%d versions parsed, no table shared between consecutive versions", versions)
			}
			t.Logf("%d versions, %d tables shared with the previous version", versions, shared)
		})
	}
}

// sharedTables counts the tables of b that are the very tables of a.
func sharedTables(a, b *sqlparse.Result) int {
	n := 0
	for _, tb := range b.Schema.Tables {
		if ta := a.Schema.Table(tb.Name); ta == tb {
			n++
		}
	}
	return n
}
