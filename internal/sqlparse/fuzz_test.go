package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse drives the tolerant parser with arbitrary input. The invariants:
// never panic, always terminate, always return a usable (possibly empty)
// schema, and never report more CREATE TABLEs than statements. It is also
// the statement memo's oracle: the input and each seed input, parsed in
// order through one Memo (either way round), must both equal plain
// ParseDialect. The seed corpus covers every statement family; `go test`
// replays it as unit tests and `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		";;;",
		"CREATE TABLE t (id INT);",
		"CREATE TABLE t (id INT, PRIMARY KEY (id)) ENGINE=InnoDB;",
		"CREATE TABLE `q` (`a b` VARCHAR(10) DEFAULT 'x''y');",
		"CREATE TABLE t (s ENUM('a','b') NOT NULL, d DECIMAL(10,2));",
		"DROP TABLE IF EXISTS a, b; CREATE TABLE a (x INT);",
		"ALTER TABLE t ADD COLUMN x INT FIRST, DROP COLUMN y, MODIFY z TEXT;",
		"ALTER TABLE t CHANGE a b BIGINT UNSIGNED AFTER c;",
		"CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES p (id) ON DELETE CASCADE);",
		"/*!40101 SET NAMES utf8 */; CREATE TABLE t (x INT);",
		"INSERT INTO t VALUES (1, 'text with ; semicolon', (2));",
		"-- comment only",
		"CREATE TABLE t (a serial, b text[], c timestamp with time zone DEFAULT now());",
		"CREATE TABLE broken (id INT",
		"CREATE TABLE t (((((",
		"CREATE TABLE \x00\xff (a INT);",
		"ALTER TABLE ONLY p ADD CONSTRAINT k PRIMARY KEY (id);",
		strings.Repeat("CREATE TABLE t (a INT);", 50),
		// Dialect-specific idioms: pg COPY data (with and without the `\.`
		// terminator), quoted identifiers, SQLite affinity names and rebuild.
		"COPY public.t (a, b) FROM stdin;\n1\t2\n\\.\nALTER TABLE t ADD c int;",
		"COPY t (a) FROM stdin;\nunterminated data",
		`CREATE TABLE "t" ("group" integer, "x" character varying(10));`,
		"PRAGMA foreign_keys=OFF;\nCREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT) WITHOUT ROWID;",
		`CREATE TABLE t2 (a INT8); DROP TABLE t; ALTER TABLE t2 RENAME TO t;`,
		"CREATE TEMP TABLE s (a bool, b numeric(4,1), c real);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // bound work per input
		}
		// Every invariant must hold under every dialect's rules.
		for _, d := range Dialects() {
			res := ParseDialect(src, d)
			if res == nil || res.Schema == nil {
				t.Fatal("nil result pieces")
			}
			if res.CreateTables > res.Statements {
				t.Fatalf("%s: CreateTables %d > Statements %d", d.Name(), res.CreateTables, res.Statements)
			}
			if res.Schema.NumColumns() < 0 || res.Schema.NumTables() < 0 {
				t.Fatal("negative counts")
			}
			// Strict mode must never find more tables than tolerant mode.
			strict := ParseModeDialect(src, Strict, d)
			if strict.CreateTables > res.CreateTables {
				t.Fatalf("%s: strict found %d tables, tolerant %d", d.Name(), strict.CreateTables, res.CreateTables)
			}
			for _, seed := range seeds {
				want := ParseDialect(seed, d)
				checkMemo(t, d, seed, want, src, res)
				checkMemo(t, d, src, res, seed, want)
			}
		}
		// Detection is total and deterministic on arbitrary bytes.
		if d1, d2 := Detect(src), Detect(src); d1 != d2 {
			t.Fatalf("Detect not deterministic: %s vs %s", d1.Name(), d2.Name())
		}
	})
}

// checkMemo parses a then b through one memo and, only after both are
// parsed, requires each result to equal its plain ParseDialect result.
func checkMemo(t *testing.T, d *Dialect, a string, wantA *Result, b string, wantB *Result) {
	t.Helper()
	m := NewMemo(d)
	ra, rb := m.Parse(a), m.Parse(b)
	for _, c := range []struct {
		src       string
		got, want *Result
	}{{a, ra, wantA}, {b, rb, wantB}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: memoised parse of %q (after %q, before %q) differs from ParseDialect\n got %+v\nwant %+v",
				d.Name(), c.src, a, b, c.got, c.want)
		}
	}
}

// FuzzLexer checks the token stream always terminates and consumes input.
func FuzzLexer(f *testing.F) {
	f.Add("SELECT 'a' -- x")
	f.Add("`unterminated")
	f.Add("/* open")
	f.Add("'str \\' end")
	f.Add("1.2e+5 .5 5.")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		for _, d := range Dialects() {
			l := NewLexerDialect(src, d)
			for i := 0; ; i++ {
				tok := l.Next()
				if tok.Kind == TokEOF {
					break
				}
				if i > len(src)+16 {
					t.Fatalf("%s: lexer not consuming input: %d tokens from %d bytes", d.Name(), i, len(src))
				}
			}
		}
	})
}
