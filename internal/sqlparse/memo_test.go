package sqlparse

import (
	"reflect"
	"testing"
)

// parseHistory parses the versions in order through one memo and returns
// the results only once every version is parsed, so a later version's
// parse that wrote to an earlier version's tables shows up in the check.
func parseHistory(d *Dialect, versions ...string) []*Result {
	m := NewMemo(d)
	out := make([]*Result, len(versions))
	for i, v := range versions {
		out[i] = m.Parse(v)
	}
	return out
}

// requirePlain fails unless every memoised result equals ParseDialect of
// the same source: schema, errors with line and column, and counts.
func requirePlain(t *testing.T, d *Dialect, versions []string, got []*Result) {
	t.Helper()
	for i, v := range versions {
		if want := ParseDialect(v, d); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s v%d: memoised parse differs from ParseDialect\n got %+v\nwant %+v",
				d.Name(), i, got[i], want)
		}
	}
}

// TestMemoSharesRepeatedTables: a statement repeated verbatim in a later
// version reuses the first parse's table; a changed one does not.
func TestMemoSharesRepeatedTables(t *testing.T) {
	v := []string{
		"CREATE TABLE a (id INT);\nCREATE TABLE b (x INT);",
		"-- v1\nCREATE TABLE a (id INT);\nCREATE TABLE b (x BIGINT);",
	}
	got := parseHistory(MySQL, v...)
	requirePlain(t, MySQL, v, got)
	if got[0].Schema.Table("a") != got[1].Schema.Table("a") {
		t.Error("repeated CREATE TABLE a was parsed again, not reused")
	}
	if got[0].Schema.Table("b") == got[1].Schema.Table("b") {
		t.Error("changed CREATE TABLE b reused the old table")
	}
}

// TestMemoAlterCopiesOnWrite: an ALTER never reaches a shared table,
// whether it follows the recording statement in the same version or a
// memo hit in a later one.
func TestMemoAlterCopiesOnWrite(t *testing.T) {
	create := "CREATE TABLE t (a INT, PRIMARY KEY (a), FOREIGN KEY (a) REFERENCES p (id));\n"
	v := []string{
		create,
		create + "ALTER TABLE t ADD b INT, DROP COLUMN a, DROP FOREIGN KEY x, RENAME TO u;",
		create,
		create + "ALTER TABLE t MODIFY a BIGINT;",
		create,
	}
	got := parseHistory(MySQL, v...)
	requirePlain(t, MySQL, v, got)
	v0 := got[0].Schema.Table("t")
	if v0 == nil || len(v0.Columns) != 1 || v0.Columns[0].Type.Name != "int" || len(v0.PrimaryKey) != 1 {
		t.Fatalf("v0's shared table was changed by a later ALTER: %+v", v0)
	}
	if got[2].Schema.Table("t") != v0 || got[4].Schema.Table("t") != v0 {
		t.Error("unaltered repeats no longer share v0's table")
	}
	if got[1].Schema.Table("u") == v0 || got[3].Schema.Table("t") == v0 {
		t.Error("an altered table is still the shared one")
	}

	// The ALTER in the recording version itself.
	v = []string{create + "ALTER TABLE t ADD b INT;", create}
	got = parseHistory(MySQL, v...)
	requirePlain(t, MySQL, v, got)
	if n := len(got[1].Schema.Table("t").Columns); n != 1 {
		t.Errorf("v1 table has %d columns: the recording version's ALTER wrote to the memo", n)
	}
}

// TestMemoNeverReusesUnterminated: a statement ended by EOF, or one whose
// first ';' byte is inside a string, is parsed every time.
func TestMemoNeverReusesUnterminated(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t (a INT)",
		"CREATE TABLE t (a VARCHAR(5) DEFAULT 'x;y');",
		"CREATE TABLE t (a INT) -- ;\n;",
	} {
		v := []string{src, src, src + "\nCREATE TABLE u (b INT);"}
		got := parseHistory(MySQL, v...)
		requirePlain(t, MySQL, v, got)
		if got[0].Schema.Table("t") == got[1].Schema.Table("t") {
			t.Errorf("%q: reused a statement without a top-level ';' at its first ';' byte", src)
		}
	}
	// A prefix of a recorded statement that ends at EOF is no hit either.
	v := []string{"CREATE TABLE t (a INT);", "CREATE TABLE t (a INT)"}
	requirePlain(t, MySQL, v, parseHistory(MySQL, v...))
}

// TestMemoKeepsErrorPositions: a parse error after a memo hit reports the
// line and column ParseDialect reports, for a hit spanning lines and for
// one on a single line.
func TestMemoKeepsErrorPositions(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t (\n  a INT,\n  b TEXT\n) ENGINE=InnoDB;\nCREATE TABLE u (1);",
		"CREATE TABLE t (a INT);  CREATE TABLE u (1);\nALTER TABLE t MODIFY;",
		"/*!40101 CREATE TABLE t (a INT); */ DROP TABLE;",
	} {
		v := []string{src, "-- shifted\n\n  " + src, src}
		got := parseHistory(MySQL, v...)
		requirePlain(t, MySQL, v, got)
		if len(got[2].Errors) == 0 {
			t.Fatalf("%q: no error to check", src)
		}
	}
}

// TestMemoCarriesConstraintName: a CONSTRAINT name on a PRIMARY KEY is
// never taken and names the next FOREIGN KEY, even one in a later
// statement; a memo hit must leave the same pending name behind.
func TestMemoCarriesConstraintName(t *testing.T) {
	src := "CREATE TABLE p (id INT, CONSTRAINT pk PRIMARY KEY (id));\n" +
		"CREATE TABLE c (x INT, FOREIGN KEY (x) REFERENCES p (id));"
	v := []string{src, src}
	got := parseHistory(MySQL, v...)
	requirePlain(t, MySQL, v, got)
	if fk := got[1].Schema.Table("c").ForeignKeys[0]; fk.Name != "pk" {
		t.Errorf("FK name = %q, want the carried-over %q", fk.Name, "pk")
	}
}

// TestMemoDialects: each dialect's rules apply inside the memo.
func TestMemoDialects(t *testing.T) {
	v := []string{
		`CREATE TABLE "t" ("a" integer, b character varying(10)); # x`,
		`CREATE TABLE "t" ("a" integer, b character varying(10)); # x` + "\nALTER TABLE t ADD c int;",
		`CREATE TABLE "t" ("a" integer, b character varying(10)); # x`,
	}
	for _, d := range Dialects() {
		requirePlain(t, d, v, parseHistory(d, v...))
	}
}
