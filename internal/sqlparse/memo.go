package sqlparse

import (
	"strings"

	"github.com/schemaevo/schemaevo/internal/schema"
)

// Memo parses the versions of one schema history, parsing each distinct
// CREATE TABLE statement once. Every version of a DDL file is a full
// schema dump, so most of its statements repeat the previous version
// byte for byte; a repeat reuses the *schema.Table its first parse built
// instead of lexing and parsing the statement again.
//
// The key is the exact source bytes of a CREATE TABLE statement, from the
// CREATE keyword through its terminating top-level ';', recorded only when
// the statement parsed with no error. Since the lexer is context-free, equal
// bytes parse to an equal table, and a hit moves the lexer past the
// statement with its line and column kept right, so every later ParseError
// position is what ParseDialect reports. A statement ended by EOF, or one
// whose first ';' byte sits inside a string or comment, is never recorded.
//
// The recorded tables are shared, read-only, by every version that
// repeats the statement. The parser copies a shared table on write (an
// ALTER TABLE clones it before changing it), so every Result equals
// ParseDialect's for the same source; callers that mutate a Result's
// schema must Clone it first. A Memo is not safe for concurrent use: give
// each history its own.
type Memo struct {
	d      *Dialect
	stmts  map[string]memoEntry
	shared map[*schema.Table]struct{}
}

// memoEntry is one recorded CREATE TABLE statement.
type memoEntry struct {
	table *schema.Table
	// lines is the number of newlines in the statement and tail the number
	// of bytes after its last one: what the lexer's line and column
	// advance by across the statement.
	lines, tail int
	// constraintName is the pending CONSTRAINT name the statement leaves
	// behind (a CONSTRAINT prefix on a PRIMARY KEY or UNIQUE element is
	// never taken, and carries over to the next FOREIGN KEY).
	constraintName string
}

// NewMemo returns an empty memo parsing under dialect d (nil means MySQL).
func NewMemo(d *Dialect) *Memo {
	if d == nil {
		d = MySQL
	}
	return &Memo{d: d, stmts: map[string]memoEntry{}, shared: map[*schema.Table]struct{}{}}
}

// Parse parses src in Tolerant mode under the memo's dialect. The result
// equals ParseDialect(src, d), but its schema may hold tables shared with
// earlier and later results of the same memo.
func (m *Memo) Parse(src string) *Result {
	return parse(src, Tolerant, m.d, m)
}

// shares reports whether t is a recorded, read-only table. A nil memo
// shares nothing.
func (m *Memo) shares(t *schema.Table) bool {
	if m == nil {
		return false
	}
	_, ok := m.shared[t]
	return ok
}

// parseCreateMemo is parseCreate through the memo: a statement whose bytes
// were recorded is skipped and its table reused; any other is parsed, and
// recorded when it built a table with no error and ended on the first
// ';' byte after CREATE.
func (p *parser) parseCreateMemo(res *Result) {
	// Every token's text is the source slice ending at the lexer's
	// position, so the CREATE token starts len(Text) bytes back.
	src := p.lex.src
	start := p.lex.pos - len(p.tok.Text)
	n := strings.IndexByte(src[start:], ';')
	// A pending constraint name would reach into the statement's parse;
	// such a statement is parsed plainly.
	if n < 0 || p.constraintName != "" {
		p.parseCreate(res)
		return
	}
	stmt := src[start : start+n+1]
	if e, ok := p.memo.stmts[stmt]; ok {
		p.lex.pos = start + len(stmt)
		if e.lines == 0 {
			p.lex.line, p.lex.col = p.tok.Line, p.tok.Col+len(stmt)
		} else {
			p.lex.line, p.lex.col = p.tok.Line+e.lines, e.tail+1
		}
		p.constraintName = e.constraintName
		res.Schema.AddTable(e.table)
		res.CreateTables++
		p.next()
		return
	}
	errs := len(res.Errors)
	p.semiEnd = -1
	t := p.parseCreate(res)
	if t == nil || len(res.Errors) != errs || p.semiEnd != start+len(stmt) {
		return
	}
	p.memo.stmts[stmt] = memoEntry{
		table:          t,
		lines:          strings.Count(stmt, "\n"),
		tail:           len(stmt) - strings.LastIndexByte(stmt, '\n') - 1,
		constraintName: p.constraintName,
	}
	p.memo.shared[t] = struct{}{}
}
