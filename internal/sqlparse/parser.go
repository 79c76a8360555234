package sqlparse

import (
	"strings"

	"github.com/schemaevo/schemaevo/internal/schema"
)

// Result is the outcome of parsing one DDL file version.
type Result struct {
	// Schema is the logical schema declared by the file: the net effect of
	// all CREATE/DROP/ALTER TABLE statements, in order.
	Schema *schema.Schema
	// Errors collects statements the tolerant parser skipped.
	Errors []ParseError
	// Statements counts top-level statements seen (including skipped ones).
	Statements int
	// CreateTables counts CREATE TABLE statements successfully parsed.
	CreateTables int
}

// HasCreateTable reports whether at least one CREATE TABLE statement parsed,
// the paper's criterion for a version to be a schema declaration at all.
func (r *Result) HasCreateTable() bool { return r.CreateTables > 0 }

// Mode selects the parser's failure behaviour.
type Mode int

const (
	// Tolerant skips unparseable statements and records them in Errors.
	// This is the study's production mode.
	Tolerant Mode = iota
	// Strict stops at the first unparseable DDL statement. Used by the
	// ablation benchmarks to quantify the value of error recovery.
	Strict
)

// Parse parses src in Tolerant mode under the MySQL dialect.
func Parse(src string) *Result { return ParseMode(src, Tolerant) }

// ParseMode parses src with the given failure mode under the MySQL dialect.
func ParseMode(src string, mode Mode) *Result {
	return ParseModeDialect(src, mode, MySQL)
}

// ParseDialect parses src in Tolerant mode under the given dialect.
func ParseDialect(src string, d *Dialect) *Result {
	return ParseModeDialect(src, Tolerant, d)
}

// ParseModeDialect parses src with the given failure mode and dialect rules.
// A nil dialect means MySQL.
func ParseModeDialect(src string, mode Mode, d *Dialect) *Result {
	if d == nil {
		d = MySQL
	}
	return parse(src, mode, d, nil)
}

// parse parses src, through memo when it is not nil.
func parse(src string, mode Mode, d *Dialect, memo *Memo) *Result {
	p := &parser{lex: NewLexerDialect(src, d), mode: mode, d: d, memo: memo}
	p.next()
	res := &Result{Schema: schema.New()}
	for p.tok.Kind != TokEOF {
		if p.tok.IsPunct(';') {
			p.next()
			continue
		}
		res.Statements++
		switch {
		case p.tok.kw == kwCREATE && memo != nil:
			p.parseCreateMemo(res)
		case p.tok.kw == kwCREATE:
			p.parseCreate(res)
		case p.tok.kw == kwDROP:
			p.parseDrop(res)
		case p.tok.kw == kwALTER:
			p.parseAlter(res)
		case p.tok.kw == kwCOPY && p.d.copyFromStdin:
			p.parseCopy()
		default:
			// INSERT, SET, USE, LOCK, DELIMITER, etc.: skip statement.
			p.skipStatement()
		}
		if mode == Strict && len(res.Errors) > 0 {
			return res
		}
	}
	return res
}

type parser struct {
	lex  *Lexer
	tok  Token
	mode Mode
	d    *Dialect
	// constraintName carries a pending CONSTRAINT <name> prefix to the
	// element it qualifies.
	constraintName string
	// memo, when set, reuses the tables of repeated CREATE TABLE
	// statements; semiEnd is the source offset just past the last
	// top-level ';' skipStatement consumed, which tells it where a
	// statement ended.
	memo    *Memo
	semiEnd int
}

// parseCopy skips a PostgreSQL COPY statement. When the statement ends in
// FROM stdin, the lines after the ';' are raw data terminated by a lone
// `\.`; they must be skipped at the line level, not tokenized as SQL.
func (p *parser) parseCopy() {
	fromStdin := false
	sawFrom := false
	depth := 0
	for p.tok.Kind != TokEOF {
		switch {
		case p.tok.IsPunct('('):
			depth++
		case p.tok.IsPunct(')'):
			if depth > 0 {
				depth--
			}
		case p.tok.IsPunct(';') && depth == 0:
			if fromStdin {
				p.lex.skipCopyData()
			}
			p.next()
			return
		case p.tok.Kind == TokIdent:
			if sawFrom && p.tok.Is("stdin") {
				fromStdin = true
			}
			sawFrom = p.tok.Is("from")
		}
		p.next()
	}
}

// takeConstraintName consumes the pending constraint name.
func (p *parser) takeConstraintName() string {
	n := p.constraintName
	p.constraintName = ""
	return n
}

// next advances to the next non-comment token.
func (p *parser) next() {
	for {
		p.tok = p.lex.Next()
		if p.tok.Kind != TokComment {
			return
		}
	}
}

// skipStatement consumes tokens through the terminating semicolon (or EOF),
// balancing parentheses so a ';' inside a string or parenthesised expression
// does not end the statement early. (Strings are single tokens, so only
// parens need balancing.)
func (p *parser) skipStatement() {
	depth := 0
	for p.tok.Kind != TokEOF {
		switch {
		case p.tok.IsPunct('('):
			depth++
		case p.tok.IsPunct(')'):
			if depth > 0 {
				depth--
			}
		case p.tok.IsPunct(';') && depth == 0:
			p.semiEnd = p.lex.pos
			p.next()
			return
		}
		p.next()
	}
}

func (p *parser) fail(res *Result, msg string) {
	res.Errors = append(res.Errors, ParseError{Line: p.tok.Line, Col: p.tok.Col, Msg: msg})
	p.skipStatement()
}

// expectPunct consumes the given punctuation, reporting success.
func (p *parser) expectPunct(r byte) bool {
	if p.tok.IsPunct(r) {
		p.next()
		return true
	}
	return false
}

// qualifiedName parses ident[.ident], returning the final component (tables
// are compared per-file; schema qualifiers are irrelevant at the logical
// level).
func (p *parser) qualifiedName() (string, bool) {
	if p.tok.Kind != TokIdent {
		return "", false
	}
	name := p.tok.Ident()
	p.next()
	for p.tok.IsPunct('.') {
		p.next()
		if p.tok.Kind != TokIdent {
			return "", false
		}
		name = p.tok.Ident()
		p.next()
	}
	return name, true
}

// --- CREATE ---------------------------------------------------------------

// parseCreate parses one CREATE statement, returning the table it added to
// the schema, or nil when it added none.
func (p *parser) parseCreate(res *Result) *schema.Table {
	p.next() // CREATE
	// Swallow modifiers: TEMPORARY/TEMP, OR REPLACE.
	for p.tok.kw == kwTEMPORARY || p.tok.kw == kwTEMP || p.tok.kw == kwOR || p.tok.kw == kwREPLACE {
		p.next()
	}
	if p.tok.kw != kwTABLE {
		// CREATE DATABASE / INDEX / VIEW / TRIGGER ...: not logical-schema
		// capacity; skip silently (not an error — these are legitimate).
		p.skipStatement()
		return nil
	}
	p.next() // TABLE
	if p.tok.kw == kwIF {
		p.next()
		if p.tok.kw == kwNOT {
			p.next()
		}
		if p.tok.kw == kwEXISTS {
			p.next()
		}
	}
	name, ok := p.qualifiedName()
	if !ok || !hasLetter(name) {
		p.fail(res, "CREATE TABLE: expected table name")
		return nil
	}
	// CREATE TABLE x LIKE y; and CREATE TABLE x AS SELECT...: skip — no
	// explicit column list to measure.
	if p.tok.kw == kwLIKE || p.tok.kw == kwAS || p.tok.kw == kwSELECT {
		p.skipStatement()
		return nil
	}
	if !p.expectPunct('(') {
		p.fail(res, "CREATE TABLE "+name+": expected '('")
		return nil
	}

	t := schema.NewTable(name)
	for {
		if p.tok.Kind == TokEOF {
			p.fail(res, "CREATE TABLE "+name+": unexpected EOF in element list")
			return nil
		}
		if p.tok.IsPunct(')') { // tolerate trailing comma / empty list
			break
		}
		if !p.parseTableElement(t, res, name) {
			return nil
		}
		if p.tok.IsPunct(',') {
			p.next()
			continue
		}
		break
	}
	if !p.expectPunct(')') {
		p.fail(res, "CREATE TABLE "+name+": expected ')'")
		return nil
	}
	p.parseTableOptions(t)
	p.skipStatement() // through ';'
	res.Schema.AddTable(t)
	res.CreateTables++
	return t
}

// parseTableElement parses one comma-separated element of a CREATE TABLE
// body: a column definition or a table constraint. Returns false if the
// whole statement was abandoned.
func (p *parser) parseTableElement(t *schema.Table, res *Result, tname string) bool {
	switch {
	case p.tok.kw == kwPRIMARY:
		p.next()
		if p.tok.kw == kwKEY {
			p.next()
		}
		cols := p.parseParenNameList()
		if cols != nil {
			t.SetPrimaryKey(cols)
		}
		p.skipIndexOptions()
		return true
	case p.tok.kw == kwUNIQUE, p.tok.kw == kwKEY, p.tok.kw == kwINDEX,
		p.tok.kw == kwFULLTEXT, p.tok.kw == kwSPATIAL:
		// UNIQUE [KEY|INDEX] [name] (cols), KEY name (cols), etc. Indexes are
		// physical-level: parse and discard.
		p.next()
		if p.tok.kw == kwKEY || p.tok.kw == kwINDEX {
			p.next()
		}
		if p.tok.Kind == TokIdent && !p.tok.IsPunct('(') {
			p.next() // index name
		}
		if p.tok.kw == kwUSING {
			p.next()
			p.next()
		}
		p.parseParenNameList()
		p.skipIndexOptions()
		return true
	case p.tok.kw == kwCONSTRAINT:
		p.next()
		name := ""
		if p.tok.Kind == TokIdent && p.tok.kw != kwPRIMARY && p.tok.kw != kwFOREIGN &&
			p.tok.kw != kwUNIQUE && p.tok.kw != kwCHECK {
			name = p.tok.Ident()
			p.next()
		}
		p.constraintName = name
		return p.parseTableElement(t, res, tname)
	case p.tok.kw == kwFOREIGN:
		// FOREIGN KEY (cols) REFERENCES tbl (cols) [ON ...]. Not counted by
		// the paper's activity measures (see its "open paths"); retained in
		// the model for the constraint-usage extension.
		p.next()
		if p.tok.kw == kwKEY {
			p.next()
		}
		if p.tok.Kind == TokIdent && !p.tok.IsPunct('(') {
			p.next() // index name
		}
		fk := &schema.ForeignKey{Name: p.takeConstraintName()}
		fk.Columns = p.parseParenNameList()
		if p.tok.kw == kwREFERENCES {
			p.next()
			if ref, ok := p.qualifiedName(); ok {
				fk.RefTable = ref
			}
			fk.RefColumns = p.parseParenNameList()
			fk.OnDelete, fk.OnUpdate = p.parseReferentialActions()
		}
		if len(fk.Columns) > 0 && fk.RefTable != "" {
			t.AddForeignKey(fk)
		}
		return true
	case p.tok.kw == kwCHECK:
		p.next()
		p.skipBalancedParens()
		return true
	}

	// Column definition.
	if p.tok.Kind != TokIdent {
		p.fail(res, "CREATE TABLE "+tname+": expected column or constraint")
		return false
	}
	col := &schema.Column{Name: p.tok.Ident(), Nullable: true}
	p.next()
	dt, ok := p.parseDataType()
	if !ok {
		p.fail(res, "CREATE TABLE "+tname+": column "+col.Name+": expected data type")
		return false
	}
	col.Type = dt
	p.parseColumnAttributes(col, t)
	t.AddColumn(col)
	return true
}

// parseDataType parses a type name, optional (args), and modifiers.
func (p *parser) parseDataType() (schema.DataType, bool) {
	if p.tok.Kind != TokIdent {
		return schema.DataType{}, false
	}
	dt := schema.DataType{Name: lowerWord(p.tok.Ident())}
	p.next()
	// Multi-word and dialect types: DOUBLE PRECISION, CHARACTER VARYING,
	// LONG VARCHAR, TIMESTAMP WITH[OUT] TIME ZONE, and PostgreSQL's SERIAL
	// family (an auto-incrementing integer at the logical level).
	switch dt.Name {
	case "double":
		if p.tok.kw == kwPRECISION {
			p.next()
		}
	case "character":
		if p.tok.kw == kwVARYING {
			dt.Name = "varchar"
			p.next()
		} else {
			dt.Name = "char"
		}
	case "long":
		if p.tok.kw == kwVARCHAR || p.tok.kw == kwVARBINARY {
			dt.Name = "long" + strings.ToLower(p.tok.Ident())
			p.next()
		}
	case "timestamp", "time":
		if p.tok.kw == kwWITH || p.tok.kw == kwWITHOUT {
			// WITH[OUT] TIME ZONE: logical capacity is the base type.
			p.next()
			if p.tok.kw == kwTIME {
				p.next()
			}
			if p.tok.kw == kwZONE {
				p.next()
			}
		}
	case "serial":
		dt.Name = "int"
	case "bigserial":
		dt.Name = "bigint"
	case "smallserial":
		dt.Name = "smallint"
	}
	// Dialect type ladder: canonicalize vendor spellings (integer → int,
	// numeric → decimal, ...) so a dialect's spelling never reads as a
	// different logical type. MySQL's ladder is the identity.
	dt.Name = p.d.canonType(dt.Name)
	if p.tok.IsPunct('(') {
		p.next()
		depth := 0
		// Nearly every arg is a single token — `(11)`, `(10,2)`, enum
		// values — so keep the first token as a zero-copy view of the
		// source and only fall back to a builder when a second token
		// extends the same arg.
		var arg strings.Builder
		first := ""
		haveFirst := false
		flush := func() {
			switch {
			case arg.Len() > 0:
				dt.Args = append(dt.Args, arg.String())
				arg.Reset()
			case haveFirst:
				dt.Args = append(dt.Args, first)
			}
			first, haveFirst = "", false
		}
		for p.tok.Kind != TokEOF {
			if p.tok.IsPunct('(') {
				depth++
			} else if p.tok.IsPunct(')') {
				if depth == 0 {
					p.next()
					break
				}
				depth--
			} else if p.tok.IsPunct(',') && depth == 0 {
				flush()
				p.next()
				continue
			}
			if !haveFirst && arg.Len() == 0 {
				first, haveFirst = p.tok.Text, true
			} else {
				if arg.Len() == 0 {
					arg.WriteString(first)
					first, haveFirst = "", false
				}
				arg.WriteString(p.tok.Text)
			}
			p.next()
		}
		flush()
	}
	for {
		switch {
		case p.tok.kw == kwUNSIGNED:
			dt.Unsigned = true
			p.next()
		case p.tok.kw == kwSIGNED:
			p.next()
		case p.tok.kw == kwZEROFILL:
			dt.Zerofill = true
			p.next()
		case p.tok.kw == kwBINARY && dt.Name != "binary":
			p.next() // charset modifier on text types
		case p.tok.Kind == TokIdent && p.tok.Text == "[]":
			// PostgreSQL array suffix: int[], text[][] (the lexer reads the
			// empty bracket pair as one token).
			p.next()
			dt.Name += "[]"
		default:
			return dt, true
		}
	}
}

// consumeCast swallows PostgreSQL '::type' casts after a default value.
func (p *parser) consumeCast() {
	for p.tok.IsPunct(':') {
		p.next()
		if p.tok.IsPunct(':') {
			p.next()
		}
		if p.tok.Kind == TokIdent {
			p.parseDataType() // type name incl. args/arrays
		}
	}
}

// parseColumnAttributes consumes column modifiers after the type. An inline
// PRIMARY KEY registers the column into the table's PK.
func (p *parser) parseColumnAttributes(col *schema.Column, t *schema.Table) {
	for {
		switch {
		case p.tok.kw == kwNOT:
			p.next()
			if p.tok.kw == kwNULL {
				p.next()
			}
			col.Nullable = false
		case p.tok.kw == kwNULL:
			col.Nullable = true
			p.next()
		case p.tok.kw == kwDEFAULT:
			p.next()
			col.HasDefault = true
			col.Default = p.parseValueExpr()
			p.consumeCast() // PostgreSQL: DEFAULT '{}'::jsonb
		case p.tok.kw == kwAUTO_INCREMENT, p.tok.kw == kwAUTOINCREMENT:
			col.AutoInc = true
			p.next()
		case p.tok.kw == kwPRIMARY:
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
			t.SetPrimaryKey(append(append([]string{}, t.PrimaryKey...), col.Name))
		case p.tok.kw == kwUNIQUE:
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
		case p.tok.kw == kwKEY:
			p.next()
		case p.tok.kw == kwCOMMENT:
			p.next()
			if p.tok.Kind == TokString {
				col.Comment = p.tok.Text
				p.next()
			}
		case p.tok.kw == kwCOLLATE:
			p.next()
			p.next()
		case p.tok.kw == kwCHARACTER:
			p.next()
			if p.tok.kw == kwSET {
				p.next()
				p.next()
			}
		case p.tok.kw == kwCHARSET:
			p.next()
			p.next()
		case p.tok.kw == kwON:
			// ON UPDATE CURRENT_TIMESTAMP [(n)]
			p.next()
			if p.tok.kw == kwUPDATE || p.tok.kw == kwDELETE {
				p.next()
				p.parseValueExpr()
			}
		case p.tok.kw == kwGENERATED, p.tok.kw == kwVIRTUAL, p.tok.kw == kwSTORED, p.tok.kw == kwALWAYS:
			p.next()
		case p.tok.kw == kwAS:
			p.next()
			p.skipBalancedParens()
		case p.tok.kw == kwREFERENCES:
			// Inline column-level foreign key.
			p.next()
			fk := &schema.ForeignKey{Columns: []string{col.Name}}
			if ref, ok := p.qualifiedName(); ok {
				fk.RefTable = ref
			}
			fk.RefColumns = p.parseParenNameList()
			fk.OnDelete, fk.OnUpdate = p.parseReferentialActions()
			if fk.RefTable != "" {
				t.AddForeignKey(fk)
			}
		case p.tok.kw == kwCHECK:
			p.next()
			p.skipBalancedParens()
		case p.tok.kw == kwSERIAL:
			p.next()
		default:
			return
		}
	}
}

// parseValueExpr consumes one default-value expression: a literal, NULL, a
// function call like CURRENT_TIMESTAMP(6) or now(), or a signed number.
func (p *parser) parseValueExpr() string {
	switch {
	case p.tok.Kind == TokString, p.tok.Kind == TokNumber:
		v := p.tok.Text
		p.next()
		return v
	case p.tok.IsPunct('-'), p.tok.IsPunct('+'):
		sign := p.tok.Text
		p.next()
		if p.tok.Kind == TokNumber {
			v := sign + p.tok.Text
			p.next()
			return v
		}
		return sign
	case p.tok.IsPunct('('):
		var b strings.Builder
		p.captureBalancedParens(&b)
		return b.String()
	case p.tok.Kind == TokIdent:
		v := p.tok.Ident()
		p.next()
		if p.tok.IsPunct('(') {
			var b strings.Builder
			b.WriteString(v)
			p.captureBalancedParens(&b)
			return b.String()
		}
		return v
	}
	return ""
}

// parseParenNameList parses "(a, b(10), c ASC)" and returns the bare column
// names, or nil if the current token is not '('.
func (p *parser) parseParenNameList() []string {
	if !p.tok.IsPunct('(') {
		return nil
	}
	p.next()
	var names []string
	for p.tok.Kind != TokEOF && !p.tok.IsPunct(')') {
		if p.tok.Kind == TokIdent && p.tok.kw != kwASC && p.tok.kw != kwDESC {
			names = append(names, p.tok.Ident())
			p.next()
			if p.tok.IsPunct('(') { // prefix length: name(10)
				p.skipBalancedParens()
			}
			for p.tok.kw == kwASC || p.tok.kw == kwDESC {
				p.next()
			}
		} else {
			p.next()
		}
		if p.tok.IsPunct(',') {
			p.next()
		}
	}
	if p.tok.IsPunct(')') {
		p.next()
	}
	return names
}

func (p *parser) skipBalancedParens() {
	if !p.tok.IsPunct('(') {
		return
	}
	depth := 0
	for p.tok.Kind != TokEOF {
		if p.tok.IsPunct('(') {
			depth++
		} else if p.tok.IsPunct(')') {
			depth--
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

func (p *parser) captureBalancedParens(b *strings.Builder) {
	depth := 0
	for p.tok.Kind != TokEOF {
		b.WriteString(p.tok.Text)
		if p.tok.IsPunct('(') {
			depth++
		} else if p.tok.IsPunct(')') {
			depth--
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// skipIndexOptions consumes USING BTREE, KEY_BLOCK_SIZE=n, COMMENT '...'.
func (p *parser) skipIndexOptions() {
	for {
		switch {
		case p.tok.kw == kwUSING:
			p.next()
			p.next()
		case p.tok.kw == kwKEY_BLOCK_SIZE:
			p.next()
			if p.tok.IsPunct('=') {
				p.next()
			}
			p.next()
		case p.tok.kw == kwCOMMENT:
			p.next()
			p.next()
		default:
			return
		}
	}
}

// parseReferentialActions consumes ON DELETE/UPDATE CASCADE|SET NULL|... and
// MATCH clauses after REFERENCES, returning the lower-cased actions.
func (p *parser) parseReferentialActions() (onDelete, onUpdate string) {
	for {
		switch {
		case p.tok.kw == kwON:
			p.next()
			kind := lowerWord(p.tok.Ident())
			p.next() // DELETE | UPDATE
			var action string
			switch {
			case p.tok.kw == kwSET:
				p.next()
				action = "set " + lowerWord(p.tok.Ident())
				p.next() // NULL | DEFAULT
			case p.tok.kw == kwNO:
				p.next()
				action = "no action"
				p.next() // ACTION
			default:
				action = lowerWord(p.tok.Ident())
				p.next() // CASCADE | RESTRICT
			}
			if kind == "delete" {
				onDelete = action
			} else if kind == "update" {
				onUpdate = action
			}
		case p.tok.kw == kwMATCH:
			p.next()
			p.next()
		default:
			return onDelete, onUpdate
		}
	}
}

// parseTableOptions consumes ENGINE=InnoDB DEFAULT CHARSET=utf8 ... into the
// table's option map (annotations only).
func (p *parser) parseTableOptions(t *schema.Table) {
	for p.tok.Kind == TokIdent {
		key := lowerWord(p.tok.Ident())
		p.next()
		if key == "default" && (p.tok.kw == kwCHARSET || p.tok.kw == kwCHARACTER || p.tok.kw == kwCOLLATE) {
			continue
		}
		if key == "character" && p.tok.kw == kwSET {
			key = "charset"
			p.next()
		}
		if p.tok.IsPunct('=') {
			p.next()
		}
		var val string
		switch p.tok.Kind {
		case TokIdent, TokNumber, TokString:
			val = p.tok.Text
			p.next()
		default:
			return
		}
		if t.Options == nil {
			t.Options = make(map[string]string)
		}
		t.Options[key] = val
		if p.tok.IsPunct(',') {
			p.next()
		}
	}
}

// --- DROP -----------------------------------------------------------------

func (p *parser) parseDrop(res *Result) {
	p.next() // DROP
	if p.tok.kw != kwTABLE {
		p.skipStatement() // DROP DATABASE / INDEX / VIEW ...
		return
	}
	p.next()
	if p.tok.kw == kwIF {
		p.next()
		if p.tok.kw == kwEXISTS {
			p.next()
		}
	}
	for {
		name, ok := p.qualifiedName()
		if !ok {
			p.fail(res, "DROP TABLE: expected table name")
			return
		}
		res.Schema.DropTable(name)
		if !p.tok.IsPunct(',') {
			break
		}
		p.next()
	}
	p.skipStatement()
}

// --- ALTER ----------------------------------------------------------------

func (p *parser) parseAlter(res *Result) {
	p.next() // ALTER
	for p.tok.kw == kwONLINE || p.tok.kw == kwOFFLINE || p.tok.kw == kwIGNORE {
		p.next()
	}
	if p.tok.kw != kwTABLE {
		p.skipStatement()
		return
	}
	p.next()
	if p.tok.kw == kwONLY { // PostgreSQL: ALTER TABLE ONLY name
		p.next()
	}
	if p.tok.kw == kwIF {
		p.next()
		if p.tok.kw == kwEXISTS {
			p.next()
		}
	}
	name, ok := p.qualifiedName()
	if !ok {
		p.fail(res, "ALTER TABLE: expected table name")
		return
	}
	t := res.Schema.Table(name)
	switch {
	case t == nil:
		// Altering an unknown table: the file may alter tables created
		// elsewhere. Tolerate by creating a shell so column adds register.
		t = schema.NewTable(name)
		res.Schema.AddTable(t)
	case p.memo.shares(t):
		// Copy on write: other versions share the memo's table.
		t = t.Clone()
		res.Schema.AddTable(t)
	}
	for p.tok.Kind != TokEOF && !p.tok.IsPunct(';') {
		if !p.parseAlterAction(t, res) {
			return
		}
		if p.tok.IsPunct(',') {
			p.next()
		}
	}
	p.skipStatement()
}

func (p *parser) parseAlterAction(t *schema.Table, res *Result) bool {
	switch {
	case p.tok.kw == kwADD:
		p.next()
		switch {
		case p.tok.kw == kwCOLUMN:
			p.next()
			return p.parseAlterAddColumn(t, res)
		case p.tok.kw == kwPRIMARY:
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
			if cols := p.parseParenNameList(); cols != nil {
				t.SetPrimaryKey(cols)
			}
			p.skipIndexOptions()
			return true
		case p.tok.kw == kwUNIQUE, p.tok.kw == kwINDEX, p.tok.kw == kwKEY,
			p.tok.kw == kwFULLTEXT, p.tok.kw == kwSPATIAL, p.tok.kw == kwCONSTRAINT,
			p.tok.kw == kwFOREIGN, p.tok.kw == kwCHECK:
			return p.parseTableElement(t, res, t.Name)
		case p.tok.IsPunct('('):
			// ADD (col def, col def)
			p.next()
			for p.tok.Kind != TokEOF && !p.tok.IsPunct(')') {
				if !p.parseAlterAddColumn(t, res) {
					return false
				}
				if p.tok.IsPunct(',') {
					p.next()
				}
			}
			p.expectPunct(')')
			return true
		default:
			return p.parseAlterAddColumn(t, res)
		}
	case p.tok.kw == kwDROP:
		p.next()
		switch {
		case p.tok.kw == kwCOLUMN:
			p.next()
			if p.tok.Kind == TokIdent {
				t.DropColumn(p.tok.Ident())
				p.next()
			}
			return true
		case p.tok.kw == kwPRIMARY:
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
			t.PrimaryKey = nil
			return true
		case p.tok.kw == kwFOREIGN, p.tok.kw == kwCONSTRAINT:
			// DROP FOREIGN KEY name / DROP CONSTRAINT name.
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
			if p.tok.Kind == TokIdent {
				name := schema.Normalize(p.tok.Ident())
				kept := t.ForeignKeys[:0]
				for _, fk := range t.ForeignKeys {
					if schema.Normalize(fk.Name) != name {
						kept = append(kept, fk)
					}
				}
				t.ForeignKeys = kept
				p.next()
			}
			return true
		case p.tok.kw == kwINDEX, p.tok.kw == kwKEY, p.tok.kw == kwCHECK:
			p.next()
			if p.tok.kw == kwKEY {
				p.next()
			}
			if p.tok.Kind == TokIdent {
				p.next()
			}
			return true
		default:
			if p.tok.Kind == TokIdent { // DROP colname
				t.DropColumn(p.tok.Ident())
				p.next()
			}
			return true
		}
	case p.tok.kw == kwMODIFY:
		p.next()
		if p.tok.kw == kwCOLUMN {
			p.next()
		}
		if p.tok.Kind != TokIdent {
			p.fail(res, "ALTER TABLE "+t.Name+": MODIFY expects column")
			return false
		}
		cname := p.tok.Ident()
		p.next()
		dt, ok := p.parseDataType()
		if !ok {
			p.fail(res, "ALTER TABLE "+t.Name+": MODIFY "+cname+": expected type")
			return false
		}
		col := t.Column(cname)
		if col == nil {
			col = &schema.Column{Name: cname, Nullable: true}
			t.AddColumn(col)
		}
		col.Type = dt
		p.parseColumnAttributes(col, t)
		p.skipColumnPosition()
		return true
	case p.tok.kw == kwCHANGE:
		p.next()
		if p.tok.kw == kwCOLUMN {
			p.next()
		}
		if p.tok.Kind != TokIdent {
			p.fail(res, "ALTER TABLE "+t.Name+": CHANGE expects column")
			return false
		}
		oldName := p.tok.Ident()
		p.next()
		if p.tok.Kind != TokIdent {
			p.fail(res, "ALTER TABLE "+t.Name+": CHANGE expects new column name")
			return false
		}
		newName := p.tok.Ident()
		p.next()
		dt, ok := p.parseDataType()
		if !ok {
			p.fail(res, "ALTER TABLE "+t.Name+": CHANGE "+oldName+": expected type")
			return false
		}
		wasPK := t.HasPKColumn(oldName)
		t.DropColumn(oldName)
		col := &schema.Column{Name: newName, Type: dt, Nullable: true}
		t.AddColumn(col)
		if wasPK {
			t.SetPrimaryKey(append(append([]string{}, t.PrimaryKey...), newName))
		}
		p.parseColumnAttributes(col, t)
		p.skipColumnPosition()
		return true
	case p.tok.kw == kwRENAME:
		p.next()
		if p.tok.kw == kwTO || p.tok.kw == kwAS {
			p.next()
		}
		if p.tok.kw == kwCOLUMN {
			p.next()
			old := ""
			if p.tok.Kind == TokIdent {
				old = p.tok.Ident()
				p.next()
			}
			if p.tok.kw == kwTO {
				p.next()
			}
			if p.tok.Kind == TokIdent && old != "" {
				if c := t.Column(old); c != nil {
					wasPK := t.HasPKColumn(old)
					newName := p.tok.Ident()
					t.DropColumn(old)
					nc := *c
					nc.Name = newName
					t.AddColumn(&nc)
					if wasPK {
						t.SetPrimaryKey(append(append([]string{}, t.PrimaryKey...), newName))
					}
				}
				p.next()
			}
			return true
		}
		if p.tok.Kind == TokIdent {
			// RENAME TO newname. The diff layer has no rename operation (a
			// renamed table reads as death+birth, matching Hecate), but at
			// parse time the net schema simply carries the new name.
			res.Schema.RenameTable(t.Name, p.tok.Ident())
			p.next()
		}
		return true
	default:
		// ENGINE=..., AUTO_INCREMENT=..., CONVERT TO CHARACTER SET, ORDER BY:
		// physical options; skip one option token-wise.
		p.next()
		if p.tok.IsPunct('=') {
			p.next()
			p.next()
		}
		return true
	}
}

// skipColumnPosition consumes FIRST / AFTER col.
func (p *parser) skipColumnPosition() {
	if p.tok.kw == kwFIRST {
		p.next()
	} else if p.tok.kw == kwAFTER {
		p.next()
		if p.tok.Kind == TokIdent {
			p.next()
		}
	}
}

func (p *parser) parseAlterAddColumn(t *schema.Table, res *Result) bool {
	if p.tok.Kind != TokIdent {
		p.fail(res, "ALTER TABLE "+t.Name+": ADD expects column name")
		return false
	}
	col := &schema.Column{Name: p.tok.Ident(), Nullable: true}
	p.next()
	dt, ok := p.parseDataType()
	if !ok {
		p.fail(res, "ALTER TABLE "+t.Name+": ADD "+col.Name+": expected type")
		return false
	}
	col.Type = dt
	p.parseColumnAttributes(col, t)
	p.skipColumnPosition()
	t.AddColumn(col)
	return true
}

// lowerWords caches the lower-casing of the upper-case SQL words the
// parse hot path sees constantly (type names, table options,
// referential actions), so lowerWord does not allocate for them.
var lowerWords = map[string]string{
	"INT": "int", "INTEGER": "integer", "BIGINT": "bigint",
	"SMALLINT": "smallint", "TINYINT": "tinyint", "MEDIUMINT": "mediumint",
	"VARCHAR": "varchar", "TEXT": "text", "DATETIME": "datetime",
	"TIMESTAMP": "timestamp", "DECIMAL": "decimal", "DOUBLE": "double",
	"FLOAT": "float", "CHAR": "char", "BLOB": "blob", "DATE": "date",
	"TIME": "time", "ENGINE": "engine", "CHARSET": "charset",
	"COLLATE": "collate", "DEFAULT": "default", "COMMENT": "comment",
	"AUTO_INCREMENT": "auto_increment", "CASCADE": "cascade",
	"RESTRICT": "restrict", "NULL": "null", "ACTION": "action",
	"DELETE": "delete", "UPDATE": "update",
}

// lowerWord is strings.ToLower for identifier words, allocation-free in
// the two dominant cases: the word is already lower-case, or it is one
// of the known upper-case SQL words.
func lowerWord(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			return strings.ToLower(s) // non-ASCII: defer entirely
		}
		if 'A' <= c && c <= 'Z' {
			if l, ok := lowerWords[s]; ok {
				return l
			}
			return strings.ToLower(s)
		}
	}
	return s
}
