// Package schema defines the logical-level relational schema model used
// throughout the study: schemata, tables, columns (attributes), data types
// and primary keys.
//
// The model deliberately captures only the logical capacity of a schema —
// the elements whose change the paper measures: tables, attributes, attribute
// data types and primary-key participation. Physical concerns (indexes,
// engines, charsets) are retained as opaque annotations so that changes to
// them can be recognised as non-active commits, but they never contribute to
// Expansion or Maintenance.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is one version of a database schema: an ordered collection of
// tables. Table lookup is case-insensitive, following MySQL's default
// behaviour on the case-insensitive file systems most FOSS projects target.
type Schema struct {
	// Tables in declaration order. Lookup is a linear scan over cached
	// normalized names: real dumps hold tens of tables, where the scan
	// beats a map's per-schema bucket allocations and string hashing.
	Tables []*Table
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{}
}

// Normalize canonicalises an identifier for lookup: backtick/bracket/quote
// stripping and lower-casing. Typical identifiers are already canonical,
// and Normalize sits on the diff hot path, so it returns the input
// unchanged (no allocation, single scan) whenever no byte needs work.
func Normalize(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') || normalizeTrimmed(c) ||
			c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			name = strings.TrimSpace(name)
			name = strings.Trim(name, "`\"'[]")
			return strings.ToLower(name)
		}
	}
	return name
}

// normalizeTrimmed reports whether c is in Normalize's trim cutset.
func normalizeTrimmed(c byte) bool {
	return c == '`' || c == '"' || c == '\'' || c == '[' || c == ']'
}

// AddTable appends t to the schema. If a table with the same normalized name
// already exists it is replaced in place, matching the semantics of
// re-declaring a table in a DDL dump (the last declaration wins). A table
// whose cached name is current is not written to, so one read-only table
// can be added to many schemas.
func (s *Schema) AddTable(t *Table) {
	key := Normalize(t.Name)
	if t.norm != key {
		t.norm = key
	}
	for i, existing := range s.Tables {
		if existing.NormName() == key {
			s.Tables[i] = t
			return
		}
	}
	s.Tables = append(s.Tables, t)
}

// DropTable removes the named table. It reports whether a table was removed.
func (s *Schema) DropTable(name string) bool {
	key := Normalize(name)
	for i, existing := range s.Tables {
		if existing.NormName() == key {
			s.Tables = append(s.Tables[:i], s.Tables[i+1:]...)
			return true
		}
	}
	return false
}

// RenameTable re-registers the table old under name new, reporting whether
// old existed. Renaming onto an existing name replaces that table, matching
// MySQL's RENAME semantics when the target was first dropped.
func (s *Schema) RenameTable(old, new string) bool {
	t := s.Table(old)
	if t == nil {
		return false
	}
	newKey := Normalize(new)
	for i, existing := range s.Tables {
		if existing != t && existing.NormName() == newKey {
			s.Tables = append(s.Tables[:i], s.Tables[i+1:]...)
			break
		}
	}
	t.Name = new
	t.norm = newKey
	return true
}

// Table returns the table with the given (normalized) name, or nil.
func (s *Schema) Table(name string) *Table {
	key := Normalize(name)
	for _, t := range s.Tables {
		if t.NormName() == key {
			return t
		}
	}
	return nil
}

// NumTables returns the number of tables in the schema.
func (s *Schema) NumTables() int { return len(s.Tables) }

// NumColumns returns the total number of attributes over all tables.
func (s *Schema) NumColumns() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Columns)
	}
	return n
}

// TableNames returns the normalized names of all tables, sorted.
func (s *Schema) TableNames() []string {
	names := make([]string, 0, len(s.Tables))
	for _, t := range s.Tables {
		names = append(names, Normalize(t.Name))
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := New()
	for _, t := range s.Tables {
		out.AddTable(t.Clone())
	}
	return out
}

// Table is one relational table: a named, ordered list of columns plus an
// optional primary key (a set of column names) and foreign keys.
type Table struct {
	Name    string
	Columns []*Column
	// PrimaryKey lists the normalized names of the PK columns, in key order.
	PrimaryKey []string
	// ForeignKeys lists referential constraints. The paper's activity
	// measures do not count them (see its "open paths" discussion and
	// ref [12]); they are retained for the constraint-usage extension.
	ForeignKeys []*ForeignKey
	// Options holds opaque physical-level table options (ENGINE=..., etc.).
	Options map[string]string

	// norm caches Normalize(Name); maintained by NewTable, AddTable and
	// RenameTable, read via NormName. Column lookup is a linear scan over
	// the columns' cached norms — tables are small enough that the scan
	// beats a per-table map (bucket allocation + hashing per column).
	norm string
}

// ForeignKey is one referential constraint.
type ForeignKey struct {
	// Name is the constraint name ("" when anonymous).
	Name string
	// Columns are the normalized referencing column names.
	Columns []string
	// RefTable and RefColumns identify the referenced side (normalized).
	RefTable   string
	RefColumns []string
	// OnDelete/OnUpdate hold the referential actions (lower-case, "" when
	// unspecified).
	OnDelete string
	OnUpdate string
}

// Key returns a canonical identity for diffing: the column sets and target,
// ignoring the constraint name (dumps rename constraints freely).
func (fk *ForeignKey) Key() string {
	return strings.Join(fk.Columns, ",") + "->" + fk.RefTable + "(" + strings.Join(fk.RefColumns, ",") + ")"
}

// AddForeignKey appends a constraint, normalizing all identifiers in place
// (the table takes ownership of fk and its slices).
func (t *Table) AddForeignKey(fk *ForeignKey) {
	for i, x := range fk.Columns {
		fk.Columns[i] = Normalize(x)
	}
	fk.RefTable = Normalize(fk.RefTable)
	for i, x := range fk.RefColumns {
		fk.RefColumns[i] = Normalize(x)
	}
	t.ForeignKeys = append(t.ForeignKeys, fk)
}

// DropForeignKeysOn removes constraints that reference the given column of
// this table (used when the column is dropped).
func (t *Table) DropForeignKeysOn(column string) {
	col := Normalize(column)
	kept := t.ForeignKeys[:0]
	for _, fk := range t.ForeignKeys {
		refs := false
		for _, c := range fk.Columns {
			if c == col {
				refs = true
				break
			}
		}
		if !refs {
			kept = append(kept, fk)
		}
	}
	t.ForeignKeys = kept
}

// DropForeignKeysTo removes, across the whole schema, constraints that
// reference the named table (used when the table is dropped).
func (s *Schema) DropForeignKeysTo(table string) {
	target := Normalize(table)
	for _, t := range s.Tables {
		kept := t.ForeignKeys[:0]
		for _, fk := range t.ForeignKeys {
			if fk.RefTable != target {
				kept = append(kept, fk)
			}
		}
		t.ForeignKeys = kept
	}
}

// DropForeignKeysToColumn removes, across the whole schema, constraints
// whose referenced side includes the given column of the given table (used
// when that column is dropped).
func (s *Schema) DropForeignKeysToColumn(table, column string) {
	target, col := Normalize(table), Normalize(column)
	for _, t := range s.Tables {
		kept := t.ForeignKeys[:0]
		for _, fk := range t.ForeignKeys {
			refs := false
			if fk.RefTable == target {
				for _, rc := range fk.RefColumns {
					if rc == col {
						refs = true
						break
					}
				}
			}
			if !refs {
				kept = append(kept, fk)
			}
		}
		t.ForeignKeys = kept
	}
}

// Equal reports whether two schemas are identical at the logical level:
// same table set, same column sets with equal types, same primary keys and
// the same foreign-key identities. Column order, constraint names, physical
// options, defaults and nullability are ignored — exactly the capacity the
// study measures.
func Equal(a, b *Schema) bool {
	if a.NumTables() != b.NumTables() {
		return false
	}
	for _, ta := range a.Tables {
		tb := b.Table(ta.Name)
		if tb == nil || !tableEqual(ta, tb) {
			return false
		}
	}
	return true
}

func tableEqual(a, b *Table) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for _, ca := range a.Columns {
		cb := b.Column(ca.Name)
		if cb == nil || !ca.Type.Equal(cb.Type) {
			return false
		}
	}
	if len(a.PrimaryKey) != len(b.PrimaryKey) {
		return false
	}
	pk := map[string]bool{}
	for _, c := range a.PrimaryKey {
		pk[c] = true
	}
	for _, c := range b.PrimaryKey {
		if !pk[c] {
			return false
		}
	}
	if len(a.ForeignKeys) != len(b.ForeignKeys) {
		return false
	}
	fks := map[string]int{}
	for _, fk := range a.ForeignKeys {
		fks[fk.Key()]++
	}
	for _, fk := range b.ForeignKeys {
		fks[fk.Key()]--
		if fks[fk.Key()] < 0 {
			return false
		}
	}
	return true
}

// NumForeignKeys returns the total number of constraints over all tables.
func (s *Schema) NumForeignKeys() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.ForeignKeys)
	}
	return n
}

// NewTable returns an empty table with the given name.
func NewTable(name string) *Table {
	return &Table{Name: name, norm: Normalize(name)}
}

// NormName returns the cached normalized table name, computing it on
// first use for tables built outside NewTable/AddTable.
func (t *Table) NormName() string {
	if t.norm == "" {
		if n := Normalize(t.Name); n != "" {
			t.norm = n
		}
	}
	return t.norm
}

// AddColumn appends c. Re-declaring a column name replaces the existing one.
func (t *Table) AddColumn(c *Column) {
	key := Normalize(c.Name)
	c.norm = key
	for i, existing := range t.Columns {
		if existing.NormName() == key {
			t.Columns[i] = c
			return
		}
	}
	t.Columns = append(t.Columns, c)
}

// DropColumn removes the named column, reporting whether it existed. A column
// participating in the primary key is also removed from the key.
func (t *Table) DropColumn(name string) bool {
	key := Normalize(name)
	found := false
	for i, existing := range t.Columns {
		if existing.NormName() == key {
			t.Columns = append(t.Columns[:i], t.Columns[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	for i, pk := range t.PrimaryKey {
		if pk == key {
			t.PrimaryKey = append(t.PrimaryKey[:i], t.PrimaryKey[i+1:]...)
			break
		}
	}
	t.DropForeignKeysOn(key)
	return true
}

// Column returns the column with the given (normalized) name, or nil.
func (t *Table) Column(name string) *Column {
	key := Normalize(name)
	for _, c := range t.Columns {
		if c.NormName() == key {
			return c
		}
	}
	return nil
}

// SetPrimaryKey replaces the table's primary key with the given column names
// (normalized). Unknown column names are kept verbatim: real-world dumps
// occasionally declare keys before columns and the diff layer only compares
// name sets.
func (t *Table) SetPrimaryKey(cols []string) {
	pk := make([]string, len(cols))
	for i, c := range cols {
		pk[i] = Normalize(c)
	}
	t.PrimaryKey = pk
}

// HasPKColumn reports whether the normalized column name participates in the
// primary key.
func (t *Table) HasPKColumn(name string) bool {
	return t.HasPKNorm(Normalize(name))
}

// HasPKNorm is HasPKColumn for a key that is already normalized — the
// diff survivors pass asks this for every surviving column of every
// transition, where re-normalizing canonical names would dominate.
func (t *Table) HasPKNorm(key string) bool {
	for _, pk := range t.PrimaryKey {
		if pk == key {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.Name)
	for _, c := range t.Columns {
		cc := *c
		out.AddColumn(&cc)
	}
	out.PrimaryKey = append([]string(nil), t.PrimaryKey...)
	for _, fk := range t.ForeignKeys {
		cp := *fk
		cp.Columns = append([]string(nil), fk.Columns...)
		cp.RefColumns = append([]string(nil), fk.RefColumns...)
		out.ForeignKeys = append(out.ForeignKeys, &cp)
	}
	if t.Options != nil {
		out.Options = make(map[string]string, len(t.Options))
		for k, v := range t.Options {
			out.Options[k] = v
		}
	}
	return out
}

// Column is one attribute of a table.
type Column struct {
	Name     string
	Type     DataType
	Nullable bool
	// HasDefault and Default capture DEFAULT clauses; they are annotations
	// only and do not participate in type-change detection.
	HasDefault bool
	Default    string
	AutoInc    bool
	Comment    string

	// norm caches Normalize(Name); set by AddColumn, read via NormName.
	norm string
}

// NormName returns the cached normalized column name, computing it on
// first use for columns built outside AddColumn. The diff hot path
// reads every column's normalized name on every transition, so the
// cache replaces millions of Normalize calls per pipeline run.
func (c *Column) NormName() string {
	if c.norm == "" {
		if n := Normalize(c.Name); n != "" {
			c.norm = n
		}
	}
	return c.norm
}

// DataType is a parsed SQL data type: a name plus optional arguments
// (length/precision/enum values) and MySQL modifiers.
type DataType struct {
	Name     string   // lower-cased base name, e.g. "varchar", "int", "enum"
	Args     []string // raw argument lexemes, e.g. ["255"] or ["'a'", "'b'"]
	Unsigned bool
	Zerofill bool
}

// String renders the type in canonical lower-case SQL form.
func (d DataType) String() string {
	var b strings.Builder
	b.WriteString(d.Name)
	if len(d.Args) > 0 {
		b.WriteByte('(')
		b.WriteString(strings.Join(d.Args, ","))
		b.WriteByte(')')
	}
	if d.Unsigned {
		b.WriteString(" unsigned")
	}
	if d.Zerofill {
		b.WriteString(" zerofill")
	}
	return b.String()
}

// typeSynonyms maps type-name spellings that denote the same logical type
// to one canonical name. Only unambiguous synonyms belong here: spellings
// whose meaning is vendor-independent (INTEGER is int everywhere). Vendor-
// dependent spellings (REAL is a 4-byte float in PostgreSQL but an alias of
// DOUBLE in MySQL) are resolved earlier, by the parser's per-dialect type
// ladder, and must not appear in this map.
var typeSynonyms = map[string]string{
	"integer": "int", "int4": "int", "int2": "smallint", "int8": "bigint",
	"serial": "int", "bigserial": "bigint", "smallserial": "smallint",
	"numeric": "decimal", "bool": "boolean", "character": "char",
}

// CanonicalTypeName resolves a lower-case type name to its canonical
// spelling, so `INT` vs `INTEGER` (or `numeric` vs `decimal`) never reads
// as a type change when histories mix dialect spellings.
func CanonicalTypeName(name string) string {
	if c, ok := typeSynonyms[name]; ok {
		return c
	}
	return name
}

// Equal reports whether two data types are identical at the logical level.
// Comparison is on canonical form, so `INT(11)` equals `int(11)` but differs
// from `int(10)` and from `bigint(11)`; unambiguous cross-dialect synonyms
// (`INTEGER` vs `INT`) compare equal via CanonicalTypeName.
func (d DataType) Equal(o DataType) bool {
	if d.Name != o.Name && CanonicalTypeName(d.Name) != CanonicalTypeName(o.Name) {
		return false
	}
	if d.Unsigned != o.Unsigned || d.Zerofill != o.Zerofill {
		return false
	}
	if len(d.Args) != len(o.Args) {
		return false
	}
	for i := range d.Args {
		if !strings.EqualFold(d.Args[i], o.Args[i]) {
			return false
		}
	}
	return true
}

// String renders a column definition in canonical form, used in debugging
// output and golden tests.
func (c *Column) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", Normalize(c.Name), c.Type.String())
	if !c.Nullable {
		b.WriteString(" not null")
	}
	if c.AutoInc {
		b.WriteString(" auto_increment")
	}
	return b.String()
}
