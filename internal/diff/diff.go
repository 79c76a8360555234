// Package diff computes the logical-level delta between two versions of a
// schema, quantified in the paper's change categories. The fundamental unit
// of measurement is the attribute: every category counts attributes.
//
// The categories (§III.B of the paper):
//
//   - Born:       attributes born with a new table
//   - Injected:   attributes injected into an existing table
//   - Deleted:    attributes deleted with a removed table
//   - Ejected:    attributes ejected from a surviving table
//   - TypeChange: attributes whose data type changed
//   - PKChange:   attributes whose participation in the primary key changed
//
// Expansion = Born + Injected; Maintenance = Deleted + Ejected + TypeChange +
// PKChange; Activity = Expansion + Maintenance.
package diff

import (
	"slices"
	"sort"

	"github.com/schemaevo/schemaevo/internal/schema"
)

// Options tunes the diff. The zero value is the study's production setting.
type Options struct {
	// OrderSensitive also reports a TypeChange when a column keeps its name
	// and type but moves position. The paper's model is order-insensitive;
	// this knob exists for the ablation benchmark.
	OrderSensitive bool
}

// Delta is the quantified difference between two schema versions.
type Delta struct {
	// TablesInserted / TablesDeleted list normalized names of tables that
	// appear only in the new / old version.
	TablesInserted []string
	TablesDeleted  []string

	// Attribute-level counts, per the paper's categories.
	Born       int
	Injected   int
	Deleted    int
	Ejected    int
	TypeChange int
	PKChange   int

	// FKAdded / FKRemoved count foreign-key constraints appearing and
	// disappearing on surviving tables. They are an extension for the
	// paper's "open paths" (constraint treatment, ref [12]) and do NOT
	// contribute to Expansion, Maintenance or Activity.
	FKAdded   int
	FKRemoved int

	// Detail rows for reporting and debugging.
	Changes []Change
}

// ChangeKind discriminates attribute-level change categories.
type ChangeKind int

// Attribute change kinds.
const (
	AttrBorn ChangeKind = iota
	AttrInjected
	AttrDeleted
	AttrEjected
	AttrTypeChange
	AttrPKChange
)

func (k ChangeKind) String() string {
	switch k {
	case AttrBorn:
		return "born"
	case AttrInjected:
		return "injected"
	case AttrDeleted:
		return "deleted"
	case AttrEjected:
		return "ejected"
	case AttrTypeChange:
		return "type-change"
	case AttrPKChange:
		return "pk-change"
	}
	return "unknown"
}

// Change is one attribute-level change event.
type Change struct {
	Kind   ChangeKind
	Table  string // normalized table name
	Column string // normalized column name
	// Old and New hold the type strings for AttrTypeChange rows.
	Old string
	New string
}

// Expansion returns Born + Injected.
func (d *Delta) Expansion() int { return d.Born + d.Injected }

// Maintenance returns Deleted + Ejected + TypeChange + PKChange.
func (d *Delta) Maintenance() int { return d.Deleted + d.Ejected + d.TypeChange + d.PKChange }

// Activity returns Expansion + Maintenance: the total number of affected
// attributes in the transition.
func (d *Delta) Activity() int { return d.Expansion() + d.Maintenance() }

// IsActive reports whether the transition changes the logical capacity of
// the schema at all — the paper's "active commit" criterion.
func (d *Delta) IsActive() bool { return d.Activity() > 0 }

// Compute diffs old → new with default options.
func Compute(old, new *schema.Schema) *Delta {
	return NewComputer(Options{}).Compute(old, new)
}

// ComputeOptions diffs old → new. Either schema may be nil, which reads as
// the empty schema (so V0 against nil yields all attributes Born).
func ComputeOptions(old, new *schema.Schema, opts Options) *Delta {
	return NewComputer(opts).Compute(old, new)
}

// Computer diffs schema pairs using reusable scratch buffers. A single
// Computer amortises the per-call sorting workspace over a whole
// transition chain, which is where the pipeline spends its diff time;
// it is NOT safe for concurrent use — give each worker its own.
type Computer struct {
	opts    Options
	oldTabs []tableEntry
	newTabs []tableEntry
	oldCols []colEntry
	newCols []colEntry
	oldFKs  []string
	newFKs  []string
}

// NewComputer returns a Computer with the given options.
func NewComputer(opts Options) *Computer { return &Computer{opts: opts} }

// tableEntry / colEntry pair a normalized name with its element; pos
// preserves declaration order so duplicate normalized names keep the
// map semantics of the study ("last declaration wins").
type tableEntry struct {
	name string
	t    *schema.Table
	pos  int
}

type colEntry struct {
	name string
	c    *schema.Column
	pos  int
}

// Compute diffs old → new. Either schema may be nil, which reads as the
// empty schema (so V0 against nil yields all attributes Born). The
// delta is identical to the historical map-based implementation —
// including the order of Changes rows — but is produced by merging
// name-sorted slices, so the only per-call allocations left are the
// result rows themselves.
func (cp *Computer) Compute(old, new *schema.Schema) *Delta {
	d := &Delta{}
	cp.oldTabs = tableEntries(cp.oldTabs[:0], old)
	cp.newTabs = tableEntries(cp.newTabs[:0], new)

	// Table insertions: every column of a new table is Born.
	for i, j := 0, 0; j < len(cp.newTabs); j++ {
		for i < len(cp.oldTabs) && cp.oldTabs[i].name < cp.newTabs[j].name {
			i++
		}
		if i < len(cp.oldTabs) && cp.oldTabs[i].name == cp.newTabs[j].name {
			continue
		}
		e := cp.newTabs[j]
		d.TablesInserted = append(d.TablesInserted, e.name)
		for _, c := range e.t.Columns {
			d.Born++
			d.Changes = append(d.Changes, Change{Kind: AttrBorn, Table: e.name, Column: c.NormName()})
		}
		d.FKAdded += len(e.t.ForeignKeys)
	}

	// Table deletions: every column of a removed table is Deleted.
	for i, j := 0, 0; i < len(cp.oldTabs); i++ {
		for j < len(cp.newTabs) && cp.newTabs[j].name < cp.oldTabs[i].name {
			j++
		}
		if j < len(cp.newTabs) && cp.newTabs[j].name == cp.oldTabs[i].name {
			continue
		}
		e := cp.oldTabs[i]
		d.TablesDeleted = append(d.TablesDeleted, e.name)
		for _, c := range e.t.Columns {
			d.Deleted++
			d.Changes = append(d.Changes, Change{Kind: AttrDeleted, Table: e.name, Column: c.NormName()})
		}
		d.FKRemoved += len(e.t.ForeignKeys)
	}

	// Surviving tables: column-level comparison.
	for i, j := 0, 0; i < len(cp.oldTabs); i++ {
		for j < len(cp.newTabs) && cp.newTabs[j].name < cp.oldTabs[i].name {
			j++
		}
		if j < len(cp.newTabs) && cp.newTabs[j].name == cp.oldTabs[i].name {
			cp.diffTable(d, cp.oldTabs[i].name, cp.oldTabs[i].t, cp.newTabs[j].t)
		}
	}
	return d
}

func (cp *Computer) diffTable(d *Delta, tname string, old, new *schema.Table) {
	// A table against itself changes nothing in any category. Versions
	// parsed through one sqlparse.Memo share each repeated table, so this
	// skips most surviving tables of a transition.
	if old == new {
		return
	}
	cp.oldCols = colEntries(cp.oldCols[:0], old)
	cp.newCols = colEntries(cp.newCols[:0], new)

	// Injected.
	for i, j := 0, 0; j < len(cp.newCols); j++ {
		for i < len(cp.oldCols) && cp.oldCols[i].name < cp.newCols[j].name {
			i++
		}
		if i < len(cp.oldCols) && cp.oldCols[i].name == cp.newCols[j].name {
			continue
		}
		d.Injected++
		d.Changes = append(d.Changes, Change{Kind: AttrInjected, Table: tname, Column: cp.newCols[j].name})
	}
	// Ejected.
	for i, j := 0, 0; i < len(cp.oldCols); i++ {
		for j < len(cp.newCols) && cp.newCols[j].name < cp.oldCols[i].name {
			j++
		}
		if j < len(cp.newCols) && cp.newCols[j].name == cp.oldCols[i].name {
			continue
		}
		d.Ejected++
		d.Changes = append(d.Changes, Change{Kind: AttrEjected, Table: tname, Column: cp.oldCols[i].name})
	}
	// Foreign keys (extension; identity is column set + target, so renamed
	// constraints do not register as change). Keys are compared as sorted
	// deduplicated sets, matching the historical map-of-keys semantics.
	if len(old.ForeignKeys) > 0 || len(new.ForeignKeys) > 0 {
		cp.oldFKs = fkKeySet(cp.oldFKs[:0], old)
		cp.newFKs = fkKeySet(cp.newFKs[:0], new)
		d.FKAdded += countMissing(cp.newFKs, cp.oldFKs)
		d.FKRemoved += countMissing(cp.oldFKs, cp.newFKs)
	}

	// Survivors: type change, PK participation change.
	for i, j := 0, 0; i < len(cp.oldCols); i++ {
		for j < len(cp.newCols) && cp.newCols[j].name < cp.oldCols[i].name {
			j++
		}
		if j >= len(cp.newCols) || cp.newCols[j].name != cp.oldCols[i].name {
			continue
		}
		cname := cp.oldCols[i].name
		oc, nc := cp.oldCols[i].c, cp.newCols[j].c
		if !oc.Type.Equal(nc.Type) {
			d.TypeChange++
			d.Changes = append(d.Changes, Change{
				Kind: AttrTypeChange, Table: tname, Column: cname,
				Old: oc.Type.String(), New: nc.Type.String(),
			})
		} else if cp.opts.OrderSensitive && cp.oldCols[i].pos != cp.newCols[j].pos {
			d.TypeChange++
			d.Changes = append(d.Changes, Change{
				Kind: AttrTypeChange, Table: tname, Column: cname,
				Old: oc.Type.String(), New: nc.Type.String(),
			})
		}
		if old.HasPKNorm(cname) != new.HasPKNorm(cname) {
			d.PKChange++
			d.Changes = append(d.Changes, Change{Kind: AttrPKChange, Table: tname, Column: cname})
		}
	}
}

func tableEntries(buf []tableEntry, s *schema.Schema) []tableEntry {
	if s == nil {
		return buf
	}
	for i, t := range s.Tables {
		buf = append(buf, tableEntry{name: t.NormName(), t: t, pos: i})
	}
	slices.SortFunc(buf, func(a, b tableEntry) int {
		if a.name != b.name {
			if a.name < b.name {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})
	return dedupLast(buf, func(e tableEntry) string { return e.name })
}

func colEntries(buf []colEntry, t *schema.Table) []colEntry {
	for i, c := range t.Columns {
		buf = append(buf, colEntry{name: c.NormName(), c: c, pos: i})
	}
	slices.SortFunc(buf, func(a, b colEntry) int {
		if a.name != b.name {
			if a.name < b.name {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})
	return dedupLast(buf, func(e colEntry) string { return e.name })
}

// dedupLast compacts a (name, pos)-sorted slice in place, keeping the
// last declaration of each name — the same winner a name-keyed map
// would retain.
func dedupLast[E any](buf []E, name func(E) string) []E {
	out := buf[:0]
	for i := range buf {
		if i+1 < len(buf) && name(buf[i+1]) == name(buf[i]) {
			continue
		}
		out = append(out, buf[i])
	}
	return out
}

// fkKeySet collects the table's foreign-key identity keys as a sorted,
// deduplicated set.
func fkKeySet(buf []string, t *schema.Table) []string {
	for _, fk := range t.ForeignKeys {
		buf = append(buf, fk.Key())
	}
	sort.Strings(buf)
	out := buf[:0]
	for i, k := range buf {
		if i > 0 && buf[i-1] == k {
			continue
		}
		out = append(out, k)
	}
	return out
}

// countMissing returns how many elements of sorted set a are absent
// from sorted set b.
func countMissing(a, b []string) int {
	n := 0
	for i, j := 0, 0; i < len(a); i++ {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j >= len(b) || b[j] != a[i] {
			n++
		}
	}
	return n
}
