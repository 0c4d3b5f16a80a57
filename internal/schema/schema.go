// Package schema defines the logical types, columns, and relation schemas
// shared by every layer of the system: the raw-file tokenizer and parser,
// the binary chunk representation, the database storage, and the query
// engine.
//
// The type system is deliberately small — the paper's workloads use
// unsigned-integer CSV files and tab-delimited SAM text — but it is the
// single source of truth for how a raw-text attribute maps to a processing
// representation.
package schema

import (
	"fmt"
	"strings"
)

// Type enumerates the column types supported by the processing
// representation. Int64 covers the paper's uint32 synthetic data, Float64
// covers numeric SAM optional fields, and Str covers everything textual
// (QNAME, CIGAR, sequences, ...).
type Type uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE-754 floating point column.
	Float64
	// Str is a variable-length string column.
	Str
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Str:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined types.
func (t Type) Valid() bool { return t <= Str }

// ParseType converts a SQL-ish type name into a Type. It accepts the
// canonical names produced by Type.String plus common aliases, case
// insensitively.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "BIGINT", "INT", "INTEGER", "INT64", "LONG":
		return Int64, nil
	case "DOUBLE", "FLOAT", "FLOAT64", "REAL":
		return Float64, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR":
		return Str, nil
	default:
		return 0, fmt.Errorf("schema: unknown type %q", s)
	}
}

// Column describes one attribute of a relation.
type Column struct {
	// Name is the attribute name, unique within a schema.
	Name string
	// Type is the processing-representation type of the attribute.
	Type Type
}

// Schema is an ordered list of columns describing tuples extracted from a
// raw file. A Schema is immutable after construction; all accessors are
// safe for concurrent use.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// New constructs a Schema from the given columns. It returns an error when
// the column list is empty, a name is blank or duplicated, or a type is
// invalid.
func New(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: empty column list")
	}
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		if !c.Type.Valid() {
			return nil, fmt.Errorf("schema: column %q has invalid type", c.Name)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate column name %q", c.Name)
		}
		byName[c.Name] = i
	}
	return &Schema{cols: append([]Column(nil), cols...), byName: byName}, nil
}

// MustNew is like New but panics on error. It is intended for statically
// known schemas (tests, format definitions).
func MustNew(cols ...Column) *Schema {
	s, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Uniform builds an n-column schema where every column has the same type t
// and names follow the pattern prefix0, prefix1, ... It models the paper's
// synthetic CSV suite (c0..c63 unsigned integers).
func Uniform(n int, t Type, prefix string) (*Schema, error) {
	if n <= 0 {
		return nil, fmt.Errorf("schema: uniform schema needs n > 0, got %d", n)
	}
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("%s%d", prefix, i), Type: t}
	}
	return New(cols...)
}

// ParseSpec parses a "name:type,name:type" specification — the form the
// -schema flags, fleet configs and the manifest's table records use.
// Whitespace around names and types is ignored; types are ParseType's.
func ParseSpec(spec string) (*Schema, error) {
	parts := strings.Split(spec, ",")
	cols := make([]Column, 0, len(parts))
	for _, part := range parts {
		name, typ, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("schema: spec entry %q is not name:type", part)
		}
		ty, err := ParseType(typ)
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: strings.TrimSpace(name), Type: ty})
	}
	return New(cols...)
}

// Spec renders the schema in the form ParseSpec reads back.
func (s *Schema) Spec() string {
	var b strings.Builder
	for i, c := range s.cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.Name)
		b.WriteByte(':')
		b.WriteString(c.Type.String())
	}
	return b.String()
}

// NumColumns returns the number of columns in the schema.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i-th column. It panics when i is out of range, matching
// slice semantics.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Equal reports whether two schemas have identical column lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
