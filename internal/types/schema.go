package types

import (
	"fmt"
	"strings"
)

// ColType is the declared SQL type of a table column.
type ColType uint8

// Column types accepted by create table statements.
const (
	ColInt ColType = iota + 1
	ColReal
	ColVarchar
	ColBool
	ColTstamp
)

func (t ColType) String() string {
	switch t {
	case ColInt:
		return "integer"
	case ColReal:
		return "real"
	case ColVarchar:
		return "varchar"
	case ColBool:
		return "boolean"
	case ColTstamp:
		return "tstamp"
	}
	return "coltype?"
}

// Kind returns the value kind stored in columns of this type.
func (t ColType) Kind() Kind {
	switch t {
	case ColInt:
		return KindInt
	case ColReal:
		return KindReal
	case ColVarchar:
		return KindString
	case ColBool:
		return KindBool
	case ColTstamp:
		return KindTstamp
	}
	return KindNil
}

// Column describes one attribute of a table schema.
type Column struct {
	Name string
	Type ColType
	// Width is the declared varchar(n) width; 0 means unbounded. It is
	// informational: values are not truncated.
	Width int
}

// Schema describes a table (and therefore a topic). Key is the index of the
// primary-key column for persistent tables, or -1 for ephemeral stream
// tables, whose implicit primary key is the time of insertion.
type Schema struct {
	Name       string
	Cols       []Column
	Key        int
	Persistent bool

	byName map[string]int
}

// NewSchema builds a schema and validates column-name uniqueness.
func NewSchema(name string, persistent bool, key int, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema needs a table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("table %s needs at least one column", name)
	}
	if persistent && (key < 0 || key >= len(cols)) {
		return nil, fmt.Errorf("persistent table %s needs a primary key column", name)
	}
	if !persistent {
		key = -1
	}
	s := &Schema{Name: name, Cols: cols, Key: key, Persistent: persistent,
		byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table %s: column %d has no name", name, i)
		}
		lower := strings.ToLower(c.Name)
		if _, dup := s.byName[lower]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %q", name, c.Name)
		}
		s.byName[lower] = i
	}
	return s, nil
}

// ColIndex returns the index of the named column (case-insensitive), or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// Coerce validates vals against the schema, applying the numeric widenings
// users expect of an SQL layer (int literal into real column, int into
// tstamp column). It returns a new slice only when a conversion is needed.
func (s *Schema) Coerce(vals []Value) ([]Value, error) {
	if len(vals) != len(s.Cols) {
		return nil, fmt.Errorf("table %s expects %d values, got %d",
			s.Name, len(s.Cols), len(vals))
	}
	out := vals
	for i, v := range vals {
		want := s.Cols[i].Type.Kind()
		if v.Kind() == want {
			continue
		}
		conv, err := convertTo(v, want)
		if err != nil {
			return nil, fmt.Errorf("table %s column %s: %w", s.Name, s.Cols[i].Name, err)
		}
		if &out[0] == &vals[0] {
			out = append([]Value(nil), vals...)
		}
		out[i] = conv
	}
	return out, nil
}

func convertTo(v Value, want Kind) (Value, error) {
	switch want {
	case KindInt:
		if n, ok := v.NumAsInt(); ok {
			return Int(n), nil
		}
	case KindReal:
		if f, ok := v.NumAsReal(); ok {
			return Real(f), nil
		}
	case KindTstamp:
		if n, ok := v.NumAsInt(); ok {
			return Stamp(Timestamp(n)), nil
		}
	case KindString:
		if s, ok := v.AsStr(); ok {
			return Str(s), nil
		}
		// Sequences render to their textual form when stored in varchar
		// columns (automata may publish composite attributes).
		if v.Kind() == KindSequence {
			return Str(v.String()), nil
		}
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return Bool(b), nil
		}
	}
	return Nil, fmt.Errorf("cannot store %s as %s", v.Kind(), want)
}

// String renders the schema as a create-table-ish signature.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if s.Persistent && i == s.Key {
			b.WriteString(" primary key")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of a table / one event on a topic. Seq is the global
// insertion sequence number assigned by the cache commit path; TS is the
// time of insertion (the implicit primary key of ephemeral tables).
type Tuple struct {
	Seq  uint64
	TS   Timestamp
	Vals []Value
}

// Clone returns a copy with its own value slice.
func (t *Tuple) Clone() *Tuple {
	return &Tuple{Seq: t.Seq, TS: t.TS, Vals: append([]Value(nil), t.Vals...)}
}

// Event is a tuple as delivered to a subscriber: the tuple plus its topic
// and schema, so attribute access by name is possible. It is the value bound
// to a GAPL subscription variable. A committed event is an ordinary heap
// value that nothing mutates after commit: every subscriber receives the
// same pointer and may keep it.
type Event struct {
	Topic  string
	Schema *Schema
	Tuple  *Tuple
}

// Field returns the named attribute of the event. The pseudo-attribute
// "tstamp" resolves to the insertion timestamp when the schema does not
// define a column of that name (Fig. 8 of the paper reads f.tstamp).
func (e *Event) Field(name string) (Value, error) {
	if i := e.Schema.ColIndex(name); i >= 0 {
		return e.Tuple.Vals[i], nil
	}
	if strings.EqualFold(name, "tstamp") {
		return Stamp(e.Tuple.TS), nil
	}
	return Nil, fmt.Errorf("topic %s has no attribute %q", e.Topic, name)
}

// FieldAt returns the i-th attribute; i == -1 resolves the insertion
// timestamp (the compiled form of the pseudo-attribute).
func (e *Event) FieldAt(i int) Value {
	if i == -1 {
		return Stamp(e.Tuple.TS)
	}
	if i < 0 || i >= len(e.Tuple.Vals) {
		return Nil
	}
	return e.Tuple.Vals[i]
}

// AsSequence exposes the event's attributes as a sequence (used when an
// event value is passed to send(), publish() or Sequence()). The sequence
// shares the tuple's values, which it copies before any write.
func (e *Event) AsSequence() *Sequence {
	return SharedSequence(e.Tuple.Vals)
}

// String renders the event as Topic(v1, v2, ...).
func (e *Event) String() string {
	var b strings.Builder
	b.WriteString(e.Topic)
	b.WriteString(e.AsSequence().String())
	return b.String()
}

// Assoc is the handle bound to a GAPL `associate` variable: a named
// persistent table reachable through the host interface. The automaton
// runtime interprets lookup/insert/hasEntry/remove/mapSize against it.
type Assoc struct {
	Table string
}
