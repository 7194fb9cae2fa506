package types

import (
	"fmt"
	"strings"
	"time"
)

// Sequence is an ordered set of heterogeneous value instances (Table 2).
// It is the unit in which rows travel: lookups on associations return
// sequences, publish() and send() accept them, and events expose their
// attributes as one.
//
// A sequence may share its items with a committed row, which nothing may
// rewrite: SharedSequence wraps one without copying, and Share hands a
// sequence's items to a commit. A shared sequence copies its items once,
// in place, before its first Set or Append, so every holder of the
// *Sequence sees the change and the row does not.
type Sequence struct {
	items  []Value
	shared bool
}

// NewSequence builds a sequence from the given values.
func NewSequence(vals ...Value) *Sequence {
	return &Sequence{items: append([]Value(nil), vals...)}
}

// NewSequenceCap returns an empty sequence with room for n values.
func NewSequenceCap(n int) *Sequence {
	return &Sequence{items: make([]Value, 0, n)}
}

// SharedSequence wraps vals without copying them; the sequence copies
// before its first write, so vals is never modified.
func SharedSequence(vals []Value) *Sequence {
	return &Sequence{items: vals[:len(vals):len(vals)], shared: true}
}

// Share marks the sequence's items shared and returns them, for a caller
// that keeps them (a commit). Later writes to the sequence copy first.
func (s *Sequence) Share() []Value {
	s.shared = true
	return s.items[:len(s.items):len(s.items)]
}

// own gives a shared sequence its own copy of the items, with room for
// extra more values.
func (s *Sequence) own(extra int) {
	if s.shared {
		s.items = append(make([]Value, 0, len(s.items)+extra), s.items...)
		s.shared = false
	}
}

// Len returns the number of elements.
func (s *Sequence) Len() int { return len(s.items) }

// At returns the i-th element (0-based); Nil if out of range.
func (s *Sequence) At(i int) Value {
	if i < 0 || i >= len(s.items) {
		return Nil
	}
	return s.items[i]
}

// Set replaces the i-th element; it reports whether i was in range.
func (s *Sequence) Set(i int, v Value) bool {
	if i < 0 || i >= len(s.items) {
		return false
	}
	s.own(0)
	s.items[i] = v
	return true
}

// Append adds a value to the end of the sequence.
func (s *Sequence) Append(v Value) {
	s.own(1)
	s.items = append(s.items, v)
}

// Values returns the backing slice (callers must not mutate it).
func (s *Sequence) Values() []Value { return s.items }

// Clone returns a shallow copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	return &Sequence{items: append([]Value(nil), s.items...)}
}

// String renders the sequence as (v1, v2, ...).
func (s *Sequence) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range s.items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Map maps identifiers to instances of a bound kind (Table 2). Iteration
// order is insertion order, which keeps automaton behaviour deterministic
// (the paper's frequent algorithm iterates while mutating).
type Map struct {
	elem Kind // bound element kind; KindNil means unconstrained
	idx  map[string]int
	keys []string
	vals []Value
	dead int
}

// NewMap creates a map bound to the given element kind. Pass KindNil for an
// unconstrained map.
func NewMap(elem Kind) *Map {
	return &Map{elem: elem, idx: make(map[string]int)}
}

// ElemKind returns the bound element kind.
func (m *Map) ElemKind() Kind { return m.elem }

// checkElem validates a value against the bound kind. Sequences may be
// stored in any map (they are the row representation); numeric widening is
// not applied.
func (m *Map) checkElem(v Value) error {
	if m.elem == KindNil || v.Kind() == m.elem {
		return nil
	}
	return fmt.Errorf("map bound to %s cannot hold %s", m.elem, v.Kind())
}

// Insert adds or replaces the entry for key.
func (m *Map) Insert(key string, v Value) error {
	if err := m.checkElem(v); err != nil {
		return err
	}
	if i, ok := m.idx[key]; ok {
		m.vals[i] = v
		return nil
	}
	m.idx[key] = len(m.keys)
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, v)
	return nil
}

// Lookup returns the value for key.
func (m *Map) Lookup(key string) (Value, bool) {
	i, ok := m.idx[key]
	if !ok {
		return Nil, false
	}
	return m.vals[i], true
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool {
	_, ok := m.idx[key]
	return ok
}

// Remove deletes the entry for key; it reports whether the key was present.
func (m *Map) Remove(key string) bool {
	i, ok := m.idx[key]
	if !ok {
		return false
	}
	delete(m.idx, key)
	m.keys[i] = ""
	m.vals[i] = Nil
	m.dead++
	if m.dead > len(m.keys)/2 && m.dead > 16 {
		m.compact()
	}
	return true
}

func (m *Map) compact() {
	keys := m.keys[:0]
	vals := m.vals[:0]
	for i, k := range m.keys {
		if k == "" {
			continue
		}
		keys = append(keys, k)
		vals = append(vals, m.vals[i])
	}
	m.keys = keys
	m.vals = vals
	m.idx = make(map[string]int, len(keys))
	for i, k := range keys {
		m.idx[k] = i
	}
	m.dead = 0
}

// Size returns the number of live entries.
func (m *Map) Size() int { return len(m.idx) }

// Keys returns the live keys in insertion order.
func (m *Map) Keys() []string {
	out := make([]string, 0, len(m.idx))
	for _, k := range m.keys {
		if k != "" {
			out = append(out, k)
		}
	}
	return out
}

// Clear removes all entries.
func (m *Map) Clear() {
	m.idx = make(map[string]int)
	m.keys = m.keys[:0]
	m.vals = m.vals[:0]
	m.dead = 0
}

// String renders the map as {k: v, ...} in insertion order.
func (m *Map) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, k := range m.keys {
		if k == "" {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(m.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// WindowMode selects the constraint applied to a window.
type WindowMode uint8

// Window constraint modes: a fixed number of rows or a fixed time interval
// (the paper's ROWS and SECS constructor arguments).
const (
	WindowRows WindowMode = iota + 1
	WindowTime
)

func (m WindowMode) String() string {
	switch m {
	case WindowRows:
		return "ROWS"
	case WindowTime:
		return "SECS"
	}
	return "window-mode?"
}

// windowEntry pairs a stored value with its append time (used for time-based
// eviction).
type windowEntry struct {
	ts Timestamp
	v  Value
}

// Window is a collection of bound-type instances constrained either to a
// fixed number of items or a fixed time interval (Table 2).
type Window struct {
	elem    Kind
	mode    WindowMode
	rows    int
	span    time.Duration
	entries []windowEntry
}

// NewRowWindow creates a window holding at most n items of kind elem.
func NewRowWindow(elem Kind, n int) (*Window, error) {
	if n <= 0 {
		return nil, fmt.Errorf("window row constraint must be positive, got %d", n)
	}
	return &Window{elem: elem, mode: WindowRows, rows: n}, nil
}

// NewTimeWindow creates a window holding items appended within the last span.
func NewTimeWindow(elem Kind, span time.Duration) (*Window, error) {
	if span <= 0 {
		return nil, fmt.Errorf("window time constraint must be positive, got %v", span)
	}
	return &Window{elem: elem, mode: WindowTime, span: span}, nil
}

// ElemKind returns the bound element kind.
func (w *Window) ElemKind() Kind { return w.elem }

// Mode returns the constraint mode.
func (w *Window) Mode() WindowMode { return w.mode }

// Append adds a value stamped at now, evicting items that violate the
// constraint.
func (w *Window) Append(v Value, now Timestamp) error {
	if w.elem != KindNil && v.Kind() != w.elem {
		return fmt.Errorf("window bound to %s cannot hold %s", w.elem, v.Kind())
	}
	w.entries = append(w.entries, windowEntry{ts: now, v: v})
	w.evict(now)
	return nil
}

// AppendBatch adds a run of values in one operation, evicting once at the
// end instead of once per value — the primitive behind the VM's batch
// activation (appendRun). tss, when non-nil, supplies a per-value append
// timestamp (the commit timestamp of the event the value came from) and
// must be the same length as vals and non-decreasing; a nil tss stamps
// every value with now. Kinds are validated up front: a batch with any
// ill-kinded value is rejected whole, before anything is appended.
func (w *Window) AppendBatch(vals []Value, tss []Timestamp, now Timestamp) error {
	if tss != nil && len(tss) != len(vals) {
		return fmt.Errorf("window batch append: %d values but %d timestamps", len(vals), len(tss))
	}
	if w.elem != KindNil {
		for _, v := range vals {
			if v.Kind() != w.elem {
				return fmt.Errorf("window bound to %s cannot hold %s", w.elem, v.Kind())
			}
		}
	}
	// Arena-style storage reuse: evict before appending, so the entries
	// slice never grows past the window bound just to be trimmed again.
	// For a row window only the last `rows` values of the batch can survive,
	// and any in-place entries they displace are dropped up front; for a
	// time window already-expired entries are compacted away first. After
	// warm-up the backing array is reused verbatim — batch activation
	// appends with zero allocation.
	keep := vals
	keepTss := tss
	switch w.mode {
	case WindowRows:
		if len(keep) >= w.rows {
			w.entries = w.entries[:0]
			keep = keep[len(keep)-w.rows:]
			if keepTss != nil {
				keepTss = keepTss[len(keepTss)-w.rows:]
			}
		} else if n := len(w.entries) + len(keep) - w.rows; n > 0 {
			w.entries = append(w.entries[:0], w.entries[n:]...)
		}
	case WindowTime:
		w.evict(now)
	}
	for i, v := range keep {
		ts := now
		if keepTss != nil {
			ts = keepTss[i]
		}
		w.entries = append(w.entries, windowEntry{ts: ts, v: v})
	}
	w.evict(now)
	return nil
}

func (w *Window) evict(now Timestamp) {
	switch w.mode {
	case WindowRows:
		if n := len(w.entries) - w.rows; n > 0 {
			w.entries = append(w.entries[:0], w.entries[n:]...)
		}
	case WindowTime:
		cut := now.Add(-w.span)
		i := 0
		for i < len(w.entries) && w.entries[i].ts < cut {
			i++
		}
		if i > 0 {
			w.entries = append(w.entries[:0], w.entries[i:]...)
		}
	}
}

// ExpireAt drops entries older than now-span for time windows; it is used by
// callers that want eviction without appending.
func (w *Window) ExpireAt(now Timestamp) {
	if w.mode == WindowTime {
		w.evict(now)
	}
}

// Len returns the number of items currently held.
func (w *Window) Len() int { return len(w.entries) }

// At returns the i-th oldest value; Nil if out of range.
func (w *Window) At(i int) Value {
	if i < 0 || i >= len(w.entries) {
		return Nil
	}
	return w.entries[i].v
}

// TsAt returns the append timestamp of the i-th oldest item.
func (w *Window) TsAt(i int) Timestamp {
	if i < 0 || i >= len(w.entries) {
		return 0
	}
	return w.entries[i].ts
}

// Values returns the stored values oldest-first.
func (w *Window) Values() []Value {
	out := make([]Value, len(w.entries))
	for i, e := range w.entries {
		out[i] = e.v
	}
	return out
}

// Clear removes all items.
func (w *Window) Clear() { w.entries = w.entries[:0] }

// String renders the window as [v1, v2, ...] oldest-first.
func (w *Window) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range w.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Iterator walks the keys of a map or the values of a window (Table 2).
// It snapshots its source at construction, so the source may be mutated
// while iterating — the idiom the paper's frequent algorithm relies on.
type Iterator struct {
	vals []Value
	pos  int
}

// NewMapIterator returns an iterator over the map's keys (as identifiers) in
// insertion order.
func NewMapIterator(m *Map) *Iterator {
	keys := m.Keys()
	vals := make([]Value, len(keys))
	for i, k := range keys {
		vals[i] = Ident(k)
	}
	return &Iterator{vals: vals}
}

// NewWindowIterator returns an iterator over the window's values,
// oldest-first.
func NewWindowIterator(w *Window) *Iterator {
	return &Iterator{vals: w.Values()}
}

// NewSequenceIterator returns an iterator over the sequence's elements.
func NewSequenceIterator(s *Sequence) *Iterator {
	return &Iterator{vals: append([]Value(nil), s.Values()...)}
}

// HasNext reports whether another element is available.
func (it *Iterator) HasNext() bool { return it.pos < len(it.vals) }

// Next returns the next element, or Nil when exhausted.
func (it *Iterator) Next() Value {
	if it.pos >= len(it.vals) {
		return Nil
	}
	v := it.vals[it.pos]
	it.pos++
	return v
}
