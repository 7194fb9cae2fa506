package types

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestSequenceBasics(t *testing.T) {
	s := NewSequence(Int(1), Str("two"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Append(Real(3.0))
	if s.Len() != 3 {
		t.Fatalf("Len after append = %d, want 3", s.Len())
	}
	if got := s.At(1).String(); got != "two" {
		t.Errorf("At(1) = %q", got)
	}
	if !s.At(5).IsNil() || !s.At(-1).IsNil() {
		t.Error("out-of-range At should be nil")
	}
	if !s.Set(0, Int(9)) {
		t.Error("Set in range should succeed")
	}
	if s.Set(7, Int(9)) {
		t.Error("Set out of range should fail")
	}
	if got := s.String(); got != "(9, two, 3.0)" {
		t.Errorf("String = %q", got)
	}
	c := s.Clone()
	c.Set(0, Int(0))
	if v, _ := s.At(0).AsInt(); v != 9 {
		t.Error("Clone must not alias original")
	}
}

func TestSequenceConstructorCopiesInput(t *testing.T) {
	in := []Value{Int(1), Int(2)}
	s := NewSequence(in...)
	in[0] = Int(99)
	if v, _ := s.At(0).AsInt(); v != 1 {
		t.Error("NewSequence must copy its input slice")
	}
}

func intsOf(vals []Value) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i], _ = v.AsInt()
	}
	return out
}

func TestSharedSequenceCopiesBeforeWrite(t *testing.T) {
	row := []Value{Int(1), Int(2)}
	s := SharedSequence(row)
	if !s.Set(0, Int(10)) {
		t.Fatal("Set in range reported false")
	}
	s.Append(Int(3))
	if got := intsOf(row); got[0] != 1 || got[1] != 2 {
		t.Errorf("source row = %v after writes to its sequence, want [1 2]", got)
	}
	if got := intsOf(s.Values()); len(got) != 3 || got[0] != 10 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sequence = %v, want [10 2 3]", got)
	}

	// Append alone copies too: the source may have spare capacity that
	// another sequence over it would see.
	spare := make([]Value, 2, 4)
	spare[0], spare[1] = Int(1), Int(2)
	a, b := SharedSequence(spare), SharedSequence(spare)
	a.Append(Int(3))
	b.Append(Int(4))
	if got := a.At(2); got != Int(3) {
		t.Errorf("a[2] = %v after b.Append, want 3", got)
	}
	if got := intsOf(spare[:4]); got[2] != 0 || got[3] != 0 {
		t.Errorf("source capacity written: %v", got)
	}
}

func TestShareCopiesBeforeWrite(t *testing.T) {
	s := NewSequence(Int(1), Int(2))
	committed := s.Share()
	s.Set(1, Int(20))
	s.Append(Int(3))
	if got := intsOf(committed); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("shared items = %v after writes, want [1 2]", got)
	}
	if got := intsOf(s.Values()); len(got) != 3 || got[1] != 20 || got[2] != 3 {
		t.Errorf("sequence = %v, want [1 20 3]", got)
	}
	// After the copy the sequence owns its items again: Share hands out
	// the new items, and the first Share's items stay untouched.
	again := s.Share()
	s.Set(0, Int(100))
	if v, _ := again[0].AsInt(); v != 1 {
		t.Errorf("second shared items[0] = %d, want 1", v)
	}
	if v, _ := committed[0].AsInt(); v != 1 {
		t.Errorf("first shared items[0] = %d, want 1", v)
	}
}

// A sequence held in a map keeps reference semantics through copy-on-write:
// the copy happens inside the same *Sequence, so a write through one
// lookup shows on the next (examples/linearroad relies on it).
func TestMapHeldSharedSequenceKeepsWrites(t *testing.T) {
	row := []Value{Int(0), Int(0)}
	m := NewMap(KindSequence)
	if err := m.Insert("seg", SeqV(SharedSequence(row))); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		v, _ := m.Lookup("seg")
		s := v.Seq()
		n, _ := s.At(0).AsInt()
		s.Set(0, Int(n+1))
	}
	v, _ := m.Lookup("seg")
	if n, _ := v.Seq().At(0).AsInt(); n != 2 {
		t.Errorf("map-held sequence[0] = %d after two writes through lookups, want 2", n)
	}
	if n, _ := row[0].AsInt(); n != 0 {
		t.Errorf("source row[0] = %d, want 0", n)
	}
}

func TestMapInsertLookupRemove(t *testing.T) {
	m := NewMap(KindInt)
	if err := m.Insert("a", Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert("b", Int(2)); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 {
		t.Fatalf("Size = %d, want 2", m.Size())
	}
	if v, ok := m.Lookup("a"); !ok || v.String() != "1" {
		t.Errorf("Lookup(a) = %v, %v", v, ok)
	}
	if _, ok := m.Lookup("zz"); ok {
		t.Error("Lookup of absent key should fail")
	}
	if !m.Has("b") || m.Has("zz") {
		t.Error("Has wrong")
	}
	// Replace keeps size constant.
	if err := m.Insert("a", Int(10)); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 2 {
		t.Errorf("Size after replace = %d, want 2", m.Size())
	}
	if v, _ := m.Lookup("a"); v.String() != "10" {
		t.Error("replace did not take")
	}
	if !m.Remove("a") {
		t.Error("Remove present key should report true")
	}
	if m.Remove("a") {
		t.Error("Remove absent key should report false")
	}
	if m.Size() != 1 || m.Has("a") {
		t.Error("Remove did not remove")
	}
}

func TestMapBoundKindEnforced(t *testing.T) {
	m := NewMap(KindInt)
	if err := m.Insert("a", Str("no")); err == nil {
		t.Error("inserting string into int-bound map should error")
	}
	unbound := NewMap(KindNil)
	if err := unbound.Insert("a", Str("yes")); err != nil {
		t.Errorf("unbound map should accept any kind: %v", err)
	}
}

func TestMapInsertionOrderPreserved(t *testing.T) {
	m := NewMap(KindInt)
	keys := []string{"z", "a", "m", "b"}
	for i, k := range keys {
		if err := m.Insert(k, Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Keys()
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("Keys() = %v, want insertion order %v", got, keys)
		}
	}
}

func TestMapCompaction(t *testing.T) {
	m := NewMap(KindInt)
	const n = 100
	for i := 0; i < n; i++ {
		if err := m.Insert(fmt.Sprintf("k%03d", i), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		m.Remove(fmt.Sprintf("k%03d", i))
	}
	if m.Size() != n/2 {
		t.Fatalf("Size = %d, want %d", m.Size(), n/2)
	}
	// Every odd key still present with its value, order preserved.
	want := 1
	for _, k := range m.Keys() {
		exp := fmt.Sprintf("k%03d", want)
		if k != exp {
			t.Fatalf("key order after compaction: got %s want %s", k, exp)
		}
		v, ok := m.Lookup(k)
		if !ok {
			t.Fatalf("lost key %s", k)
		}
		if n, _ := v.AsInt(); n != int64(want) {
			t.Fatalf("lost value for %s: %v", k, v)
		}
		want += 2
	}
}

func TestMapClear(t *testing.T) {
	m := NewMap(KindNil)
	_ = m.Insert("a", Int(1))
	m.Clear()
	if m.Size() != 0 || m.Has("a") {
		t.Error("Clear did not clear")
	}
	if err := m.Insert("b", Int(2)); err != nil || m.Size() != 1 {
		t.Error("map unusable after Clear")
	}
}

func TestRowWindowEviction(t *testing.T) {
	w, err := NewRowWindow(KindInt, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Append(Int(int64(i)), Timestamp(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if got := w.String(); got != "[3, 4, 5]" {
		t.Errorf("window contents = %s, want [3, 4, 5]", got)
	}
	if v, _ := w.At(0).AsInt(); v != 3 {
		t.Error("oldest element should be 3")
	}
}

func TestTimeWindowEviction(t *testing.T) {
	w, err := NewTimeWindow(KindInt, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	base := Timestamp(0)
	for i := 0; i < 5; i++ {
		ts := base.Add(time.Duration(i) * 4 * time.Second) // 0s,4s,8s,12s,16s
		if err := w.Append(Int(int64(i)), ts); err != nil {
			t.Fatal(err)
		}
	}
	// At t=16s, the 10s window holds appends at 8s, 12s, 16s.
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (got %s)", w.Len(), w)
	}
	w.ExpireAt(base.Add(100 * time.Second))
	if w.Len() != 0 {
		t.Errorf("ExpireAt far future should empty window, len=%d", w.Len())
	}
}

func TestWindowBoundKindEnforced(t *testing.T) {
	w, _ := NewRowWindow(KindSequence, 4)
	if err := w.Append(Int(1), 0); err == nil {
		t.Error("appending int to sequence-bound window should error")
	}
	if err := w.Append(SeqV(NewSequence(Int(1))), 0); err != nil {
		t.Errorf("appending sequence should work: %v", err)
	}
}

func TestWindowConstructorValidation(t *testing.T) {
	if _, err := NewRowWindow(KindInt, 0); err == nil {
		t.Error("zero-row window should be rejected")
	}
	if _, err := NewTimeWindow(KindInt, 0); err == nil {
		t.Error("zero-span window should be rejected")
	}
}

func TestWindowTsAtAndClear(t *testing.T) {
	w, _ := NewRowWindow(KindInt, 8)
	_ = w.Append(Int(1), 100)
	_ = w.Append(Int(2), 200)
	if w.TsAt(1) != 200 {
		t.Errorf("TsAt(1) = %d, want 200", w.TsAt(1))
	}
	if w.TsAt(9) != 0 {
		t.Error("TsAt out of range should be 0")
	}
	w.Clear()
	if w.Len() != 0 {
		t.Error("Clear failed")
	}
}

func TestMapIteratorSnapshotsSource(t *testing.T) {
	m := NewMap(KindInt)
	for _, k := range []string{"a", "b", "c"} {
		_ = m.Insert(k, Int(1))
	}
	it := NewMapIterator(m)
	// Mutate during iteration, as the frequent algorithm does.
	var seen []string
	for it.HasNext() {
		id := it.Next()
		key, _ := id.AsStr()
		seen = append(seen, key)
		m.Remove(key)
	}
	if len(seen) != 3 {
		t.Fatalf("iterator saw %d keys, want 3", len(seen))
	}
	if m.Size() != 0 {
		t.Error("all keys should have been removed")
	}
	if !it.Next().IsNil() {
		t.Error("exhausted iterator should return nil")
	}
}

func TestWindowAndSequenceIterators(t *testing.T) {
	w, _ := NewRowWindow(KindInt, 4)
	_ = w.Append(Int(10), 0)
	_ = w.Append(Int(20), 0)
	it := NewWindowIterator(w)
	sum := int64(0)
	for it.HasNext() {
		n, _ := it.Next().AsInt()
		sum += n
	}
	if sum != 30 {
		t.Errorf("window iterator sum = %d, want 30", sum)
	}

	s := NewSequence(Int(1), Int(2), Int(3))
	sit := NewSequenceIterator(s)
	count := 0
	for sit.HasNext() {
		sit.Next()
		count++
	}
	if count != 3 {
		t.Errorf("sequence iterator count = %d, want 3", count)
	}
}

// Property: a row window never exceeds its capacity and always retains the
// most recent items in order.
func TestRowWindowInvariantProperty(t *testing.T) {
	f := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%16) + 1
		w, err := NewRowWindow(KindInt, capacity)
		if err != nil {
			return false
		}
		total := int(n)
		for i := 0; i < total; i++ {
			if err := w.Append(Int(int64(i)), Timestamp(i)); err != nil {
				return false
			}
			if w.Len() > capacity {
				return false
			}
		}
		want := total
		if want > capacity {
			want = capacity
		}
		if w.Len() != want {
			return false
		}
		for i := 0; i < w.Len(); i++ {
			exp := int64(total - w.Len() + i)
			if v, _ := w.At(i).AsInt(); v != exp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: map holds exactly the keys inserted and not removed.
func TestMapSetSemanticsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMap(KindInt)
		ref := map[string]int64{}
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%32)
			if op%3 == 0 {
				m.Remove(key)
				delete(ref, key)
			} else {
				if err := m.Insert(key, Int(int64(i))); err != nil {
					return false
				}
				ref[key] = int64(i)
			}
		}
		if m.Size() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Lookup(k)
			if !ok {
				return false
			}
			if n, _ := got.AsInt(); n != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
