package cep

import (
	"testing"

	"unicache/internal/gapl"
	"unicache/internal/types"
)

func testSchemas(t *testing.T) map[string]*types.Schema {
	t.Helper()
	schemas := make(map[string]*types.Schema)
	for _, name := range []string{"A", "B", "C"} {
		s, err := types.NewSchema(name, false, -1,
			types.Column{Name: "u", Type: types.ColInt},
			types.Column{Name: "v", Type: types.ColInt},
		)
		if err != nil {
			t.Fatal(err)
		}
		schemas[name] = s
	}
	return schemas
}

func mustPattern(t *testing.T, src string, schemas map[string]*types.Schema) *Pattern {
	t.Helper()
	prog, err := gapl.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pat, err := CompilePattern(prog, schemas)
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	return pat
}

var topicSeq = map[string]uint64{}

func ev(schemas map[string]*types.Schema, topic string, ts int64, u, v int64) *types.Event {
	topicSeq[topic]++
	return &types.Event{
		Topic:  topic,
		Schema: schemas[topic],
		Tuple: &types.Tuple{
			Seq:  topicSeq[topic],
			TS:   types.Timestamp(ts),
			Vals: []types.Value{types.Int(u), types.Int(v)},
		},
	}
}

func collect(m *Machine) *[][]types.Value {
	out := &[][]types.Value{}
	m.OnMatch = func(vals []types.Value) error {
		*out = append(*out, vals)
		return nil
	}
	return out
}

func fmtMatches(ms [][]types.Value) string {
	s := ""
	for _, vals := range ms {
		s += "["
		for i, v := range vals {
			if i > 0 {
				s += " "
			}
			s += v.Kind().String() + ":" + v.String()
		}
		s += "]"
	}
	return s
}

const sec = int64(1e9)

func TestSequenceWithin(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then b within 5 SECS;
			where b.u == a.u;
			emit a.u, a.v, b.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	m.Feed(ev(schemas, "A", 1*sec, 1, 10))
	m.Feed(ev(schemas, "A", 2*sec, 2, 20))
	m.Feed(ev(schemas, "B", 3*sec, 1, 30))  // matches the first A
	m.Feed(ev(schemas, "B", 8*sec, 2, 40))  // 6s after A(2): window expired
	m.Feed(ev(schemas, "B", 10*sec, 1, 50)) // no open A(1) partial anymore
	m.AdvanceTo(types.Timestamp(20 * sec))

	want := "[int:1 int:10 int:30]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestSkipTillNextMatchMultipleStarts(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then b within 10 SECS;
			emit a.v, b.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	m.Feed(ev(schemas, "A", 1*sec, 0, 1))
	m.Feed(ev(schemas, "A", 2*sec, 0, 2))
	m.Feed(ev(schemas, "B", 3*sec, 0, 9))
	m.AdvanceTo(types.Timestamp(30 * sec))

	// Every qualifying A starts its own partial match; both close on the
	// first B, in creation order.
	want := "[int:1 int:9][int:2 int:9]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestMidSequenceNegation(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		subscribe c to C;
		pattern {
			match a then !b then c within 10 SECS;
			where b.u == a.u && c.u == a.u;
			emit a.v, c.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	m.Feed(ev(schemas, "A", 1*sec, 1, 1))
	m.Feed(ev(schemas, "A", 2*sec, 2, 2))
	m.Feed(ev(schemas, "B", 3*sec, 1, 0)) // kills the u=1 partial
	m.Feed(ev(schemas, "C", 4*sec, 1, 7))
	m.Feed(ev(schemas, "C", 5*sec, 2, 8))
	m.AdvanceTo(types.Timestamp(30 * sec))

	want := "[int:2 int:8]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestTrailingNegationCompletesAtDeadline(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then !b within 5 SECS;
			where b.u == a.u;
			emit a.u, a.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	m.Feed(ev(schemas, "A", 1*sec, 1, 10)) // B(u=1) follows: no match
	m.Feed(ev(schemas, "A", 2*sec, 2, 20)) // nothing follows: match at t=7s
	m.Feed(ev(schemas, "B", 3*sec, 1, 0))
	m.AdvanceTo(types.Timestamp(6 * sec))
	if len(*got) != 0 {
		t.Fatalf("match emitted before the deadline: %s", fmtMatches(*got))
	}
	m.AdvanceTo(types.Timestamp(7 * sec)) // watermark reaches 2s+5s
	want := "[int:2 int:20]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestKleeneCloseAndAggregates(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe s to A;
		subscribe m to B;
		subscribe e to C;
		pattern {
			match s then m+ then e within 60 SECS;
			where m.v > s.v;
			emit s.v, count(m), sum(m.v), avg(m.v), first(m.v), last(m.v), e.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	m.Feed(ev(schemas, "A", 1*sec, 0, 3))
	m.Feed(ev(schemas, "B", 2*sec, 0, 5))
	m.Feed(ev(schemas, "B", 3*sec, 0, 2)) // fails m.v > s.v: skipped
	m.Feed(ev(schemas, "B", 4*sec, 0, 7))
	m.Feed(ev(schemas, "C", 5*sec, 0, 99))
	m.AdvanceTo(types.Timestamp(120 * sec))

	want := "[int:3 int:2 int:12 real:6.0 int:5 int:7 int:99]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestOutOfOrderArrivalReordered(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then b within 10 SECS;
			emit a.v, b.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	// B arrives first in system time but is later in application time;
	// the buffer reorders before the watermark releases them.
	m.Feed(ev(schemas, "B", 5*sec, 0, 2))
	m.Feed(ev(schemas, "A", 1*sec, 0, 1))
	if len(*got) != 0 {
		t.Fatalf("premature emission: %s", fmtMatches(*got))
	}
	m.AdvanceTo(types.Timestamp(6 * sec))
	want := "[int:1 int:2]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	schemas := testSchemas(t)
	src := `
		subscribe a to A;
		subscribe b to B;
		subscribe c to C;
		pattern {
			match a then b+ then !c within 30 SECS;
			where b.u == a.u;
			emit a.v, count(b), sum(b.v);
		}`
	pat := mustPattern(t, src, schemas)

	m1 := NewMachine(pat)
	got1 := collect(m1)
	feed := func(m *Machine, evs ...*types.Event) {
		for _, e := range evs {
			m.Feed(e)
		}
	}
	e1 := ev(schemas, "A", 1*sec, 1, 10)
	e2 := ev(schemas, "B", 2*sec, 1, 5)
	e3 := ev(schemas, "B", 9*sec, 1, 6) // still buffered at snapshot time
	e4 := ev(schemas, "B", 12*sec, 1, 7)

	feed(m1, e1, e2, e3)
	m1.AdvanceTo(types.Timestamp(5 * sec))

	snap, err := m1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restoring into a fresh machine must continue bit-identically.
	m2 := NewMachine(mustPattern(t, src, schemas))
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got2 := collect(m2)
	*got2 = append([][]types.Value{}, *got1...)

	for _, m := range []*Machine{m1, m2} {
		feed(m, e4)
		m.AdvanceTo(types.Timestamp(60 * sec))
	}
	if fmtMatches(*got1) == "" {
		t.Fatal("expected at least one match")
	}
	if fmtMatches(*got1) != fmtMatches(*got2) {
		t.Fatalf("restored machine diverged:\n  orig:     %s\n  restored: %s",
			fmtMatches(*got1), fmtMatches(*got2))
	}

	// A second snapshot of the restored machine is byte-identical to a
	// snapshot of the original at the same point.
	s1, err := m1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatal("post-restore snapshots differ")
	}
}

func TestObserveBatchTimerPunctuation(t *testing.T) {
	schemas := testSchemas(t)
	pat := mustPattern(t, `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then !b within 2 SECS;
			emit a.v;
		}`, schemas)
	m := NewMachine(pat)
	got := collect(m)

	timerSchema, err := types.NewSchema(types.TimerTopic, false, -1,
		types.Column{Name: "ts", Type: types.ColTstamp})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(ts int64) *types.Event {
		return &types.Event{Topic: types.TimerTopic, Schema: timerSchema,
			Tuple: &types.Tuple{TS: types.Timestamp(ts), Vals: []types.Value{types.Stamp(types.Timestamp(ts))}}}
	}

	m.ObserveBatch([]*types.Event{ev(schemas, "A", 1*sec, 0, 42)})
	if len(*got) != 0 {
		t.Fatalf("match before punctuation: %s", fmtMatches(*got))
	}
	// Without the timer the watermark cannot move past the silent B
	// topic; the heartbeat retires the pending match.
	m.ObserveBatch([]*types.Event{tick(4 * sec)})
	want := "[int:42]"
	if fmtMatches(*got) != want {
		t.Fatalf("matches = %s, want %s", fmtMatches(*got), want)
	}
}

func TestPatternCompileErrors(t *testing.T) {
	schemas := testSchemas(t)
	cases := []struct {
		name, src string
	}{
		{"negated-first", `subscribe a to A; pattern { match !a; emit 1; }`},
		{"negated-kleene", `subscribe a to A; subscribe b to B; pattern { match a then !b+ within 1 SECS; emit a.v; }`},
		{"dup-var", `subscribe a to A; pattern { match a then a within 1 SECS; emit a.v; }`},
		{"trailing-neg-no-within", `subscribe a to A; subscribe b to B; pattern { match a then !b; emit a.v; }`},
		{"trailing-kleene-no-within", `subscribe a to A; subscribe b to B; pattern { match a then b+; emit a.v; }`},
		{"not-a-sub", `subscribe a to A; pattern { match x; emit 1; }`},
		{"with-behavior", `subscribe a to A; behavior { } pattern { match a; emit 1; }`},
		{"with-decl", `subscribe a to A; int n; pattern { match a; emit 1; }`},
		{"with-assoc", `subscribe a to A; associate t with A; pattern { match a; emit 1; }`},
	}
	for _, tc := range cases {
		if _, err := gapl.Compile(tc.src); err == nil {
			t.Errorf("%s: compile accepted invalid pattern", tc.name)
		}
	}

	semCases := []struct {
		name, src string
	}{
		{"bad-field", `subscribe a to A; pattern { match a; emit a.nope; }`},
		{"neg-in-emit", `subscribe a to A; subscribe b to B; pattern { match a then !b within 1 SECS; emit b.v; }`},
		{"neg-before-bound", `subscribe a to A; subscribe b to B; subscribe c to C; pattern { match a then !b then c; where b.v == c.v; emit a.v; }`},
		{"agg-in-where", `subscribe a to A; subscribe b to B; pattern { match a then b+ within 1 SECS; where count(b) > 2; emit a.v; }`},
		{"bare-var", `subscribe a to A; pattern { match a; emit a; }`},
		{"count-field", `subscribe a to A; pattern { match a; emit count(a.v); }`},
		{"sum-bare", `subscribe a to A; pattern { match a; emit sum(a); }`},
	}
	for _, tc := range semCases {
		prog, err := gapl.Compile(tc.src)
		if err != nil {
			t.Errorf("%s: structural compile failed early: %v", tc.name, err)
			continue
		}
		if _, err := CompilePattern(prog, schemas); err == nil {
			t.Errorf("%s: CompilePattern accepted invalid pattern", tc.name)
		}
	}
}

func TestPrintRoundTripPattern(t *testing.T) {
	src := `
		subscribe a to A;
		subscribe b to B;
		pattern {
			match a then b+ within 1500 MSECS;
			where b.u == a.u;
			emit a.v, count(b) into C;
		}`
	prog, err := gapl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := gapl.Print(prog)
	prog2, err := gapl.Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, printed)
	}
	if printed2 := gapl.Print(prog2); printed2 != printed {
		t.Fatalf("print not a fixpoint:\n%s\nvs\n%s", printed, printed2)
	}
	if prog2.Pattern == nil || prog2.Pattern.Within != 1500*1e6 || prog2.Pattern.Into != "C" {
		t.Fatalf("round-tripped pattern lost fields: %+v", prog2.Pattern)
	}
}

func BenchmarkMachineSequence(b *testing.B) {
	schemas := make(map[string]*types.Schema)
	for _, name := range []string{"A", "B"} {
		s, _ := types.NewSchema(name, false, -1,
			types.Column{Name: "u", Type: types.ColInt},
			types.Column{Name: "v", Type: types.ColInt})
		schemas[name] = s
	}
	prog, err := gapl.Compile(`
		subscribe a to A;
		subscribe b to B;
		pattern { match a then b within 1 SECS; where b.u == a.u; emit a.v, b.v; }`)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := CompilePattern(prog, schemas)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(pat)
	m.OnMatch = func([]types.Value) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i) * sec
		topic := "A"
		if i%2 == 1 {
			topic = "B"
		}
		m.Feed(&types.Event{Topic: topic, Schema: schemas[topic],
			Tuple: &types.Tuple{Seq: uint64(i), TS: types.Timestamp(ts),
				Vals: []types.Value{types.Int(int64(i % 4)), types.Int(int64(i))}}})
		if i%64 == 63 {
			m.AdvanceTo(types.Timestamp(ts))
		}
	}
}
