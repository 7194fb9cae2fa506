package vm

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"unicache/internal/gapl"
	"unicache/internal/types"
)

// The differential test: every program of vm_test.go and batch_test.go runs
// twice, once through the compiled closure chains (execSteps) and once
// through the switch interpreter (execSwitch), on fresh hosts fed the same
// deliveries. Sends, publishes, prints, association tables, final variables
// and every error — including MaxSteps aborts — must be identical.

// diffCase is one program plus the deliveries that exercise it.
type diffCase struct {
	name     string
	src      string
	maxSteps int // 0 means the 10M guard compileVM uses
	setup    func(h *fakeHost)
	drive    func(t *testing.T, h *fakeHost, m *VM) []error
}

// trace is everything a run can observe.
type trace struct {
	InitErr   string
	Errs      []string
	Sent      [][]string
	Published []string
	Printed   []string
	Vars      []string
	Assocs    []string
}

func render(v types.Value) string { return v.Kind().String() + ":" + v.String() }

func renderAll(vs []types.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = render(v)
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runDiff executes one case on a fresh host and VM. interp forces the switch
// interpreter by marking both clauses as declined by the closure compiler.
func runDiff(t *testing.T, tc diffCase, interp bool) trace {
	t.Helper()
	h := newFakeHost()
	if tc.setup != nil {
		tc.setup(h)
	}
	prog, err := gapl.Compile(tc.src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := prog.Bind(schemas(t)); err != nil {
		t.Fatalf("bind: %v", err)
	}
	m, err := New(prog, h)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = tc.maxSteps
	if m.MaxSteps == 0 {
		m.MaxSteps = 10_000_000
	}
	if interp {
		m.initCompiled, m.behCompiled = true, true
	}
	var tr trace
	tr.InitErr = errString(m.RunInit())
	for _, err := range tc.drive(t, h, m) {
		tr.Errs = append(tr.Errs, errString(err))
	}
	if !interp && len(prog.Behavior) > 0 && m.behCompiled && m.behSteps == nil {
		t.Fatal("closure compiler declined the behaviour clause: the comparison would be vacuous")
	}
	for _, vals := range h.sent {
		tr.Sent = append(tr.Sent, renderAll(vals))
	}
	for _, p := range h.published {
		tr.Published = append(tr.Published, p.topic+"("+strings.Join(renderAll(p.vals), ", ")+")")
	}
	tr.Printed = h.printed
	m.VisitVars(func(name string, v types.Value) {
		tr.Vars = append(tr.Vars, name+"="+render(v))
	})
	for name, mp := range h.assocs {
		tr.Assocs = append(tr.Assocs, name+"="+mp.String())
	}
	sort.Strings(tr.Assocs)
	return tr
}

// timerOnce delivers a single Timer tick.
func timerOnce(t *testing.T, _ *fakeHost, m *VM) []error {
	return []error{m.Deliver(timerEvent(t, 1))}
}

// deliverEach delivers events one activation at a time.
func deliverEach(evs func(t *testing.T) []*types.Event) func(*testing.T, *fakeHost, *VM) []error {
	return func(t *testing.T, _ *fakeHost, m *VM) []error {
		var errs []error
		for _, ev := range evs(t) {
			errs = append(errs, m.Deliver(ev))
		}
		return errs
	}
}

// deliverRuns delivers each run with one batch activation.
func deliverRuns(runs func(t *testing.T) [][]*types.Event) func(*testing.T, *fakeHost, *VM) []error {
	return func(t *testing.T, _ *fakeHost, m *VM) []error {
		var errs []error
		for _, run := range runs(t) {
			errs = append(errs, m.DeliverBatch(run))
		}
		return errs
	}
}

func diffCases() []diffCase {
	cases := []diffCase{
		{name: "arithmetic-control-flow", src: `
subscribe t to Timer;
int sum, i;
initialization { sum = 0; }
behavior {
	i = 1;
	while (i <= 10) {
		if (i % 2 == 0)
			sum += i;
		i += 1;
	}
}`, drive: timerOnce},
		{name: "compound-assign", src: `
subscribe t to Timer;
int a, b, c, d, e;
behavior {
	a = 10; a += 5;
	b = 10; b -= 3;
	c = 10; c *= 4;
	d = 10; d /= 3;
	e = 10; e %= 3;
}`, drive: timerOnce},
		{name: "short-circuit", src: `
subscribe t to Timer;
int zero, hits;
bool b;
behavior {
	zero = 0;
	b = false && (1 / zero == 1);
	if (!b) hits += 1;
	b = true || (1 / zero == 1);
	if (b) hits += 1;
}`, drive: timerOnce},
		{name: "field-access-current-topic", src: `
subscribe f to Flows;
subscribe t to Timer;
int n;
string topic;
tstamp ts;
behavior {
	topic = currentTopic();
	if (topic == 'Flows') {
		n += f.nbytes;
		ts = f.tstamp;
	}
}`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return []*types.Event{flowEvent(t, 7, "a", "b", 100), flowEvent(t, 9, "a", "b", 50), timerEvent(t, 10)}
		})},
		{name: "field-before-event", src: `
subscribe f to Flows;
subscribe t to Timer;
int n;
behavior { n = f.nbytes; }`, drive: timerOnce},
		{name: "sequence-builtins", src: `
subscribe t to Timer;
sequence s;
int n, size;
behavior {
	s = Sequence('a', 2, 3.5);
	append(s, 99);
	size = seqSize(s);
	n = seqElement(s, 3);
}`, drive: timerOnce},
		{name: "map-builtins", src: `
subscribe t to Timer;
map T;
identifier id;
int size, v, removedSize;
bool has, hasAfter;
initialization { T = Map(int); }
behavior {
	id = Identifier('key1');
	insert(T, id, 10);
	insert(T, Identifier('key2'), 20);
	has = hasEntry(T, id);
	v = lookup(T, id);
	size = mapSize(T);
	remove(T, id);
	hasAfter = hasEntry(T, id);
	removedSize = mapSize(T);
}`, drive: timerOnce},
		{name: "iterator-over-map", src: `
subscribe t to Timer;
map T;
iterator i;
identifier id;
int sum;
initialization {
	T = Map(int);
	insert(T, Identifier('a'), 1);
	insert(T, Identifier('b'), 2);
	insert(T, Identifier('c'), 4);
}
behavior {
	i = Iterator(T);
	while (hasNext(i)) {
		id = next(i);
		sum += lookup(T, id);
	}
}`, drive: timerOnce},
		{name: "window-rows-and-time", src: `
subscribe t to Timer;
window w, tw;
int n, tn;
initialization {
	w = Window(int, ROWS, 3);
	tw = Window(int, SECS, 10);
}
behavior {
	append(w, 1); append(w, 2); append(w, 3); append(w, 4);
	n = winSize(w);
	append(tw, 7);
	tn = winSize(tw);
}`, drive: func(t *testing.T, h *fakeHost, m *VM) []error {
			errs := []error{m.Deliver(timerEvent(t, 1))}
			h.clock = h.clock.Add(11_000_000_000)
			return append(errs, m.Deliver(timerEvent(t, 2)))
		}},
		{name: "publish-flattens", src: `
subscribe f to Flows;
behavior {
	publish('T', Sequence(f.srcip, f.nbytes));
	publish('U', f.nbytes, 7);
	publish('V', f);
}`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return []*types.Event{flowEvent(t, 1, "10.0.0.1", "d", 123)}
		})},
		{name: "send", src: `
subscribe f to Flows;
sequence s;
behavior {
	s = Sequence(f.dstip, f.nbytes);
	send(s, 100, 'limit exceeded');
}`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return []*types.Event{flowEvent(t, 1, "s", "8.8.8.8", 500)}
		})},
		{name: "time-builtins", src: `
subscribe t to Timer;
tstamp start;
int diff, hour, day;
behavior {
	start = tstampNow();
	diff = tstampDiff(tstampNow(), start);
	hour = hourInDay(start);
	day = dayInWeek(start);
}`, setup: func(h *fakeHost) { h.clock = 5_000_000_000 }, drive: timerOnce},
		{name: "conversions-and-math", src: `
subscribe t to Timer;
real r, sq, pw;
int i, a, mn, mx;
behavior {
	r = float(7) / 2.0;
	i = int(3.9);
	a = abs(0 - 5);
	mn = min(3, 9);
	mx = max(3, 9);
	sq = sqrt(16.0);
	pw = pow(2.0, 10.0);
}`, drive: timerOnce},
		{name: "print-and-concat", src: `
subscribe t to Timer;
behavior {
	print(String('value: ', 42, ' / ', 2.5));
	print('a', 'b');
}`, drive: timerOnce},
		{name: "delete-clears-aggregates", src: `
subscribe t to Timer;
map T;
window w;
int msize, wsize;
initialization {
	T = Map(int);
	w = Window(int, ROWS, 8);
}
behavior {
	insert(T, Identifier('x'), 1);
	append(w, 1);
	delete(T);
	delete(w);
	msize = mapSize(T);
	wsize = winSize(w);
}`, drive: timerOnce},
		{name: "association-ops", src: `
subscribe f to Flows;
associate a with Allowances;
associate b with BWUsage;
int n, limit;
identifier ip;
sequence s;
behavior {
	ip = Identifier(f.dstip);
	if (hasEntry(a, ip)) {
		limit = seqElement(lookup(a, ip), 1);
		if (hasEntry(b, ip))
			n = seqElement(lookup(b, ip), 1);
		else
			n = 0;
		n += f.nbytes;
		s = Sequence(f.dstip, n);
		if (n > limit)
			send(s, limit, 'limit exceeded');
		insert(b, ip, s);
	}
}`, setup: func(h *fakeHost) {
			h.assocs["Allowances"] = types.NewMap(types.KindNil)
			_ = h.assocs["Allowances"].Insert("8.8.8.8",
				types.SeqV(types.NewSequence(types.Str("8.8.8.8"), types.Int(1000))))
			h.assocs["BWUsage"] = types.NewMap(types.KindNil)
		}, drive: deliverEach(func(t *testing.T) []*types.Event {
			return []*types.Event{
				flowEvent(t, 1, "10.0.0.1", "1.1.1.1", 500),
				flowEvent(t, 2, "10.0.0.1", "8.8.8.8", 600),
				flowEvent(t, 3, "10.0.0.1", "8.8.8.8", 600),
			}
		})},
		{name: "frequent", src: `
subscribe e to Urls;
map T;
int k;
initialization {
	k = 4;
	T = Map(int);
}
behavior { frequent(T, Identifier(e.host), k); }`, drive: deliverEach(func(t *testing.T) []*types.Event {
			var evs []*types.Event
			for i, host := range []string{
				"heavy", "a", "heavy", "b", "heavy", "c", "heavy", "d",
				"heavy", "e", "heavy", "f", "heavy", "g", "heavy", "h",
			} {
				evs = append(evs, urlEvent(t, uint64(i+1), host))
			}
			return evs
		})},
		{name: "lsf", src: `
subscribe t to Timer;
window w;
sequence fit;
real slope, icept;
initialization { w = Window(sequence, ROWS, 16); }
behavior {
	append(w, Sequence(0, 1.0));
	append(w, Sequence(1, 3.0));
	append(w, Sequence(2, 5.0));
	append(w, Sequence(3, 7.0));
	fit = lsf(w);
	slope = seqElement(fit, 0);
	icept = seqElement(fit, 1);
}`, drive: timerOnce},
		{name: "max-steps-guard", src: `
subscribe t to Timer;
behavior { while (true) { } }`, maxSteps: 1000, drive: timerOnce},
		{name: "minimal", src: minSrc, drive: deliverEach(func(t *testing.T) []*types.Event {
			// The Flows event is on an unsubscribed topic: an error, no run.
			return []*types.Event{timerEvent(t, 1), flowEvent(t, 1, "a", "b", 1)}
		})},
		{name: "batch-avg", src: progBatchAvg, drive: func(t *testing.T, _ *fakeHost, m *VM) []error {
			run := flowRun(t, 100, 1, 2, 3, 4, 5, 6)
			errs := []error{m.DeliverBatch(run[:2]), m.DeliverBatch(run[2:])}
			for _, ev := range flowRun(t, 200, 7, 8) {
				errs = append(errs, m.Deliver(ev))
			}
			return errs
		}},
		{name: "append-run-whole-event-and-tstamp", src: `
subscribe f to Flows;
window rows, stamps;
int n;
initialization {
	rows = Window(sequence, ROWS, 8);
	stamps = Window(tstamp, ROWS, 8);
}
behavior {
	appendRun(rows, f);
	appendRun(stamps, f.tstamp);
	n = winSize(rows);
}`, drive: deliverRuns(func(t *testing.T) [][]*types.Event {
			return [][]*types.Event{flowRun(t, 500, 7, 8)}
		})},
		{name: "append-run-filters-by-topic", src: `
subscribe f to Flows;
subscribe u to Urls;
window w;
int n;
initialization { w = Window(int, ROWS, 16); }
behavior {
	appendRun(w, f.nbytes);
	n = runSize();
}`, drive: deliverRuns(func(t *testing.T) [][]*types.Event {
			return [][]*types.Event{append(flowRun(t, 100, 1, 2), urlRun(t, 200, "a", "b", "c")...)}
		})},
		{name: "run-size", src: `
subscribe u to Urls;
int last;
behavior { last = runSize(); }`, drive: func(t *testing.T, _ *fakeHost, m *VM) []error {
			return []error{m.Deliver(urlRun(t, 10, "x")[0]), m.DeliverBatch(urlRun(t, 10, "x", "y", "z"))}
		}},
		{name: "per-event-program", src: `
subscribe u to Urls;
int n;
behavior { n += 1; }`, drive: func(t *testing.T, _ *fakeHost, m *VM) []error {
			return []error{m.DeliverBatch(urlRun(t, 10, "x", "y")), m.Deliver(urlRun(t, 10, "z")[0])}
		}},
		{name: "batch-unknown-topic", src: `
subscribe u to Urls;
window w;
initialization { w = Window(string, ROWS, 4); }
behavior { appendRun(w, u.host); }`, drive: deliverRuns(func(t *testing.T) [][]*types.Event {
			return [][]*types.Event{{flowRun(t, 1, 42)[0]}, nil, urlRun(t, 5, "a", "b")}
		})},
		{name: "windowed-aggregates", src: `
subscribe t to Timer;
window ints, reals;
int sumI, minI;
real sumR, avg, maxR;
initialization {
	ints = Window(int, ROWS, 8);
	reals = Window(real, ROWS, 8);
	append(ints, 4); append(ints, 2); append(ints, 9);
	append(reals, 1.5); append(reals, 2.5);
}
behavior {
	sumI = winSum(ints);
	minI = winMin(ints);
	sumR = winSum(reals);
	avg = winAvg(ints);
	maxR = winMax(reals);
}`, drive: timerOnce},
		{name: "stddev-median", src: `
subscribe t to Timer;
window odd, even, one, mixed;
real sdOdd, sdOne, medOdd, medEven, medMixed;
initialization {
	odd = Window(int, ROWS, 8);
	append(odd, 2); append(odd, 4); append(odd, 9);
	even = Window(int, ROWS, 8);
	append(even, 1); append(even, 3); append(even, 8); append(even, 10);
	one = Window(int, ROWS, 8);
	append(one, 7);
	mixed = Window(real, ROWS, 8);
	append(mixed, 1.5); append(mixed, 2.5); append(mixed, 10.0);
}
behavior {
	sdOdd = winStddev(odd);
	sdOne = winStddev(one);
	medOdd = winMedian(odd);
	medEven = winMedian(even);
	medMixed = winMedian(mixed);
}`, drive: timerOnce},
		{name: "win-size-empty", src: `
subscribe t to Timer;
window w;
int n;
initialization { w = Window(int, ROWS, 4); }
behavior { n = winSize(w); }`, drive: timerOnce},
		{name: "win-sum-strings", src: `
subscribe t to Timer;
window w;
int n;
initialization { w = Window(string, ROWS, 4); append(w, 'x'); }
behavior { n = int(winSum(w)); }`, drive: timerOnce},
		{name: "time-window-eviction", src: `
subscribe f to Flows;
window w;
int n;
initialization { w = Window(int, MSECS, 10); }
behavior {
	appendRun(w, f.nbytes);
	n = winSize(w);
}`, drive: func(t *testing.T, h *fakeHost, m *VM) []error {
			ms := types.Timestamp(1_000_000)
			h.clock = 1002 * ms
			run := flowRun(t, 1000*ms, 1, 2)
			run[1].Tuple.TS = 1001 * ms
			errs := []error{m.DeliverBatch(run)}
			h.clock = 1012 * ms
			return append(errs, m.DeliverBatch(flowRun(t, 1010*ms, 3, 4, 5)))
		}},
		{name: "classify-field-read", src: `
subscribe f to Flows;
window w;
initialization { w = Window(int, ROWS, 4); }
behavior { append(w, f.nbytes); }`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return flowRun(t, 1, 5, 6, 7, 8, 9)
		})},
		{name: "classify-sub-var-as-value", src: `
subscribe f to Flows;
behavior { publish('Urls', f); }`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return flowRun(t, 1, 5, 6)
		})},
		{name: "classify-current-topic", src: `
subscribe f to Flows;
string s;
behavior { s = currentTopic(); runSize(); }`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return flowRun(t, 1, 5)
		})},
		{name: "classify-run-size-only", src: `
subscribe f to Flows;
int n;
behavior { n += runSize(); }`, drive: deliverRuns(func(t *testing.T) [][]*types.Event {
			return [][]*types.Event{flowRun(t, 1, 5, 6, 7), flowRun(t, 9, 1)}
		})},
		{name: "classify-append-run-plus-field", src: `
subscribe f to Flows;
window w;
int n;
initialization { w = Window(int, ROWS, 4); }
behavior { appendRun(w, f.nbytes); n = f.nbytes; }`, drive: deliverEach(func(t *testing.T) []*types.Event {
			return flowRun(t, 1, 5, 6)
		})},
	}
	// A clause aborted by MaxSteps must stop at the identical instruction:
	// sweeping consecutive limits puts the abort on every instruction of the
	// loop body, so n (and the next activation's send) pin the step count.
	for limit := 990; limit < 1000; limit++ {
		cases = append(cases, diffCase{name: fmt.Sprintf("max-steps-mid-clause/%d", limit), src: `
subscribe t to Timer;
int n;
behavior {
	send(n);
	while (true) { n += 1; }
}`, maxSteps: limit, drive: func(t *testing.T, _ *fakeHost, m *VM) []error {
			return []error{m.Deliver(timerEvent(t, 1)), m.Deliver(timerEvent(t, 2))}
		}})
	}
	for _, rc := range []struct{ name, src string }{
		{"lookup-missing", `subscribe t to Timer; map T; int v;
			initialization { T = Map(int); }
			behavior { v = lookup(T, Identifier('x')); }`},
		{"seq-out-of-range", `subscribe t to Timer; sequence s; int v;
			behavior { s = Sequence(1); v = seqElement(s, 5); }`},
		{"div-by-zero", `subscribe t to Timer; int z, v;
			behavior { z = 0; v = 1 / z; }`},
		{"iterator-on-int", `subscribe t to Timer; iterator i; int x;
			behavior { x = 1; i = Iterator(x); }`},
		{"append-on-int", `subscribe t to Timer; int x;
			behavior { x = 1; append(x, 2); }`},
		{"bad-window-constraint", `subscribe t to Timer; window w;
			behavior { w = Window(int, ROWS, 0); }`},
		{"assoc-missing-table", `subscribe t to Timer; associate a with NoTable; int n;
			behavior { n = mapSize(a); }`},
	} {
		cases = append(cases, diffCase{name: "runtime-error/" + rc.name, src: rc.src, drive: timerOnce})
	}
	for _, call := range []string{"winSum(w)", "winAvg(w)", "winMin(w)", "winMax(w)", "winStddev(w)", "winMedian(w)"} {
		cases = append(cases, diffCase{name: "empty-window/" + call, src: `
subscribe t to Timer;
window w;
real r;
initialization { w = Window(int, ROWS, 4); }
behavior { r = float(` + call + `); }`, drive: timerOnce})
	}
	for _, call := range []string{"winSum(1)", "winAvg(1)", "winMin(1)", "winMax(1)", "winStddev(1)", "winMedian(1)"} {
		cases = append(cases, diffCase{name: "non-window/" + call, src: `
subscribe t to Timer;
int n;
behavior { n = int(` + call + `); }`, drive: timerOnce})
	}
	return cases
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			compiled := runDiff(t, tc, false)
			interp := runDiff(t, tc, true)
			if !reflect.DeepEqual(compiled, interp) {
				t.Fatalf("closure chains and interpreter diverge:\ncompiled: %+v\ninterp:   %+v", compiled, interp)
			}
		})
	}
}
