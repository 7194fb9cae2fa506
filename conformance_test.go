// The backend-parameterized conformance suite: every behavioral test runs
// against all Engine implementations — Embedded (in-process cache), the
// same durable (WAL-backed), Remote (RPC client against a served cache),
// and Cluster (hash-partitioned across three served caches) — pinning
// that the façade is location-transparent: watch ordering, per-automaton
// inbox options, stats counters and sentinel-error identity are identical
// across backends.
package unicache

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicache/internal/cache"
	"unicache/internal/rpc"
	"unicache/internal/types"
)

// backendPair is one backend's harness: a primary engine plus a second,
// independent engine over the same underlying cache (for tests that must
// keep committing while the primary's delivery path is deliberately
// stalled).
type backendPair struct {
	primary   Engine
	secondary Engine
}

// forEachBackend runs fn once per backend. cfg configures the underlying
// cache of both; the Timer is disabled for determinism unless cfg sets a
// period.
func forEachBackend(t *testing.T, cfg Config, fn func(t *testing.T, p backendPair)) {
	t.Helper()
	if cfg.TimerPeriod == 0 {
		cfg.TimerPeriod = -1
	}
	if cfg.PrintWriter == nil {
		cfg.PrintWriter = &strings.Builder{}
	}
	if cfg.OnRuntimeError == nil {
		cfg.OnRuntimeError = func(int64, error) {} // Fail-policy detaches are expected in some tests
	}
	t.Run("embedded", func(t *testing.T) {
		e, err := NewEmbedded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		second := Embed(e.Cache())
		t.Cleanup(func() { _ = second.Close() })
		fn(t, backendPair{primary: e, secondary: second})
	})
	t.Run("durable", func(t *testing.T) {
		// The same embedded engine, running over a write-ahead log: the
		// behavioral contract must not notice durability.
		dcfg := cfg
		dcfg.DataDir = t.TempDir()
		e, err := NewEmbedded(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		second := Embed(e.Cache())
		t.Cleanup(func() { _ = second.Close() })
		fn(t, backendPair{primary: e, secondary: second})
	})
	t.Run("remote", func(t *testing.T) {
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		srv := rpc.NewServer(c)
		dial := func() Engine {
			cEnd, sEnd := net.Pipe()
			go srv.ServeConn(sEnd)
			r := NewRemote(cEnd)
			t.Cleanup(func() { _ = r.Close() })
			return r
		}
		fn(t, backendPair{primary: dial(), secondary: dial()})
	})
	t.Run("cluster", func(t *testing.T) {
		// Three served caches behind one hash-partitioned Engine: the
		// whole behavioral contract must be location-transparent across
		// node boundaries too.
		const nNodes = 3
		servers := make([]*rpc.Server, nNodes)
		names := make([]string, nNodes)
		for i := range servers {
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			servers[i] = rpc.NewServer(c)
			names[i] = fmt.Sprintf("node%d", i)
		}
		dial := func() Engine {
			clients := make([]*rpc.Client, nNodes)
			for i, srv := range servers {
				cEnd, sEnd := net.Pipe()
				go srv.ServeConn(sEnd)
				clients[i] = rpc.NewClient(cEnd)
			}
			e := clusterFromClients(names, clients)
			t.Cleanup(func() { _ = e.Close() })
			return e
		}
		fn(t, backendPair{primary: dial(), secondary: dial()})
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConformanceTableLifecycle(t *testing.T) {
	forEachBackend(t, Config{}, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (name varchar, v integer)`); err != nil {
			t.Fatal(err)
		}
		schema, err := types.NewSchema("KV", true, 0,
			Column{Name: "k", Type: types.ColVarchar},
			Column{Name: "n", Type: types.ColInt})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		tables, err := e.Tables()
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(tables, ",")
		for _, want := range []string{"KV", "S", "Timer"} {
			if !strings.Contains(got, want) {
				t.Errorf("Tables() = %s, missing %s", got, want)
			}
		}
		if err := e.Insert("S", types.Str("a"), types.Int(1)); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertBatch("S", [][]Value{
			{types.Str("b"), types.Int(2)},
			{types.Str("c"), types.Int(3)},
		}); err != nil {
			t.Fatal(err)
		}
		// The persistent table upserts by key — both rows land, the second
		// k=x write wins.
		for _, row := range [][]Value{
			{types.Str("x"), types.Int(10)},
			{types.Str("x"), types.Int(20)},
		} {
			if err := e.Insert("KV", row...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Exec(`select count(*) from S`)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.Rows[0][0].AsInt(); n != 3 {
			t.Errorf("count(S) = %d, want 3", n)
		}
		res, err = e.Exec(`select n from KV where k = 'x'`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("KV rows = %+v", res.Rows)
		}
		if n, _ := res.Rows[0][0].AsInt(); n != 20 {
			t.Errorf("KV[x] = %d, want 20", n)
		}
	})
}

func TestConformanceWatchOrdering(t *testing.T) {
	const total = 300
	forEachBackend(t, Config{}, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (v integer)`); err != nil {
			t.Fatal(err)
		}
		type tapLog struct {
			mu   sync.Mutex
			seqs []uint64
			vals []int64
		}
		newTap := func() (*tapLog, func(*Event)) {
			l := &tapLog{}
			return l, func(ev *Event) {
				// Events are self-describing on every backend: remote and
				// cluster watches resolve the schema through the
				// connection's describe cache.
				if ev.Schema == nil || ev.Schema.ColIndex("v") != 0 {
					t.Errorf("watch event schema = %+v, want column v", ev.Schema)
				}
				v, err := ev.Field("v")
				if err != nil {
					t.Errorf("Field(v): %v", err)
				}
				n, _ := v.AsInt()
				l.mu.Lock()
				l.seqs = append(l.seqs, ev.Tuple.Seq)
				l.vals = append(l.vals, n)
				l.mu.Unlock()
			}
		}
		logA, fnA := newTap()
		logB, fnB := newTap()
		wa, err := e.Watch("S", fnA)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := e.Watch("S", fnB)
		if err != nil {
			t.Fatal(err)
		}
		if wa.ID() >= 0 || wb.ID() >= 0 || wa.ID() == wb.ID() {
			t.Errorf("watch ids = %d, %d (want distinct negatives)", wa.ID(), wb.ID())
		}
		if wa.Topic() != "S" {
			t.Errorf("watch topic = %q", wa.Topic())
		}
		// Mixed batch sizes: singles and runs must arrive as one
		// interleaving, in commit order, on every tap.
		sent := 0
		for sent < total {
			n := 1 + sent%7
			if sent+n > total {
				n = total - sent
			}
			rows := make([][]Value, n)
			for i := range rows {
				rows[i] = []Value{types.Int(int64(sent + i))}
			}
			if err := e.InsertBatch("S", rows); err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		count := func(l *tapLog) int {
			l.mu.Lock()
			defer l.mu.Unlock()
			return len(l.seqs)
		}
		waitFor(t, 10*time.Second, "watch delivery", func() bool {
			return count(logA) == total && count(logB) == total
		})
		check := func(name string, l *tapLog) {
			l.mu.Lock()
			defer l.mu.Unlock()
			for i := 0; i < total; i++ {
				if l.seqs[i] != uint64(i+1) {
					t.Fatalf("%s: seq[%d] = %d, want %d (per-topic commit order violated)", name, i, l.seqs[i], i+1)
				}
				if l.vals[i] != int64(i) {
					t.Fatalf("%s: val[%d] = %d, want %d", name, i, l.vals[i], i)
				}
			}
		}
		check("tapA", logA)
		check("tapB", logB)
		// A drained, healthy tap reports zero depth and zero drops.
		st, err := wa.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Topic != "S" || st.Depth != 0 || st.Dropped != 0 {
			t.Errorf("watch stats = %+v", st)
		}
		// Close detaches: later commits never reach the callback.
		if err := wa.Close(); err != nil {
			t.Fatal(err)
		}
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert("S", types.Int(999)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, "watch teardown in stats", func() bool {
			st, err := e.Stats()
			if err != nil {
				return false
			}
			return len(st.Watches) == 0
		})
		if count(logA) != total {
			t.Errorf("tapA saw %d events after Close, want %d", count(logA), total)
		}
	})
}

func TestConformanceRegisterAndEvents(t *testing.T) {
	forEachBackend(t, Config{}, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (v integer)`); err != nil {
			t.Fatal(err)
		}
		a, err := e.Register(`
subscribe r to S;
behavior { if (r.v > 10) send('hot', r.v); }
`)
		if err != nil {
			t.Fatal(err)
		}
		if a.ID() <= 0 {
			t.Fatalf("automaton id = %d", a.ID())
		}
		for _, v := range []int64{5, 50, 7, 70, 2, 20} {
			if err := e.Insert("S", types.Int(v)); err != nil {
				t.Fatal(err)
			}
		}
		var got []int64
		timeout := time.After(10 * time.Second)
		for len(got) < 3 {
			select {
			case vals, ok := <-a.Events():
				if !ok {
					t.Fatalf("events channel closed early; got %v", got)
				}
				if s, _ := vals[0].AsStr(); s != "hot" {
					t.Errorf("vals[0] = %v", vals[0])
				}
				n, _ := vals[1].AsInt()
				got = append(got, n)
			case <-timeout:
				t.Fatalf("timed out; got %v", got)
			}
		}
		if got[0] != 50 || got[1] != 70 || got[2] != 20 {
			t.Errorf("send order = %v, want [50 70 20]", got)
		}
		waitFor(t, 5*time.Second, "automaton stats", func() bool {
			st, err := a.Stats()
			return err == nil && st.Processed == 6 && st.Depth == 0 && st.Dropped == 0
		})
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		// After Close the channel drains and closes; no further sends.
		waitFor(t, 5*time.Second, "events channel close", func() bool {
			select {
			case _, ok := <-a.Events():
				return !ok
			default:
				return false
			}
		})
		waitFor(t, 5*time.Second, "automaton teardown in stats", func() bool {
			st, err := e.Stats()
			return err == nil && len(st.Automata) == 0
		})
	})
}

func TestConformanceAutomatonInboxOptions(t *testing.T) {
	const flood = 5000
	// The engine-wide default inbox is a tiny Fail-policy bound: any
	// automaton left on the defaults is unregistered by the flood, while
	// InboxCapacity(-1) forces this automaton's inbox unbounded — the
	// option must override the default in both directions, across the
	// wire exactly as embedded.
	cfg := Config{AutomatonQueue: 4, AutomatonPolicy: Fail}
	forEachBackend(t, cfg, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (v integer)`); err != nil {
			t.Fatal(err)
		}
		unbounded, err := e.Register(`subscribe r to S; int n; behavior { n += 1; }`, InboxCapacity(-1))
		if err != nil {
			t.Fatal(err)
		}
		doomed, err := e.Register(`subscribe r to S; int n; behavior { n += 1; }`)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := e.Register(`subscribe r to S; int n; behavior { n += 1; }`,
			InboxCapacity(8), InboxPolicy(DropOldest))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, flood)
		for i := range rows {
			rows[i] = []Value{types.Int(int64(i))}
		}
		if err := e.InsertBatch("S", rows); err != nil {
			t.Fatal(err)
		}
		// The unbounded automaton absorbs and processes the whole flood.
		waitFor(t, 20*time.Second, "unbounded automaton to process the flood", func() bool {
			st, err := unbounded.Stats()
			return err == nil && st.Processed == flood && st.Dropped == 0
		})
		// The default-bound Fail automaton overflowed and self-unregistered.
		waitFor(t, 20*time.Second, "Fail-policy automaton teardown", func() bool {
			st, err := e.Stats()
			if err != nil {
				return false
			}
			for _, a := range st.Automata {
				if a.ID == doomed.ID() {
					return false
				}
			}
			return true
		})
		// The DropOldest automaton survived but shed most of the flood.
		waitFor(t, 20*time.Second, "DropOldest automaton to drain", func() bool {
			st, err := bounded.Stats()
			return err == nil && st.Depth == 0 && st.Dropped > 0 &&
				st.Processed+st.Dropped == flood
		})
	})
}

func TestConformanceStatsCounters(t *testing.T) {
	// A deliberately wedged tap: queue 2, DropOldest, callback parked on a
	// gate. Commits flow through the SECOND engine (the primary's delivery
	// path is stalled by design — for Remote that parks the read loop), and
	// the flood must overflow every buffer between commit and callback
	// before the tap's inbox starts shedding; Stats then shows the drops.
	const flood = 8192
	forEachBackend(t, Config{}, func(t *testing.T, p backendPair) {
		e, feeder := p.primary, p.secondary
		if _, err := e.Exec(`create table S (v integer)`); err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		var gateOnce sync.Once
		release := func() { gateOnce.Do(func() { close(gate) }) }
		defer release()
		w, err := e.Watch("S", func(*Event) { <-gate }, WatchQueue(2), WatchPolicy(DropOldest))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, 512)
		for i := range rows {
			rows[i] = []Value{types.Int(int64(i))}
		}
		for sent := 0; sent < flood; sent += len(rows) {
			if err := feeder.InsertBatch("S", rows); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 30*time.Second, "tap to shed under DropOldest", func() bool {
			st, err := feeder.Stats()
			if err != nil {
				return false
			}
			for _, ws := range st.Watches {
				if ws.ID == w.ID() {
					if ws.Topic != "S" {
						t.Fatalf("stats topic = %q, want S", ws.Topic)
					}
					return ws.Dropped > 0
				}
			}
			return false
		})
		release()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceSentinelErrors(t *testing.T) {
	forEachBackend(t, Config{}, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (v integer)`); err != nil {
			t.Fatal(err)
		}
		expect := func(name string, err, sentinel error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s: expected an error", name)
				return
			}
			if !errors.Is(err, sentinel) {
				t.Errorf("%s: errors.Is(%v, %v) = false", name, err, sentinel)
			}
		}
		expect("insert into missing table",
			e.Insert("Nope", types.Int(1)), ErrNoSuchTable)
		_, err := e.Exec(`select * from Nope`)
		expect("select from missing table", err, ErrNoSuchTable)
		_, err = e.Watch("Nope", func(*Event) {})
		expect("watch on missing topic", err, ErrNoSuchTable)
		_, err = e.Exec(`create table S (v integer)`)
		expect("duplicate create table", err, ErrTableExists)
		expect("wrong arity",
			e.Insert("S", types.Int(1), types.Int(2)), ErrBadSchema)
		expect("uncoercible value",
			e.Insert("S", types.Str("not an int")), ErrBadSchema)
		expect("bad batch row",
			e.InsertBatch("S", [][]Value{{types.Int(1)}, {types.Str("x")}}), ErrBadSchema)
		// A compile error is an error on both backends (no sentinel
		// identity required, but it must not be swallowed).
		if _, err := e.Register(`this is not gapl`); err == nil {
			t.Error("register with bad source should error")
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		expect("insert after close", e.Insert("S", types.Int(1)), ErrClosed)
		_, err = e.Exec(`select * from S`)
		expect("exec after close", err, ErrClosed)
		_, err = e.Watch("S", func(*Event) {})
		expect("watch after close", err, ErrClosed)
		_, err = e.Register(`subscribe r to S; behavior { send(r.v); }`)
		expect("register after close", err, ErrClosed)
		_, err = e.Stats()
		expect("stats after close", err, ErrClosed)
		if err := e.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
	})
}

// TestRemoteWatchTeardownOnConnectionDeath pins the server-side
// bookkeeping: a client that dials, watches, registers and then dies
// abruptly must leave no topic subscriber, no Watch tap and no automaton
// behind — the serve loop's teardown path reclaims everything.
func TestRemoteWatchTeardownOnConnectionDeath(t *testing.T) {
	c, err := cache.New(cache.Config{TimerPeriod: -1, PrintWriter: &strings.Builder{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Exec(`create table S (v integer)`); err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(c)

	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	r := NewRemote(cEnd)

	if _, err := r.Watch("S", func(*Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(`subscribe r to S; behavior { send(r.v); }`); err != nil {
		t.Fatal(err)
	}
	if n := c.Broker().Subscribers("S"); n != 2 {
		t.Fatalf("subscribers = %d, want 2 (tap + automaton)", n)
	}
	if len(c.TapStats()) != 1 || c.Registry().Len() != 1 {
		t.Fatalf("taps = %d, automata = %d", len(c.TapStats()), c.Registry().Len())
	}

	// Kill the transport out from under the client — no graceful unwind.
	_ = cEnd.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if c.Broker().Subscribers("S") == 0 && len(c.TapStats()) == 0 && c.Registry().Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown incomplete: subscribers=%d taps=%d automata=%d",
				c.Broker().Subscribers("S"), len(c.TapStats()), c.Registry().Len())
		}
		time.Sleep(time.Millisecond)
	}
	_ = r.Close()
}

// TestRemoteErrorMessagePreserved pins that the wire keeps the
// human-readable message alongside the restored sentinel identity.
func TestRemoteErrorMessagePreserved(t *testing.T) {
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	srv := rpc.NewServer(c)
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	r := NewRemote(cEnd)
	t.Cleanup(func() { _ = r.Close() })

	insErr := r.Insert("Phantom", types.Int(1))
	if insErr == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(insErr, ErrNoSuchTable) {
		t.Errorf("errors.Is(_, ErrNoSuchTable) = false for %v", insErr)
	}
	if !strings.Contains(insErr.Error(), "Phantom") {
		t.Errorf("message lost the table name: %v", insErr)
	}
	if !strings.Contains(fmt.Sprintf("%v", insErr), "no such table") {
		t.Errorf("message lost the sentinel text: %v", insErr)
	}
}

// TestConformanceDurableReopen is the reopen-equivalence conformance
// case: an Embedded engine closed cleanly and reopened over the same
// data directory presents identical table contents, continues sequence
// numbers contiguously, and reports its durability counters through the
// same Stats surface every backend shares.
func TestConformanceDurableReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{TimerPeriod: -1, PrintWriter: &strings.Builder{}, DataDir: dir}

	e1, err := NewEmbedded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Exec(`create persistenttable Counters (name varchar(8) primary key, n integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Exec(`create table Events (v integer)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := e1.Insert("Events", types.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Insert("Counters", types.Str("a"), types.Int(42)); err != nil {
		t.Fatal(err)
	}
	before, err := e1.Exec(`select name, n from Counters`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEmbedded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e2.Close() })
	after, err := e2.Exec(`select name, n from Counters`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Rows) != fmt.Sprint(before.Rows) {
		t.Fatalf("Counters rows changed across reopen: %v -> %v", before.Rows, after.Rows)
	}
	tables, err := e2.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tables) != "[Counters Events Timer]" {
		t.Fatalf("recovered tables = %v", tables)
	}
	// New commits continue the recovered sequence, observable on a watch.
	var mu sync.Mutex
	var seqs []uint64
	w, err := e2.Watch("Events", func(ev *Event) {
		mu.Lock()
		seqs = append(seqs, ev.Tuple.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := e2.Insert("Events", types.Int(4)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the post-reopen event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == 1
	})
	if seqs[0] != 4 {
		t.Fatalf("post-reopen commit got seq %d, want 4 (continuing 1..3)", seqs[0])
	}
	st, err := e2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("Stats().Durability is nil on a durable engine")
	}
	if st.Durability.Replayed == 0 {
		t.Fatal("Stats().Durability.Replayed = 0 after recovering 4 rows")
	}
}

// TestDeliveryCoherentUnderSheddingLoad drives every backend with
// concurrent producers, DropOldest watch taps and an automaton sized to shed
// most of the stream, a tap closed mid-flight, and an engine close at the
// end. Every delivered event must still carry coherent values; under -race
// this also checks that subscribers sharing one committed event never race.
func TestDeliveryCoherentUnderSheddingLoad(t *testing.T) {
	forEachBackend(t, Config{EphemeralCapacity: 64}, func(t *testing.T, p backendPair) {
		e := p.primary
		if _, err := e.Exec(`create table S (src integer, v integer)`); err != nil {
			t.Fatal(err)
		}
		var delivered, bad atomic.Uint64
		check := func(ev *Event) {
			if len(ev.Tuple.Vals) != 2 || ev.Tuple.Vals[0].Kind() != types.KindInt || ev.Tuple.Vals[1].Kind() != types.KindInt {
				bad.Add(1)
			}
			delivered.Add(1)
		}
		// A tiny DropOldest tap: most of the stream is shed at the inbox,
		// concurrently with commits.
		shedding, err := e.Watch("S", check, WatchQueue(4), WatchPolicy(DropOldest))
		if err != nil {
			t.Fatal(err)
		}
		// A roomy tap that sees everything, as the delivery control.
		keeper, err := e.Watch("S", check, WatchQueue(-1))
		if err != nil {
			t.Fatal(err)
		}
		// An automaton with a tiny shedding inbox, reading fields off the
		// delivered event inside the VM.
		a, err := e.Register(`subscribe r to S; int n; behavior { n += r.v; if (n % 7 == 0) { send(n); } }`,
			InboxCapacity(4), InboxPolicy(DropOldest))
		if err != nil {
			t.Fatal(err)
		}
		var drain sync.WaitGroup
		drain.Add(1)
		go func() {
			defer drain.Done()
			for range a.Events() {
			}
		}()

		const producers, batches, batchSize = 4, 50, 16
		var wg sync.WaitGroup
		for pr := 0; pr < producers; pr++ {
			wg.Add(1)
			go func(pr int) {
				defer wg.Done()
				rows := make([][]Value, batchSize)
				for i := 0; i < batches; i++ {
					for j := range rows {
						rows[j] = []Value{types.Int(int64(pr)), types.Int(int64(i*batchSize + j))}
					}
					if err := e.InsertBatch("S", rows); err != nil {
						t.Errorf("producer %d: %v", pr, err)
						return
					}
					if i == batches/2 && pr == 0 {
						// Tear a subscriber down mid-stream.
						_ = shedding.Close()
					}
				}
			}(pr)
		}
		wg.Wait()
		total := uint64(producers * batches * batchSize)
		waitFor(t, 10*time.Second, "keeper tap to drain", func() bool {
			return delivered.Load() >= total // keeper alone must see every event
		})
		if !WaitIdle(e, 10*time.Second) {
			t.Fatal("automata not idle")
		}
		if bad.Load() != 0 {
			t.Fatalf("%d delivered events were incoherent", bad.Load())
		}
		_ = keeper.Close()
		_ = a.Close()
		drain.Wait()
	})
}
