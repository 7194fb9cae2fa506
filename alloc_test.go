// Allocation gates for the embedded steady-state insert path (commit,
// sequence, ring store and publish on heap events) and for the Fig. 4
// automaton's per-event path. CI runs them without -race and fails the
// build on regression.
package unicache

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"unicache/internal/types"
)

// Allocation bounds of one warm insert. A batch allocates one array of
// commit blocks (each a row's tuple and event) and the two pointer slices
// over them, and nothing per row; a one-row batch puts all three in one
// allocation.
const (
	maxBatchInsertAllocs  = 3
	maxSingleInsertAllocs = 1
)

// TestSteadyStateInsertBatchAllocs: once the ephemeral ring has wrapped, a
// 64-row InsertBatch allocates at most maxBatchInsertAllocs times — per
// batch, not per event.
func TestSteadyStateInsertBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race instrumentation")
	}
	eng, err := NewEmbedded(Config{TimerPeriod: -1, EphemeralCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	if _, err := eng.Exec(`create table T (src integer, v integer)`); err != nil {
		t.Fatal(err)
	}
	const batchSize = 64
	rows := make([][]Value, batchSize)
	vals := make([]Value, 2*batchSize)
	for i := range rows {
		rows[i] = vals[2*i : 2*i+2]
		rows[i][0] = types.Int(int64(i))
		rows[i][1] = types.Int(int64(i))
	}
	// Warm up: wrap the ring several times so it is at steady state.
	for i := 0; i < 64; i++ {
		if err := eng.InsertBatch("T", rows); err != nil {
			t.Fatal(err)
		}
	}
	var insertErr error
	perBatch := testing.AllocsPerRun(200, func() {
		if err := eng.InsertBatch("T", rows); err != nil {
			insertErr = err
		}
	})
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if perBatch > maxBatchInsertAllocs {
		t.Errorf("steady-state InsertBatch allocates %.2f times per %d-row batch, want <= %d",
			perBatch, batchSize, maxBatchInsertAllocs)
	}
}

// TestSteadyStateSingleInsertAllocs pins the single-row path: Insert is a
// one-row batch, committed in one allocation.
func TestSteadyStateSingleInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race instrumentation")
	}
	eng, err := NewEmbedded(Config{TimerPeriod: -1, EphemeralCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	if _, err := eng.Exec(`create table T (v integer)`); err != nil {
		t.Fatal(err)
	}
	row := []Value{types.Int(1)}
	for i := 0; i < 1024; i++ {
		if err := eng.Insert("T", row...); err != nil {
			t.Fatal(err)
		}
	}
	var insertErr error
	perOp := testing.AllocsPerRun(200, func() {
		if err := eng.Insert("T", row...); err != nil {
			insertErr = err
		}
	})
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if perOp > maxSingleInsertAllocs {
		t.Errorf("steady-state Insert allocates %.2f times per event, want <= %d", perOp, maxSingleInsertAllocs)
	}
}

// fig4Program is the paper's Fig. 4 bandwidth automaton as the benchmark's
// embedded-fanout workload runs it: per event two association lookups,
// a Sequence(...) and an association insert, which is a one-row commit
// published on BWUsage.
const fig4Program = `
subscribe f to Flows;
associate a with Allowances;
associate b with BWUsage;
int n, limit;
identifier ip;
behavior {
	ip = Identifier(f.dstip);
	if (hasEntry(a, ip)) {
		limit = seqElement(lookup(a, ip), 1);
		if (hasEntry(b, ip))
			n = seqElement(lookup(b, ip), 1);
		else
			n = 0;
		n += f.nbytes;
		if (n > limit) {
			send(f.t0, f.tstamp, f.dstip, n);
			n = 0;
		}
		insert(b, ip, Sequence(f.dstip, n));
	}
}
`

// maxFig4AllocsPerEvent bounds the Fig. 4 path per delivered event: one
// sequence struct per lookup (sharing the committed row), the Sequence
// struct and its items, and the one-row commit of insert(); the Flows
// batch commit and the rare send() add a fraction.
const maxFig4AllocsPerEvent = 5.25

// TestSteadyStateFig4DeliverAllocs counts every heap allocation in the
// process while warm 64-row Flows batches pass through the Fig. 4
// automaton over 64 hosts, and divides by the events it processed.
func TestSteadyStateFig4DeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race instrumentation")
	}
	eng, err := NewEmbedded(Config{TimerPeriod: -1, PrintWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	for _, ddl := range []string{
		`create table Flows (protocol integer, srcip varchar(16), sport integer,
			dstip varchar(16), dport integer, npkts integer, nbytes integer, t0 integer)`,
		`create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)`,
		`create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)`,
	} {
		if _, err := eng.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	const (
		hosts     = 64
		batchSize = 64
		meanBytes = 75032
	)
	allow := make([][]Value, hosts)
	for h := range allow {
		allow[h] = []Value{types.Str(fmt.Sprintf("192.168.1.%d", h+1)), types.Int(hosts * meanBytes)}
	}
	if err := eng.InsertBatch("Allowances", allow); err != nil {
		t.Fatal(err)
	}
	a, err := eng.Register(fig4Program, InboxCapacity(4096), InboxPolicy(Block), EventBuffer(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range a.Events() {
		}
	}()
	// A fixed pool of batches: committed rows are never rewritten, so the
	// same row slices may be inserted again.
	pool := make([][][]Value, 16)
	for b := range pool {
		pool[b] = make([][]Value, batchSize)
		for i := range pool[b] {
			k := b*batchSize + i
			pool[b][i] = []Value{types.Int(6), types.Str("10.0.0.1"), types.Int(int64(1024 + k%512)),
				allow[(k*7)%hosts][0], types.Int(80), types.Int(int64(1 + k%9)),
				types.Int(int64(meanBytes/2 + (k*7919)%meanBytes)), types.Int(int64(k))}
		}
	}
	var inserted uint64
	run := func(batches int) {
		t.Helper()
		for i := 0; i < batches; i++ {
			if err := eng.InsertBatch("Flows", pool[i%len(pool)]); err != nil {
				t.Fatal(err)
			}
		}
		inserted += uint64(batches * batchSize)
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := a.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Processed >= inserted {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("automaton processed %d of %d events", st.Processed, inserted)
			}
			time.Sleep(time.Millisecond)
		}
	}
	run(200) // warm: every host has a BWUsage row, inboxes and rings are sized
	const batches = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(batches)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(batches*batchSize)
	t.Logf("Fig. 4 path: %.2f allocations per delivered event", perEvent)
	if perEvent > maxFig4AllocsPerEvent {
		t.Errorf("Fig. 4 path allocates %.2f times per delivered event, want <= %.2f",
			perEvent, maxFig4AllocsPerEvent)
	}
}
