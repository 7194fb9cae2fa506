package unicache

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"unicache/internal/types"
)

// TestProgramWritesLeaveCommittedRowsUnchanged: a committed row is
// immutable history. A GAPL program that commits a sequence (publish,
// association insert) or reads a row as one (association lookup, an event
// used as a value) and then changes that sequence with seqSet changes only
// its own sequence, never the stored row.
func TestProgramWritesLeaveCommittedRowsUnchanged(t *testing.T) {
	for _, backend := range []string{"embedded", "durable"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{TimerPeriod: -1, PrintWriter: io.Discard}
			if backend == "durable" {
				cfg.DataDir = t.TempDir()
			}
			eng, err := NewEmbedded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = eng.Close() }()
			for _, st := range []string{
				`create table Go (n integer)`,
				`create table T (k varchar, v integer)`,
				`create persistenttable P (k varchar primary key, v integer)`,
				`insert into P values ('looked', 3)`,
			} {
				mustExecT(t, eng, st)
			}
			a, err := eng.Register(`
subscribe g to Go;
associate p with P;
sequence s, r;
map m;
initialization { m = Map(sequence); }
behavior {
	insert(m, 'event', g);
	r = lookup(m, 'event');
	seqSet(r, 0, 96);
	s = Sequence('published', 1);
	publish('T', s);
	seqSet(s, 1, 99);
	r = Sequence('inserted', 2);
	insert(p, 'inserted', r);
	seqSet(r, 1, 98);
	r = lookup(p, 'looked');
	seqSet(r, 1, 97);
	send(seqElement(s, 1), seqElement(r, 1));
}
`)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Insert("Go", types.Int(1)); err != nil {
				t.Fatal(err)
			}
			select {
			case vals := <-a.Events():
				// The program sees its own writes.
				if got := fmt.Sprint(vals); got != "[99 97]" {
					t.Errorf("program's sequences = %s, want [99 97]", got)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("timed out waiting for the program's send")
			}
			for q, want := range map[string]string{
				`select * from Go`:                     "[[1]]",
				`select * from T`:                      "[[published 1]]",
				`select v from P where k = 'inserted'`: "[[2]]",
				`select v from P where k = 'looked'`:   "[[3]]",
			} {
				if got := fmt.Sprint(selectRowsT(t, eng, q)); got != want {
					t.Errorf("%s = %s, want %s", q, got, want)
				}
			}
		})
	}
}

// TestProgramWritesRaceFreeWithReaders runs the same writes on every
// event while a watch reads each published row and a query scans the
// association: under -race any write that reached a committed row would
// be reported, and no reader may see a program's later write.
func TestProgramWritesRaceFreeWithReaders(t *testing.T) {
	eng, err := NewEmbedded(Config{TimerPeriod: -1, PrintWriter: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	for _, st := range []string{
		`create table Go (n integer)`,
		`create table T (n integer, v integer)`,
		`create persistenttable P (k varchar primary key, v integer)`,
		`insert into P values ('k', 0)`,
	} {
		mustExecT(t, eng, st)
	}
	const events = 500
	var bad, seen atomic.Int64
	if _, err := eng.Watch("T", func(ev *Event) {
		if v, _ := ev.Tuple.Vals[1].AsInt(); v != 0 {
			bad.Add(1)
		}
		seen.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	a, err := eng.Register(`
subscribe g to Go;
associate p with P;
sequence s, r;
behavior {
	s = Sequence(g.n, 0);
	publish('T', s);
	seqSet(s, 1, -1);
	r = lookup(p, 'k');
	seqSet(r, 1, -1);
	r = Sequence('k', 0);
	insert(p, 'k', r);
	seqSet(r, 1, -1);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				scanned <- nil
				return
			default:
			}
			res, err := eng.Exec(`select v from P`)
			if err != nil {
				scanned <- err
				return
			}
			if got := fmt.Sprint(res.Rows); got != "[[0]]" {
				scanned <- fmt.Errorf("select v from P = %s, want [[0]]", got)
				return
			}
		}
	}()
	for i := 0; i < events; i++ {
		if err := eng.Insert("Go", types.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "every event processed and watched", func() bool {
		st, err := a.Stats()
		return err == nil && st.Processed == events && seen.Load() == events
	})
	close(done)
	if err := <-scanned; err != nil {
		t.Error(err)
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("watch saw %d published rows rewritten after commit", n)
	}
}
