package rpc

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"unicache/internal/pubsub"
	"unicache/internal/types"
)

// Syscall bounds of the transport, read from /proc/self/io. A one-row
// insert with a watch on its table is three messages (request, reply,
// push), each one write; reads include the would-block attempts the
// netpoller makes before parking. A 4 096-row batch is one request of 49
// fragments and one reply. With a watch on the table its pushes follow,
// coalesced into as many messages as the push writer finds backlogs, a
// number that depends on scheduling: there the bound is per message, with
// room for the odd write the runtime makes to wake its netpoller.
const (
	maxWritesPerRoundTrip = 3.5
	maxReadsPerRoundTrip  = 5
	maxWritesPerBatch4096 = 64
	maxReadsPerBatch4096  = 64
	maxReadsPerMessage    = 2
	strayWritesPerBatch   = 2
)

// procIO returns the read and write syscalls this process has made.
func procIO() (reads, writes uint64, err error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := bytes.Cut(sc.Bytes(), []byte(": "))
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(string(val), 10, 64)
		if err != nil {
			return 0, 0, err
		}
		switch string(name) {
		case "syscr":
			reads = n
		case "syscw":
			writes = n
		}
	}
	return reads, writes, nil
}

// TestSyscallsPerRoundTrip counts the read and write syscalls of the whole
// process while a client and an in-process server talk over loopback TCP,
// and pins them per round trip.
func TestSyscallsPerRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds syscalls of its own")
	}
	if _, _, err := procIO(); err != nil {
		t.Skipf("cannot read syscall counters: %v", err)
	}
	c := newServerCache(t)
	srv := NewServer(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{Conn: conn}
	cl := NewClient(fc)
	t.Cleanup(func() { _ = cl.Close() })

	if _, err := cl.Exec(`create table T (v integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec(`create table U (v integer)`); err != nil {
		t.Fatal(err)
	}
	const batch = 4096
	got := make(chan struct{}, batch)
	if _, err := cl.WatchWith("T", func(*types.Event) { got <- struct{}{} },
		WatchOptions{Queue: batch, Policy: pubsub.Block}); err != nil {
		t.Fatal(err)
	}
	// roundTrip inserts rows and waits for every one of their pushes.
	roundTrip := func(table string, rows [][]types.Value) {
		if err := cl.InsertBatch(table, rows); err != nil {
			t.Fatal(err)
		}
		if table != "T" {
			return
		}
		for range rows {
			select {
			case <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("watch event did not arrive")
			}
		}
	}
	// measure returns the reads and writes per call of fn over n calls.
	measure := func(n int, fn func()) (reads, writes float64) {
		r0, w0, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fn()
		}
		r1, w1, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		return float64(r1-r0) / float64(n), float64(w1-w0) / float64(n)
	}

	one := [][]types.Value{{types.Int(1)}}
	for i := 0; i < 200; i++ {
		roundTrip("T", one)
	}
	reads, writes := measure(2000, func() { roundTrip("T", one) })
	t.Logf("one-row insert + watch push: %.2f writes, %.2f reads per round trip", writes, reads)
	if writes > maxWritesPerRoundTrip || reads > maxReadsPerRoundTrip {
		t.Errorf("one-row round trip: %.2f writes, %.2f reads; want <= %.1f writes, <= %d reads",
			writes, reads, maxWritesPerRoundTrip, maxReadsPerRoundTrip)
	}

	rows := make([][]types.Value, batch)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(i))}
	}
	roundTrip("U", rows)
	reads, writes = measure(8, func() { roundTrip("U", rows) })
	t.Logf("%d-row batch: %.1f writes, %.1f reads", batch, writes, reads)
	if writes > maxWritesPerBatch4096 || reads > maxReadsPerBatch4096 {
		t.Errorf("%d-row batch: %.1f writes, %.1f reads; want <= %d each",
			batch, writes, reads, maxWritesPerBatch4096)
	}

	roundTrip("T", rows)
	m0 := fc.count()
	reads, writes = measure(8, func() { roundTrip("T", rows) })
	msgs := float64(fc.count()-m0) / 8
	t.Logf("%d-row batch + its pushes: %.1f messages, %.1f writes, %.1f reads", batch, msgs, writes, reads)
	if writes > msgs+strayWritesPerBatch || reads > maxReadsPerMessage*msgs {
		t.Errorf("%d-row batch + its pushes: %.1f writes, %.1f reads for %.1f messages; want <= 1 write and <= %d reads per message",
			batch, writes, reads, msgs, maxReadsPerMessage)
	}
}
