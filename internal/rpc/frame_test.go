package rpc

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"unicache/internal/types"
)

// frameParser recovers fragment boundaries from one direction of a byte
// stream, however the bytes are split across calls. It records, per
// complete message, the payload size of each fragment.
type frameParser struct {
	hdr      []byte // header bytes of the fragment being parsed
	left     int    // payload bytes of the current fragment still to come
	last     bool   // the current fragment ends its message
	frags    []int  // fragment sizes of the open message
	messages [][]int
}

func (p *frameParser) feed(b []byte) {
	for len(b) > 0 {
		if p.left == 0 && len(p.hdr) < fragHeaderSize {
			k := min(fragHeaderSize-len(p.hdr), len(b))
			p.hdr = append(p.hdr, b[:k]...)
			b = b[k:]
			if len(p.hdr) < fragHeaderSize {
				return
			}
			p.left = int(binary.BigEndian.Uint16(p.hdr[0:2]))
			p.last = p.hdr[6]&flagLast != 0
			p.frags = append(p.frags, p.left)
		}
		k := min(p.left, len(b))
		p.left -= k
		b = b[k:]
		if p.left == 0 {
			p.hdr = p.hdr[:0]
			if p.last {
				p.messages = append(p.messages, p.frags)
				p.frags = nil
			}
		}
	}
}

// frameCounter wraps a net.Conn and parses the fragment headers out of the
// bytes it writes and reads. It counts messages on the wire, not calls.
type frameCounter struct {
	net.Conn

	mu      sync.Mutex
	out, in frameParser
}

func (c *frameCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.feed(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *frameCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.feed(p[:n])
	c.mu.Unlock()
	return n, err
}

// take returns and clears the messages written so far.
func (c *frameCounter) take() [][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.out.messages
	c.out.messages = nil
	return m
}

// count returns the number of messages written and read so far.
func (c *frameCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out.messages) + len(c.in.messages)
}

// paperFragSize is the fragmentation boundary of the paper's RPC system.
const paperFragSize = 1024

// TestFig12Fig13FrameShape pins the framing behind Figs. 12 and 13 by
// counting fragment headers on the wire. A one-row insert whose encoding
// is n bytes goes out as ⌈n/1024⌉ fragments, every one but the last full
// (Fig. 13's step past 1 KiB), and the encoding grows by the same amount
// per added integer column (Fig. 12's linear growth).
func TestFig12Fig13FrameShape(t *testing.T) {
	srv := NewServer(newServerCache(t))
	cEnd, sEnd := net.Pipe()
	go srv.ServeConn(sEnd)
	fc := &frameCounter{Conn: cEnd}
	cl := NewClient(fc)
	t.Cleanup(func() { _ = cl.Close() })

	// insert sends one row and returns the fragment sizes of the one
	// message it wrote.
	insert := func(table string, row []types.Value) []int {
		t.Helper()
		fc.take()
		if err := cl.InsertBatch(table, [][]types.Value{row}); err != nil {
			t.Fatal(err)
		}
		msgs := fc.take()
		if len(msgs) != 1 {
			t.Fatalf("insert into %s wrote %d messages, want 1", table, len(msgs))
		}
		return msgs[0]
	}
	total := func(frags []int) int {
		n := 0
		for _, f := range frags {
			n += f
		}
		return n
	}

	if _, err := cl.Exec(`create table S (s varchar)`); err != nil {
		t.Fatal(err)
	}
	var base int
	for i, l := range []int{10, 100, 1000, 1010, 1100, 2048, 10000} {
		frags := insert("S", []types.Value{types.Str(strings.Repeat("x", l))})
		n := total(frags)
		if i == 0 {
			base = n - l
		} else if n-l != base {
			t.Errorf("varchar %d: encoded %d bytes, want %d (payload plus constant overhead %d)", l, n, base+l, base)
		}
		if want := (n + paperFragSize - 1) / paperFragSize; len(frags) != want {
			t.Errorf("varchar %d: %d bytes went out in %d fragments, want %d", l, n, len(frags), want)
		}
		for j, f := range frags[:len(frags)-1] {
			if f != paperFragSize {
				t.Errorf("varchar %d: fragment %d carries %d bytes, want %d", l, j, f, paperFragSize)
			}
		}
	}

	cols := []int{1, 2, 4, 8, 16}
	sizes := make([]int, len(cols))
	for i, k := range cols {
		table := fmt.Sprintf("I%02d", k)
		defs := make([]string, k)
		row := make([]types.Value, k)
		for j := range defs {
			defs[j] = fmt.Sprintf("c%d integer", j)
			row[j] = types.Int(int64(j))
		}
		if _, err := cl.Exec(fmt.Sprintf(`create table %s (%s)`, table, strings.Join(defs, ", "))); err != nil {
			t.Fatal(err)
		}
		sizes[i] = total(insert(table, row))
	}
	perCol := sizes[1] - sizes[0]
	if perCol <= 0 {
		t.Fatalf("encoded sizes %v over %v int columns do not grow", sizes, cols)
	}
	for i, k := range cols {
		if want := sizes[0] + (k-1)*perCol; sizes[i] != want {
			t.Errorf("%d int columns: encoded %d bytes, want %d (linear at %d bytes per column)", k, sizes[i], want, perCol)
		}
	}
}
