package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// FragSize is the fragmentation boundary of the RPC system.
const FragSize = 1024

// fragment header: u16 payload length | u32 message id | u8 flags.
const fragHeaderSize = 7

const flagLast = 0x1

// maxMessageSize bounds reassembled messages (16 MiB).
const maxMessageSize = 16 << 20

// Message type bytes.
const (
	msgExec          = 1 // str sql
	msgExecOK        = 2 // wire.Result
	msgErr           = 3 // u16 uerr code, str error
	msgInsert        = 4 // str table, values
	msgInsertOK      = 5
	msgRegister      = 6 // str source
	msgRegisterOK    = 7 // i64 id
	msgUnregister    = 8 // i64 id
	msgUnregOK       = 9
	msgSendEvent     = 10 // push: i64 id, values (id < 0: watch event)
	msgPing          = 11
	msgPingOK        = 12
	msgInsertBatch   = 13 // str table, rows — one batch commit server-side
	msgInsertBatchOK = 14 // u32 rows committed
	// msgSendEventBatch is the coalesced push: u32 count, then count
	// elements. The server's per-connection push dispatcher folds queued
	// msgSendEvent payloads into one of these per write, preserving
	// per-source order; clients decode both forms. Automaton send()s and
	// watch-tap events share this path, distinguished by the id's sign
	// (watcher ids live in the cache's negative id space): an element is
	// either (i64 id > 0, values) — an automaton send — or (i64 id < 0,
	// i64 commit timestamp, u64 sequence, values) — a watch event, whose
	// topic the client recalls from its own watch bookkeeping.
	msgSendEventBatch = 15
	// msgRegisterWith is msgRegister with per-automaton options on the
	// wire: str source, i64 inbox capacity (-1 forces unbounded), u8
	// overflow policy. Reply is msgRegisterOK.
	msgRegisterWith = 16
	msgWatch        = 17 // str topic, i64 queue bound, u8 policy
	msgWatchOK      = 18 // i64 watch id (negative)
	msgUnwatch      = 19 // i64 watch id
	msgUnwatchOK    = 20
	msgStats        = 21 // no body
	// msgStatsOK: u32 nwatch × (i64 id, str topic, i64 depth, u64 dropped),
	// then u32 nauto × (i64 id, i64 depth, u64 dropped, u64 processed),
	// then an optional durability section: u8 present, and when 1:
	// str dir, i64 walBytes, u64 fsyncs, u64 snapshots, i64 lastSnapshot,
	// u64 replayed, u64 tornTails, u32 ndomain × (str topic, u64 seq,
	// i64 walBytes). Decoders tolerate the section's absence (older
	// servers end the message after the automaton list). A tenant-bound
	// connection gets one more optional trailing section — u8 present,
	// and when 1 the msgTenantStatsOK row for its own tenant — absent on
	// servers without tenants, keeping the no-tenant reply byte-identical
	// to earlier releases.
	msgStatsOK = 22
	// Streaming bulk insert. A multi-MB load as one msgInsertBatch pays its
	// whole encoded size in client memory and is capped at maxMessageSize;
	// chunking it into independent msgInsertBatch calls pays one round trip
	// per chunk. A stream is the middle path: open once, pour bounded chunk
	// messages down the pipe without waiting for acks, close once. Exactly
	// two round trips total; TCP flow control bounds both sides' memory
	// (the server commits each chunk before reading the next message, so a
	// fast sender backpressures on the socket, not on server buffers).
	msgInsertStream   = 23 // u64 stream id, str table — open a stream
	msgInsertStreamOK = 24
	// msgInsertStreamChunk is fire-and-forget (sent with message id 0, no
	// reply): u64 stream id, u32 nrows, then nrows Values payloads. The
	// server commits each chunk as one batch; the first commit error is
	// recorded on the stream, later chunks are discarded, and the error
	// surfaces in the msgInsertStreamEnd reply.
	msgInsertStreamChunk = 25
	msgInsertStreamEnd   = 26 // u64 stream id — replies EndOK or msgErr
	msgInsertStreamEndOK = 27 // u64 total rows committed
	// msgQuiesce asks the server to block until its automaton registry is
	// precisely idle (every inbox empty, no behaviour clause in flight) or
	// the i64 timeout (nanoseconds, clamped server-side) elapses. The
	// reply reports which: u8 1 = idle, 0 = timed out. This makes a remote
	// WaitIdle exact — the same registry test an embedded engine uses —
	// instead of inferring quiescence from polled stats snapshots. The
	// wait parks only the requesting connection's serve loop; pushes keep
	// flowing and other connections are unaffected.
	msgQuiesce   = 28
	msgQuiesceOK = 29
	// msgAuth binds the connection to a tenant: str token. On a server with
	// no tenant registry it fails (there is nothing to bind to); on a
	// multi-tenant server every other request except msgPing fails with
	// ErrUnauthorized until a msgAuth succeeds, after which the
	// connection's whole request surface — tables, automata, watches,
	// stats — is the tenant's namespaced, quota-checked view.
	msgAuth   = 30 // str token
	msgAuthOK = 31 // str tenant name
	// msgTenantStats fetches the authenticated tenant's accounting rollup.
	// Reply: str name, i64 tables, i64 automata, i64 watches, u64 events,
	// f64 events/sec, u64 dropped, u64 rejected, i64 walBytes, then the
	// quota: i64 maxTables, i64 maxAutomata, i64 maxInboxDepth,
	// i64 maxEventsPerSec, i64 maxWALBytes (0 = unlimited).
	msgTenantStats   = 32 // no body
	msgTenantStatsOK = 33
)

// maxQuiesceWait caps how long one msgQuiesce may park its connection's
// serve loop. Clients wanting longer waits re-issue the request.
const maxQuiesceWait = 5 * 60 * 1_000_000_000 // 5 minutes in nanoseconds

// streamChunkBudget bounds one msgInsertStreamChunk's encoded rows (256
// KiB): big enough to amortise framing, small enough that a chunk commits —
// and publishes to subscribers — promptly, keeping the stream path's
// batch-commit granularity close to the Batcher's.
const streamChunkBudget = 256 << 10

// pushQueueDepth bounds the per-connection queue of encoded send() pushes
// awaiting the wire. The queue uses the Block policy: when a client stops
// reading, the sinks (and through their inboxes, ultimately the publishing
// topics) feel backpressure instead of the server buffering without bound.
const pushQueueDepth = 4096

// pushMaxRun and pushByteBudget bound one coalesced push write: at most
// pushMaxRun events and roughly pushByteBudget encoded bytes per
// msgSendEventBatch, keeping reassembled pushes far under maxMessageSize.
const (
	pushMaxRun     = 256
	pushByteBudget = 256 << 10
)

// transport frames messages over a net.Conn with fragmentation at FragSize
// and serialised writes (requests and pushes interleave safely).
//
// Every fragment of a message keeps its own header on the wire, so the
// paper's 1 KiB framing is what a peer sees; what is batched is the system
// call. writeMessage lays all of a message's fragments into one buffer and
// makes a single conn.Write, and readMessage pulls fragments through a
// bufio.Reader into one reused reassembly buffer.
type transport struct {
	conn net.Conn

	writeMu sync.Mutex
	wbuf    []byte // fragments of the message being written; guarded by writeMu

	r   *bufio.Reader
	hdr [fragHeaderSize]byte
	msg []byte // reassembly buffer; valid until the next readMessage
}

// readBufSize is the size of each connection's bufio.Reader: one read
// syscall picks up many fragments, or a request with its pushes.
const readBufSize = 32 << 10

// maxKeptBufSize bounds the write and reassembly buffers a transport keeps
// between messages, so one large message does not pin its size in memory
// for the life of the connection.
const maxKeptBufSize = 64 << 10

func newTransport(conn net.Conn) *transport {
	return &transport{conn: conn, r: bufio.NewReaderSize(conn, readBufSize)}
}

// writeMessage fragments one message and writes it with one conn.Write.
// writeMu is held for the whole message, so the fragments of two messages
// never interleave on the wire.
func (t *transport) writeMessage(msgID uint32, payload []byte) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	nfrag := len(payload)/FragSize + 1
	buf := slices.Grow(t.wbuf[:0], len(payload)+nfrag*fragHeaderSize)
	for {
		n := len(payload)
		flags := byte(0)
		if n <= FragSize {
			flags = flagLast
		} else {
			n = FragSize
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(n))
		buf = binary.BigEndian.AppendUint32(buf, msgID)
		buf = append(buf, flags)
		buf = append(buf, payload[:n]...)
		if flags&flagLast != 0 {
			break
		}
		payload = payload[n:]
	}
	_, err := t.conn.Write(buf)
	if cap(buf) > maxKeptBufSize {
		buf = nil
	}
	t.wbuf = buf
	return err
}

// readMessage reassembles and returns the next complete message. The
// returned payload aliases the transport's reassembly buffer: it is valid
// only until the next readMessage, so a caller that hands it to another
// goroutine must copy it first. Because writers never interleave the
// fragments of two messages, a fragment for another message id while one
// is open is a protocol error, which also means a peer can hold at most
// one partial message (of at most maxMessageSize bytes) in memory.
func (t *transport) readMessage() (uint32, []byte, error) {
	if cap(t.msg) > maxKeptBufSize {
		t.msg = nil
	}
	t.msg = t.msg[:0]
	var openID uint32
	open := false
	for {
		if _, err := io.ReadFull(t.r, t.hdr[:]); err != nil {
			return 0, nil, err
		}
		n := int(binary.BigEndian.Uint16(t.hdr[0:2]))
		msgID := binary.BigEndian.Uint32(t.hdr[2:6])
		flags := t.hdr[6]
		if n > FragSize {
			return 0, nil, fmt.Errorf("rpc: oversized fragment (%d bytes)", n)
		}
		if open && msgID != openID {
			return 0, nil, fmt.Errorf("rpc: fragment of message %d inside message %d", msgID, openID)
		}
		if len(t.msg)+n > maxMessageSize {
			return 0, nil, fmt.Errorf("rpc: message exceeds %d bytes", maxMessageSize)
		}
		off := len(t.msg)
		t.msg = slices.Grow(t.msg, n)[:off+n]
		if _, err := io.ReadFull(t.r, t.msg[off:]); err != nil {
			return 0, nil, err
		}
		if flags&flagLast != 0 {
			return msgID, t.msg, nil
		}
		open, openID = true, msgID
	}
}

func (t *transport) close() error { return t.conn.Close() }
