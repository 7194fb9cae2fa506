package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"unicache/internal/automaton"
	"unicache/internal/pubsub"
	"unicache/internal/sql"
	"unicache/internal/types"
	"unicache/internal/uerr"
	"unicache/internal/wire"
)

// SendEvent is one send() notification pushed from a registered automaton
// to its application.
type SendEvent struct {
	AutomatonID int64
	Vals        []types.Value
}

// ClientConfig tunes a client's event-delivery behaviour.
type ClientConfig struct {
	// EventBuffer is the capacity of the Events() channel (default 4096).
	EventBuffer int
	// EventPolicy decides what the read loop does when the Events() buffer
	// is full because the application is not draining it:
	//
	//   - pubsub.Block (default): the read loop parks until the
	//     application consumes an event. Nothing is lost, but while parked
	//     no RPC replies are processed either — a stalled Events()
	//     consumer wedges every in-flight call (and, through TCP
	//     backpressure, eventually the server's push dispatcher).
	//   - pubsub.DropOldest: the oldest buffered notification is dropped
	//     (counted in DroppedEvents) and the read loop never blocks, so
	//     RPC replies keep flowing no matter how far behind the
	//     application falls.
	//
	// Other policies are not meaningful here and behave like Block.
	EventPolicy pubsub.Policy
	// Token authenticates the connection to a multi-tenant server: when
	// non-empty, DialWith performs the msgAuth handshake before returning,
	// so the client comes back already bound to its tenant (or an
	// ErrUnauthorized error). Leave empty for single-tenant servers.
	Token string
}

// Client is an application-side connection to the cache.
type Client struct {
	tr        *transport
	events    chan SendEvent
	policy    pubsub.Policy
	evDropped atomic.Uint64
	// nextStream allocates per-connection insert-stream ids. Ids are never
	// reused, so a server can tell a duplicate open from a stale one.
	nextStream atomic.Uint64

	// deliverMu serialises watch-event delivery: the read loop holds it
	// while invoking a watch callback (or staging an event whose WatchWith
	// call has not yet recorded its id), and WatchWith holds it while
	// installing the callback and replaying staged events — so a tap's
	// events reach its callback in wire order even across the
	// registration window.
	deliverMu sync.Mutex
	watches   map[int64]*clientWatch
	staged    map[int64][]*types.Event
	// retired records ids passed to Unwatch: watcher ids are never
	// reused, so late events for a retired id are discarded instead of
	// staged (staging is only for the registration race).
	retired map[int64]struct{}

	// schemaMu guards schemas, the per-connection describe cache that
	// makes watch events self-describing (see Client.Schema).
	schemaMu sync.Mutex
	schemas  map[string]*types.Schema

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan []byte
	err     error
	closed  bool
	done    chan struct{}
	// quit is closed by Close before it waits for the read loop: a read
	// loop parked in a Block-policy event send must be unblockable, or
	// Close could never return (closing the transport cannot interrupt a
	// channel send).
	quit chan struct{}
}

// Dial connects to a cache server over TCP with default config.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientConfig{})
}

// DialWith connects to a cache server over TCP. With a Token configured it
// also runs the tenant auth handshake, closing the connection on failure.
func DialWith(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClientWith(conn, cfg)
	if cfg.Token != "" {
		if _, err := c.Auth(cfg.Token); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe)
// with default config.
func NewClient(conn net.Conn) *Client {
	return NewClientWith(conn, ClientConfig{})
}

// NewClientWith wraps an established connection.
func NewClientWith(conn net.Conn, cfg ClientConfig) *Client {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 4096
	}
	c := &Client{
		tr:      newTransport(conn),
		events:  make(chan SendEvent, cfg.EventBuffer),
		policy:  cfg.EventPolicy,
		watches: make(map[int64]*clientWatch),
		staged:  make(map[int64][]*types.Event),
		retired: make(map[int64]struct{}),
		schemas: make(map[string]*types.Schema),
		pending: make(map[uint32]chan []byte),
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Events returns the channel of send() notifications from automata this
// client registered. The channel closes when the connection dies. See
// ClientConfig.EventPolicy for what happens when the application stops
// draining it.
func (c *Client) Events() <-chan SendEvent { return c.events }

// DroppedEvents returns the number of send() notifications shed under the
// DropOldest event policy.
func (c *Client) DroppedEvents() uint64 { return c.evDropped.Load() }

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	err := c.tr.close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		msgID, payload, err := c.tr.readMessage()
		if err != nil {
			// A dead connection is a closed engine from the caller's side:
			// wrap ErrClosed so errors.Is can classify the failure.
			c.fail(fmt.Errorf("rpc: connection lost: %v: %w", err, uerr.ErrClosed))
			return
		}
		if len(payload) == 0 {
			continue
		}
		if msgID == 0 && (payload[0] == msgSendEvent || payload[0] == msgSendEventBatch) {
			d := wire.NewDecoder(payload[1:])
			n := uint32(1)
			if payload[0] == msgSendEventBatch {
				var err error
				if n, err = d.U32(); err != nil {
					continue
				}
			}
			for i := uint32(0); i < n; i++ {
				id, err := d.I64()
				if err != nil {
					break
				}
				if id < 0 {
					// Watch event: commit timestamp, sequence, tuple values.
					ts, err := d.I64()
					if err != nil {
						break
					}
					seq, err := d.U64()
					if err != nil {
						break
					}
					vals, err := d.Values()
					if err != nil {
						break
					}
					c.deliverWatchEvent(id, &types.Event{
						Tuple: &types.Tuple{Seq: seq, TS: types.Timestamp(ts), Vals: vals},
					})
					continue
				}
				vals, err := d.Values()
				if err != nil {
					break
				}
				c.deliverEvent(SendEvent{AutomatonID: id, Vals: vals})
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[msgID]
		delete(c.pending, msgID)
		c.mu.Unlock()
		if ok {
			// payload is the transport's reassembly buffer, reused by the
			// next read: the waiting caller gets its own copy.
			ch <- bytes.Clone(payload)
		}
	}
}

// deliverEvent hands one push notification to the Events() channel,
// applying the configured overflow policy. Only the read loop calls it, so
// under DropOldest the drop-then-retry loop always terminates: there is no
// competing sender to steal the freed slot.
func (c *Client) deliverEvent(ev SendEvent) {
	if c.policy == pubsub.DropOldest {
		for {
			select {
			case c.events <- ev:
				return
			default:
			}
			select {
			case <-c.events:
				c.evDropped.Add(1)
			default:
			}
		}
	}
	// Block: parking here applies TCP backpressure to the server if the
	// application cannot keep up — and stalls RPC replies on this
	// connection until the application drains an event. Close unparks the
	// send via quit (the undelivered event is dropped with the dying
	// connection).
	select {
	case c.events <- ev:
	case <-c.quit:
	}
}

// clientWatch is one live server-side watch this client registered: the
// topic it taps (stamped onto reconstructed events), the topic's schema
// as of watch creation (stamped likewise; nil if it could not be
// resolved), and the application callback.
type clientWatch struct {
	topic  string
	schema *types.Schema
	fn     func(*types.Event)
}

// maxStagedPerWatch bounds the registration-race staging buffer: a
// correct peer cannot exceed it (it matches the server's default tap
// inbox), and a hostile or broken one must not grow client memory.
const maxStagedPerWatch = 4096

// deliverWatchEvent routes one pushed watch event to its callback on the
// read-loop goroutine, preserving wire order. An event whose WatchWith
// call has not yet recorded its id (the server releases watch events as
// soon as the msgWatchOK reply is on the wire, which can beat the caller
// goroutine to the bookkeeping) is staged and replayed, still in order,
// when WatchWith installs the callback; an event for an Unwatch-retired
// id is a late in-flight delivery and is discarded, as Unwatch promises.
func (c *Client) deliverWatchEvent(id int64, ev *types.Event) {
	c.deliverMu.Lock()
	w, ok := c.watches[id]
	if !ok {
		if _, dead := c.retired[id]; !dead && len(c.staged[id]) < maxStagedPerWatch {
			c.staged[id] = append(c.staged[id], ev)
		}
		c.deliverMu.Unlock()
		return
	}
	ev.Topic = w.topic
	ev.Schema = w.schema
	// Deliver under deliverMu: only the read loop and a WatchWith replay
	// invoke callbacks, and the lock is what keeps those two in order.
	w.fn(ev)
	c.deliverMu.Unlock()
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint32]chan []byte)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	close(c.events)
}

// call performs one request/response round trip.
func (c *Client) call(payload []byte) ([]byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	if c.nextID == 0 { // id 0 is reserved for pushes
		c.nextID = 1
	}
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.tr.writeMessage(id, payload); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("rpc: connection closed: %w", uerr.ErrClosed)
		}
		return nil, err
	}
	if resp[0] == msgErr {
		d := wire.NewDecoder(resp[1:])
		code, err := d.U16()
		if err != nil {
			return nil, err
		}
		msg, err := d.Str()
		if err != nil {
			return nil, err
		}
		// The code restores the error's sentinel identity, so errors.Is
		// answers the same over the wire as it does embedded.
		return nil, uerr.FromCode(code, msg)
	}
	return resp, nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	e := wire.NewEncoder(8)
	e.U8(msgPing)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return err
	}
	if resp[0] != msgPingOK {
		return fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return nil
}

// Auth binds the connection to the tenant owning token and returns the
// tenant's name. On a multi-tenant server every request except Ping fails
// with uerr.ErrUnauthorized until Auth succeeds; a server without tenants
// rejects Auth outright. A connection authenticates at most once.
func (c *Client) Auth(token string) (string, error) {
	e := wire.NewEncoder(16 + len(token))
	e.U8(msgAuth)
	e.Str(token)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return "", err
	}
	if resp[0] != msgAuthOK {
		return "", fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return wire.NewDecoder(resp[1:]).Str()
}

// Exec runs one SQL statement and returns its result.
func (c *Client) Exec(src string) (*sql.Result, error) {
	e := wire.NewEncoder(64 + len(src))
	e.U8(msgExec)
	e.Str(src)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return nil, err
	}
	if resp[0] != msgExecOK {
		return nil, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return wire.NewDecoder(resp[1:]).Result()
}

// Insert is the fast-path typed insert (no SQL parsing server-side).
func (c *Client) Insert(table string, vals ...types.Value) error {
	e := wire.NewEncoder(64)
	e.U8(msgInsert)
	e.Str(table)
	if err := e.Values(vals); err != nil {
		return err
	}
	resp, err := c.call(e.Bytes())
	if err != nil {
		return c.noteTableErr(table, err)
	}
	if resp[0] != msgInsertOK {
		return fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return nil
}

// InsertBatch commits a run of rows into one table. A batch whose encoding
// fits one stream chunk ships as a single msgInsertBatch round trip —
// server-side one commit-mutex acquisition, one contiguous sequence run and
// one publication per subscriber for the whole batch. A larger batch is
// poured through an insert stream in streamChunkBudget-sized chunks (each
// chunk committing as its own batch, in order) so an arbitrarily large load
// costs two round trips instead of one per chunk and never trips the
// message size limit. Use NewBatcher for automatic size/time-based
// flushing, or NewInsertStream to feed rows incrementally without holding
// them all in memory.
func (c *Client) InsertBatch(table string, rows [][]types.Value) error {
	if len(rows) == 0 {
		return nil
	}
	payload := wire.NewEncoder(64 * len(rows))
	// chunks records where each chunk's rows start in payload; a new chunk
	// opens when appending a row would push the current one past the budget.
	type chunkMark struct{ off, nrows int }
	chunks := []chunkMark{{0, 0}}
	for i, vals := range rows {
		before := payload.Len()
		if err := payload.Values(vals); err != nil {
			return fmt.Errorf("rpc: batch row %d: %w", i, err)
		}
		cur := &chunks[len(chunks)-1]
		if cur.nrows > 0 && payload.Len()-cur.off > streamChunkBudget {
			chunks = append(chunks, chunkMark{before, 1})
		} else {
			cur.nrows++
		}
	}
	buf := payload.Bytes()
	if len(chunks) == 1 {
		return c.insertBatchRaw(table, len(rows), buf)
	}
	st, err := c.NewInsertStream(table)
	if err != nil {
		return err
	}
	for i, ch := range chunks {
		end := len(buf)
		if i+1 < len(chunks) {
			end = chunks[i+1].off
		}
		if err := st.addChunk(ch.nrows, buf[ch.off:end]); err != nil {
			_, _ = st.Close() // release server-side stream state
			return err
		}
	}
	_, err = st.Close()
	return err
}

// insertBatchRaw ships nrows pre-encoded rows — a concatenation of
// Encoder.Values outputs — as one msgInsertBatch. The Batcher's
// size-bounded flush uses it so each row is wire-encoded exactly once no
// matter how the flush is chunked.
func (c *Client) insertBatchRaw(table string, nrows int, rowsPayload []byte) error {
	if nrows == 0 {
		return nil
	}
	e := wire.NewEncoder(16 + len(table) + len(rowsPayload))
	e.U8(msgInsertBatch)
	e.Str(table)
	e.U32(uint32(nrows))
	e.Raw(rowsPayload)
	return c.noteTableErr(table, c.callInsertBatch(e.Bytes(), nrows))
}

// callInsertBatch performs the msgInsertBatch round trip over an encoded
// request. The size guard is defensive: every sender now chunks at
// streamChunkBudget (far below maxMessageSize) and pours anything larger
// through an insert stream, so no batch, however big, can reach the
// server's connection-killing message limit.
func (c *Client) callInsertBatch(msg []byte, nrows int) error {
	if len(msg) > maxMessageSize {
		return fmt.Errorf("rpc: batch of %d rows encodes to %d bytes, over the %d-byte message limit",
			nrows, len(msg), maxMessageSize)
	}
	resp, err := c.call(msg)
	if err != nil {
		return err
	}
	if resp[0] != msgInsertBatchOK {
		return fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	n, err := wire.NewDecoder(resp[1:]).U32()
	if err != nil {
		return err
	}
	if int(n) != nrows {
		return fmt.Errorf("rpc: batch committed %d of %d rows", n, nrows)
	}
	return nil
}

// InsertStream is an open streaming bulk insert into one table: rows are
// buffered into streamChunkBudget-sized chunks and poured down the
// connection without per-chunk acknowledgements (exactly two round trips —
// open and Close — no matter how many chunks flow between). Each chunk
// commits server-side as its own batch, in order; the first commit error is
// recorded on the stream and surfaces from Close, which also confirms the
// total row count. The stream holds at most one chunk in client memory, so
// a multi-GB load streams in bounded space, backpressured by TCP (the
// server commits a chunk before reading the next message).
//
// An InsertStream is not safe for concurrent use. Rows accepted after the
// chunk containing a failed commit are discarded server-side; Close reports
// how many rows actually committed.
type InsertStream struct {
	c     *Client
	id    uint64
	table string

	buf     *wire.Encoder // chunk under assembly (concatenated Values payloads)
	scratch *wire.Encoder // single-row staging, so a too-big row can't split
	nrows   int           // rows in buf
	shipped uint64        // rows sent in completed chunks
	err     error
	closed  bool
}

// NewInsertStream opens a streaming bulk insert into table. The open is one
// round trip; Add then streams without waiting, and Close flushes, confirms
// the committed row count, and releases the server-side stream state. The
// table's existence is checked when the first chunk commits, not at open.
func (c *Client) NewInsertStream(table string) (*InsertStream, error) {
	id := c.nextStream.Add(1)
	e := wire.NewEncoder(32 + len(table))
	e.U8(msgInsertStream)
	e.U64(id)
	e.Str(table)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return nil, err
	}
	if resp[0] != msgInsertStreamOK {
		return nil, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return &InsertStream{
		c:       c,
		id:      id,
		table:   table,
		buf:     wire.NewEncoder(4096),
		scratch: wire.NewEncoder(256),
	}, nil
}

// Add buffers one row, shipping the chunk under assembly when it reaches
// the chunk budget. A row that cannot be wire-encoded is rejected without
// poisoning the stream; a transport failure is sticky and also surfaces
// from Close.
func (s *InsertStream) Add(vals ...types.Value) error {
	if s.closed {
		return errors.New("rpc: insert stream is closed")
	}
	if s.err != nil {
		return s.err
	}
	s.scratch.Reset()
	if err := s.scratch.Values(vals); err != nil {
		return err
	}
	return s.addChunk(1, s.scratch.Bytes())
}

// addChunk splices nrows pre-encoded rows (concatenated Encoder.Values
// payloads) into the stream. Internal seam for InsertBatch and the Batcher,
// whose rows are already encoded: a payload at or past the budget ships
// directly, without a copy through buf.
func (s *InsertStream) addChunk(nrows int, payload []byte) error {
	if s.closed {
		return errors.New("rpc: insert stream is closed")
	}
	if s.err != nil {
		return s.err
	}
	if s.nrows == 0 && len(payload) >= streamChunkBudget {
		return s.send(nrows, payload)
	}
	if s.nrows > 0 && s.buf.Len()+len(payload) > streamChunkBudget {
		if err := s.flush(); err != nil {
			return err
		}
		if len(payload) >= streamChunkBudget {
			return s.send(nrows, payload)
		}
	}
	s.buf.Raw(payload)
	s.nrows += nrows
	if s.buf.Len() >= streamChunkBudget {
		return s.flush()
	}
	return nil
}

// flush ships the chunk under assembly, if any.
func (s *InsertStream) flush() error {
	if s.nrows == 0 {
		return nil
	}
	err := s.send(s.nrows, s.buf.Bytes())
	s.nrows = 0
	s.buf.Reset()
	return err
}

// send writes one msgInsertStreamChunk with message id 0: fire-and-forget,
// no reply slot, no round trip.
func (s *InsertStream) send(nrows int, rowsPayload []byte) error {
	e := wire.NewEncoder(16 + len(rowsPayload))
	e.U8(msgInsertStreamChunk)
	e.U64(s.id)
	e.U32(uint32(nrows))
	e.Raw(rowsPayload)
	if e.Len() > maxMessageSize {
		s.err = fmt.Errorf("rpc: stream chunk of %d rows encodes to %d bytes, over the %d-byte message limit",
			nrows, e.Len(), maxMessageSize)
		return s.err
	}
	if err := s.c.tr.writeMessage(0, e.Bytes()); err != nil {
		s.err = err
		return err
	}
	s.shipped += uint64(nrows)
	return nil
}

// Close flushes the final chunk, ends the stream (the second and last round
// trip), and returns the number of rows the server committed. The error is
// the stream's first failure from any source: a chunk commit server-side, a
// transport write, or a count mismatch. Close always sends the end message
// when the transport still works, so the server releases its stream state
// even on an errored stream.
func (s *InsertStream) Close() (uint64, error) {
	if s.closed {
		return s.shipped, s.err
	}
	s.closed = true
	if s.err == nil {
		_ = s.flush() // failure is sticky in s.err
	}
	e := wire.NewEncoder(16)
	e.U8(msgInsertStreamEnd)
	e.U64(s.id)
	resp, err := s.c.call(e.Bytes())
	if s.err != nil {
		return s.shipped, s.c.noteTableErr(s.table, s.err)
	}
	if err != nil {
		s.err = err
		return s.shipped, s.c.noteTableErr(s.table, err)
	}
	if resp[0] != msgInsertStreamEndOK {
		s.err = fmt.Errorf("rpc: unexpected reply %d", resp[0])
		return s.shipped, s.err
	}
	n, err := wire.NewDecoder(resp[1:]).U64()
	if err != nil {
		s.err = err
		return s.shipped, err
	}
	if n != s.shipped {
		s.err = fmt.Errorf("rpc: stream committed %d of %d rows", n, s.shipped)
		return n, s.err
	}
	return n, nil
}

// Register submits automaton source code. On success it returns the
// automaton id; compile/bind/init errors come back as errors.
func (c *Client) Register(source string) (int64, error) {
	e := wire.NewEncoder(64 + len(source))
	e.U8(msgRegister)
	e.Str(source)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return 0, err
	}
	if resp[0] != msgRegisterOK {
		return 0, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return wire.NewDecoder(resp[1:]).I64()
}

// RegisterWith is Register with per-automaton Options carried on the
// wire: the server registers the automaton with this inbox bound and
// overflow policy instead of the cache-wide defaults (capacity -1 forces
// an unbounded inbox even when the server default is bounded).
func (c *Client) RegisterWith(source string, opts automaton.Options) (int64, error) {
	e := wire.NewEncoder(80 + len(source))
	e.U8(msgRegisterWith)
	e.Str(source)
	e.I64(int64(opts.InboxCapacity))
	e.U8(uint8(opts.InboxPolicy))
	resp, err := c.call(e.Bytes())
	if err != nil {
		return 0, err
	}
	if resp[0] != msgRegisterOK {
		return 0, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return wire.NewDecoder(resp[1:]).I64()
}

// Unregister stops an automaton previously registered on this connection.
func (c *Client) Unregister(id int64) error {
	e := wire.NewEncoder(16)
	e.U8(msgUnregister)
	e.I64(id)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return err
	}
	if resp[0] != msgUnregOK {
		return fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return nil
}

// WatchOptions tunes a server-side watch tap (mirrors cache.WatchOpts:
// Queue 0 means the server default, negative unbounded).
type WatchOptions struct {
	Queue  int
	Policy pubsub.Policy
}

// Watch attaches a server-side tap to a topic with default options.
func (c *Client) Watch(topic string, fn func(*types.Event)) (int64, error) {
	return c.WatchWith(topic, fn, WatchOptions{})
}

// WatchWith attaches a server-side dispatcher-backed tap to a topic: the
// server watches the topic on this connection's behalf and pushes each
// event over the coalesced push path. fn runs on the client's read-loop
// goroutine in commit order — a blocking fn therefore stalls RPC replies
// on this connection, the same trade ClientConfig.EventPolicy documents
// for Events(). Reconstructed events carry the topic, commit timestamp,
// sequence number, tuple values, and the topic's schema resolved through
// the connection's describe cache (Schema is nil only if that resolution
// failed). The tap is torn down by Unwatch, Close, or connection death.
func (c *Client) WatchWith(topic string, fn func(*types.Event), opts WatchOptions) (int64, error) {
	e := wire.NewEncoder(32 + len(topic))
	e.U8(msgWatch)
	e.Str(topic)
	e.I64(int64(opts.Queue))
	e.U8(uint8(opts.Policy))
	resp, err := c.call(e.Bytes())
	if err != nil {
		return 0, err
	}
	if resp[0] != msgWatchOK {
		return 0, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	id, err := wire.NewDecoder(resp[1:]).I64()
	if err != nil {
		return 0, err
	}
	// Resolve the topic's schema so pushed events are self-describing.
	// Best-effort by design: the watch is already live server-side, and a
	// failed describe (e.g. a concurrent drop) must not tear it down —
	// events then carry a nil Schema, the pre-cache contract.
	schema, _ := c.Schema(topic)
	c.deliverMu.Lock()
	w := &clientWatch{topic: topic, schema: schema, fn: fn}
	c.watches[id] = w
	// Replay events that arrived between the reply hitting the read loop
	// and this bookkeeping, in order; the read loop is parked on deliverMu
	// if it has more, so order stays intact.
	for _, ev := range c.staged[id] {
		ev.Topic = topic
		ev.Schema = schema
		fn(ev)
	}
	delete(c.staged, id)
	c.deliverMu.Unlock()
	return id, nil
}

// Unwatch tears down a watch previously created on this connection. After
// it returns, the callback is no longer invoked (events already pushed
// and in flight are discarded by id).
func (c *Client) Unwatch(id int64) error {
	c.deliverMu.Lock()
	delete(c.watches, id)
	delete(c.staged, id)
	c.retired[id] = struct{}{}
	c.deliverMu.Unlock()
	e := wire.NewEncoder(16)
	e.U8(msgUnwatch)
	e.I64(id)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return err
	}
	if resp[0] != msgUnwatchOK {
		return fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return nil
}

// WatchStat is one watch tap's server-side observability row.
type WatchStat struct {
	ID      int64
	Topic   string
	Depth   int
	Dropped uint64
}

// AutomatonStat is one automaton's server-side observability row.
type AutomatonStat struct {
	ID        int64
	Depth     int
	Dropped   uint64
	Processed uint64
}

// ServerStats is the msgStats reply: every live watch tap and automaton
// on the server, with their dispatch-pipeline depth and dropped counters,
// plus the server's durability counters when it runs with a WAL.
type ServerStats struct {
	Watches  []WatchStat
	Automata []AutomatonStat
	// Durability is nil when the server runs in-memory (or predates the
	// durability section of the stats reply).
	Durability *DurabilityStat
	// Tenant is the connection's own tenant rollup; nil unless the
	// connection is tenant-bound.
	Tenant *TenantStat
}

// TenantStat is one tenant's accounting rollup: live resource counts,
// cumulative commit/drop/reject counters, WAL footprint, and the
// configured quota (zero fields mean unlimited).
type TenantStat struct {
	Name         string
	Tables       int64
	Automata     int64
	Watches      int64
	Events       uint64
	EventsPerSec float64
	Dropped      uint64
	Rejected     uint64
	WALBytes     int64

	MaxTables       int64
	MaxAutomata     int64
	MaxInboxDepth   int64
	MaxEventsPerSec int64
	MaxWALBytes     int64
}

func decodeTenantStat(d *wire.Decoder) (TenantStat, error) {
	var ts TenantStat
	var err error
	if ts.Name, err = d.Str(); err != nil {
		return ts, err
	}
	for _, p := range []*int64{&ts.Tables, &ts.Automata, &ts.Watches} {
		if *p, err = d.I64(); err != nil {
			return ts, err
		}
	}
	if ts.Events, err = d.U64(); err != nil {
		return ts, err
	}
	if ts.EventsPerSec, err = d.F64(); err != nil {
		return ts, err
	}
	if ts.Dropped, err = d.U64(); err != nil {
		return ts, err
	}
	if ts.Rejected, err = d.U64(); err != nil {
		return ts, err
	}
	for _, p := range []*int64{&ts.WALBytes, &ts.MaxTables, &ts.MaxAutomata, &ts.MaxInboxDepth, &ts.MaxEventsPerSec, &ts.MaxWALBytes} {
		if *p, err = d.I64(); err != nil {
			return ts, err
		}
	}
	return ts, nil
}

// TenantStats fetches the connection's tenant rollup. It fails with
// uerr.ErrUnauthorized on a server without tenants.
func (c *Client) TenantStats() (TenantStat, error) {
	e := wire.NewEncoder(8)
	e.U8(msgTenantStats)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return TenantStat{}, err
	}
	if resp[0] != msgTenantStatsOK {
		return TenantStat{}, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	return decodeTenantStat(wire.NewDecoder(resp[1:]))
}

// DurabilityStat mirrors the server cache's durability counters.
type DurabilityStat struct {
	Dir          string
	WALBytes     int64
	Fsyncs       uint64
	Snapshots    uint64
	LastSnapshot int64
	Replayed     uint64
	TornTails    uint64
	Domains      []DomainDurabilityStat
}

// DomainDurabilityStat is one commit domain's durability row.
type DomainDurabilityStat struct {
	Topic    string
	Seq      uint64
	WALBytes int64
}

// Stats fetches the server's per-subscription observability counters, so
// an operator can see which subscriptions are behind.
func (c *Client) Stats() (ServerStats, error) {
	e := wire.NewEncoder(8)
	e.U8(msgStats)
	resp, err := c.call(e.Bytes())
	if err != nil {
		return ServerStats{}, err
	}
	if resp[0] != msgStatsOK {
		return ServerStats{}, fmt.Errorf("rpc: unexpected reply %d", resp[0])
	}
	d := wire.NewDecoder(resp[1:])
	var st ServerStats
	nw, err := d.U32()
	if err != nil {
		return st, err
	}
	for i := uint32(0); i < nw; i++ {
		var w WatchStat
		if w.ID, err = d.I64(); err != nil {
			return st, err
		}
		if w.Topic, err = d.Str(); err != nil {
			return st, err
		}
		depth, err := d.I64()
		if err != nil {
			return st, err
		}
		w.Depth = int(depth)
		if w.Dropped, err = d.U64(); err != nil {
			return st, err
		}
		st.Watches = append(st.Watches, w)
	}
	na, err := d.U32()
	if err != nil {
		return st, err
	}
	for i := uint32(0); i < na; i++ {
		var a AutomatonStat
		if a.ID, err = d.I64(); err != nil {
			return st, err
		}
		depth, err := d.I64()
		if err != nil {
			return st, err
		}
		a.Depth = int(depth)
		if a.Dropped, err = d.U64(); err != nil {
			return st, err
		}
		if a.Processed, err = d.U64(); err != nil {
			return st, err
		}
		st.Automata = append(st.Automata, a)
	}
	// Optional trailing durability section: the flag itself is absent on
	// servers predating it, and 0 on in-memory servers (which may still
	// append the tenant section after it).
	present, err := d.U8()
	if err != nil {
		return st, nil
	}
	if present == 1 {
		if err := decodeDurability(d, &st); err != nil {
			return st, err
		}
	}
	// Optional trailing tenant section, present only on a tenant-bound
	// connection.
	tpresent, err := d.U8()
	if err != nil || tpresent == 0 {
		return st, nil
	}
	ts, err := decodeTenantStat(d)
	if err != nil {
		return st, err
	}
	st.Tenant = &ts
	return st, nil
}

func decodeDurability(d *wire.Decoder, st *ServerStats) error {
	var dur DurabilityStat
	var err error
	if dur.Dir, err = d.Str(); err != nil {
		return err
	}
	if dur.WALBytes, err = d.I64(); err != nil {
		return err
	}
	if dur.Fsyncs, err = d.U64(); err != nil {
		return err
	}
	if dur.Snapshots, err = d.U64(); err != nil {
		return err
	}
	if dur.LastSnapshot, err = d.I64(); err != nil {
		return err
	}
	if dur.Replayed, err = d.U64(); err != nil {
		return err
	}
	if dur.TornTails, err = d.U64(); err != nil {
		return err
	}
	nd, err := d.U32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nd; i++ {
		var dd DomainDurabilityStat
		if dd.Topic, err = d.Str(); err != nil {
			return err
		}
		if dd.Seq, err = d.U64(); err != nil {
			return err
		}
		if dd.WALBytes, err = d.I64(); err != nil {
			return err
		}
		dur.Domains = append(dur.Domains, dd)
	}
	st.Durability = &dur
	return nil
}
