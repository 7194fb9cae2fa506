package cache

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicache/internal/automaton"
	"unicache/internal/pubsub"
	"unicache/internal/sql"
	"unicache/internal/table"
	"unicache/internal/tenant"
	"unicache/internal/types"
	"unicache/internal/uerr"
	"unicache/internal/wal"
)

// TimerTopic is the built-in topic that delivers a punctuation tuple once
// per period (§4.2); its schema is Timer(ts tstamp). It aliases
// types.TimerTopic so low-level packages (the CEP pattern runtime) can
// name it without importing the cache.
const TimerTopic = types.TimerTopic

// DefaultCheckpointPeriod is the durable cache's default interval between
// periodic automaton-state checkpoints (meta snapshots). See
// Config.CheckpointPeriod.
const DefaultCheckpointPeriod = 30 * time.Second

// Config tunes a Cache.
type Config struct {
	// EphemeralCapacity is the ring-buffer size for stream tables
	// (default table.DefaultEphemeralCapacity).
	EphemeralCapacity int
	// TimerPeriod is the built-in Timer topic's period. The paper uses one
	// second; tests and benchmarks may shorten it. Zero means 1s; negative
	// disables the timer.
	TimerPeriod time.Duration
	// Clock overrides the time source (default wall clock).
	Clock func() types.Timestamp
	// PrintWriter receives automata print() output (default os.Stdout).
	PrintWriter io.Writer
	// OnRuntimeError observes automaton behaviour failures.
	OnRuntimeError func(id int64, err error)
	// MaxAutomatonSteps bounds instructions per clause execution (0 =
	// unlimited).
	MaxAutomatonSteps int
	// AutoCreateStreams enables the §8 future-work extension: publishing
	// into a topic that does not exist creates the stream on the fly with
	// a schema inferred from the published values.
	AutoCreateStreams bool
	// AutomatonQueue bounds each automaton's inbox (0 = unbounded, the
	// default: automata may publish into their own topics, and a bounded
	// Block inbox would deadlock such cycles once full).
	AutomatonQueue int
	// AutomatonPolicy is the overflow policy for bounded automaton inboxes
	// (default pubsub.Block — backpressure to the publishing topic).
	AutomatonPolicy pubsub.Policy
	// DataDir, when non-empty, makes the cache durable: every commit is
	// appended to a per-domain write-ahead log under this directory
	// before it is applied, and reopening a cache over the same
	// directory recovers tables, rows, sequence counters and registered
	// automata. Empty (the default) keeps the cache purely in-memory.
	// The built-in Timer topic is never logged: its ticks are synthetic
	// and its sequence restarts from 1 each run.
	DataDir string
	// WALNoSync skips every WAL fsync. Group commit degrades to
	// OS-scheduled flushing: much faster, but a machine crash may lose
	// recently acked commits (a process crash alone loses nothing).
	WALNoSync bool
	// SnapshotBytes is the per-domain log size that triggers a snapshot
	// and log truncation (0 = wal.DefaultSnapshotBytes; negative =
	// snapshot only at Close).
	SnapshotBytes int64
	// WALFS overrides the WAL's filesystem (nil = the real one). It is
	// the fault-injection seam for durability tests.
	WALFS wal.FS
	// CheckpointPeriod is the interval between periodic automaton-state
	// checkpoints on a durable cache: each checkpoint writes a meta
	// snapshot (every live automaton with its variable or pattern-match
	// state), so a crash loses at most one period of automaton state
	// rather than everything since the last clean shutdown. Zero means
	// DefaultCheckpointPeriod; negative disables periodic checkpoints
	// (state is still snapshotted at Close). Ignored by in-memory caches.
	CheckpointPeriod time.Duration
	// FsyncErrorPolicy selects what a failed commit-path fsync does to its
	// domain: wal.FsyncPoison (the default) latches the domain failed until
	// reopen, wal.FsyncLatchRetry lets later commits retry the sync and
	// un-latch the domain if the disk recovered. See wal.Options.
	FsyncErrorPolicy wal.FsyncErrorPolicy
	// Tenants, when non-nil, activates multi-tenancy: each tenant's
	// operations run through a Scope view that prefixes its table/topic
	// space and enforces its quotas. Nil (the default) keeps the cache
	// single-tenant with the namespace-free behaviour of prior releases.
	// Recovery uses the registry to reinstate namespaced automata under
	// their tenants' scoped views.
	Tenants *tenant.Registry
}

// commitDomain is the unit of commit serialisation: one per topic. The
// domain mutex makes sequence assignment, table insert and topic publish
// atomic for its topic, which is what guarantees that every subscriber of
// the topic observes the identical time-of-insertion order (§5). The
// paper's order invariant is per stream, so the domain is scoped to the
// topic: commits into different topics take different locks and proceed in
// parallel.
type commitDomain struct {
	name  string
	table table.Table
	topic *pubsub.Topic

	mu  sync.Mutex
	seq uint64 // per-topic sequence; contiguous from 1 under mu

	// wal is the domain's write-ahead log (nil when the cache is
	// in-memory, and always nil for the Timer domain). Appends happen
	// under mu, before the table insert; the group-commit fsync happens
	// after mu is released.
	wal *wal.Domain
}

// Cache is a working instance of the unified system.
type Cache struct {
	cfg    Config
	broker *pubsub.Broker
	reg    *automaton.Registry
	clock  func() types.Timestamp

	// domains maps topic name -> *commitDomain. Reads (every commit) are
	// lock-free; writes happen only at table-creation time under createMu.
	domains sync.Map
	// createMu serialises CreateTable/autoCreateStream so domain creation,
	// table installation and topic registration stay atomic.
	createMu sync.Mutex
	// nextWatcher allocates Watch ids. Watcher ids live in their own
	// negative id space so they can never collide with automaton ids and
	// no longer consume commit sequence numbers.
	nextWatcher atomic.Int64
	// watchMu guards watchers, the id -> tap index for Watch taps;
	// Unsubscribe and Close stop a tap's dispatcher through it, and
	// TapStats enumerates it.
	watchMu  sync.Mutex
	watchers map[int64]*watchEntry
	// scopes interns the per-tenant Scoped views (tenant name -> *Scoped)
	// so every connection of one tenant shares one view and one set of
	// quota gates.
	scopes sync.Map

	// wal is the durability manager (nil for an in-memory cache).
	wal *wal.Manager
	// metaMu serialises all meta-log writers — the registration hooks'
	// appends and snapshotMeta's rotate-and-write — because the meta
	// domain's Rotate is not safe against a concurrent Append. Close-time
	// and periodic checkpoints share the same path.
	metaMu sync.Mutex

	timerStop chan struct{}
	timerDone chan struct{}
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
}

var (
	_ sql.Engine         = (*Cache)(nil)
	_ automaton.Services = (*Cache)(nil)
)

// New creates a cache, installs the built-in Timer table/topic and starts
// the timer.
func New(cfg Config) (*Cache, error) {
	if cfg.Clock == nil {
		cfg.Clock = types.Now
	}
	if cfg.TimerPeriod == 0 {
		cfg.TimerPeriod = time.Second
	}
	c := &Cache{
		cfg:      cfg,
		broker:   pubsub.NewBroker(),
		clock:    cfg.Clock,
		watchers: make(map[int64]*watchEntry),
	}
	regCfg := automaton.Config{
		PrintWriter:    cfg.PrintWriter,
		OnRuntimeError: cfg.OnRuntimeError,
		MaxSteps:       cfg.MaxAutomatonSteps,
		InboxCapacity:  cfg.AutomatonQueue,
		InboxPolicy:    cfg.AutomatonPolicy,
	}
	if cfg.DataDir != "" {
		// Registration hooks write the meta log; they fire only after
		// recovery, so the meta domain is always open by then.
		regCfg.OnRegister = c.logRegister
		regCfg.OnUnregister = c.logUnregister
	}
	c.reg = automaton.NewRegistry(c, regCfg)
	if cfg.DataDir != "" {
		// Recover tables and rows before the Timer exists (the Timer is
		// never logged, so it cannot collide), and automata after it (a
		// recovered automaton may subscribe to the Timer).
		if err := c.openDurable(); err != nil {
			return nil, err
		}
	}
	timerSchema, err := types.NewSchema(TimerTopic, false, -1,
		types.Column{Name: "ts", Type: types.ColTstamp})
	if err != nil {
		return nil, err
	}
	if err := c.CreateTable(timerSchema); err != nil {
		return nil, err
	}
	if c.wal != nil {
		if err := c.recoverAutomata(); err != nil {
			return nil, err
		}
	}
	if cfg.TimerPeriod > 0 {
		c.timerStop = make(chan struct{})
		c.timerDone = make(chan struct{})
		go c.runTimer(cfg.TimerPeriod)
	}
	if c.wal != nil && cfg.CheckpointPeriod >= 0 {
		period := cfg.CheckpointPeriod
		if period == 0 {
			period = DefaultCheckpointPeriod
		}
		c.ckptStop = make(chan struct{})
		c.ckptDone = make(chan struct{})
		go c.runCheckpointer(period)
	}
	return c, nil
}

// runCheckpointer writes a meta snapshot every period, bounding how much
// automaton state (behaviour variables, pattern partial matches) a crash
// can lose.
func (c *Cache) runCheckpointer(period time.Duration) {
	defer close(c.ckptDone)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.ckptStop:
			return
		case <-tick.C:
			c.snapshotMeta()
		}
	}
}

func (c *Cache) runTimer(period time.Duration) {
	defer close(c.timerDone)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.timerStop:
			return
		case <-tick.C:
			if err := c.CommitInsert(TimerTopic, []types.Value{types.Stamp(c.clock())}); err != nil {
				if c.cfg.OnRuntimeError != nil {
					// The Timer is not an automaton; report under id 0.
					c.cfg.OnRuntimeError(0, fmt.Errorf("timer: %w", err))
				} else {
					fmt.Fprintf(os.Stderr, "cache: timer commit: %v\n", err)
				}
			}
		}
	}
}

// Close stops the timer, all automata and all Watch dispatchers. A
// durable cache snapshots its state first — automata (with their
// variables) while they are still alive, each commit domain after event
// processing stops — so a clean shutdown reopens from snapshots alone.
// Close does not drain: callers wanting every queued event processed
// before the snapshot should reach quiescence (WaitIdle) first.
func (c *Cache) Close() {
	c.closeOnce.Do(func() {
		if c.timerStop != nil {
			close(c.timerStop)
			<-c.timerDone
		}
		if c.ckptStop != nil {
			close(c.ckptStop)
			<-c.ckptDone
		}
		if c.wal != nil {
			c.snapshotMeta()
		}
		c.reg.Close()
		c.watchMu.Lock()
		taps := make([]*watchEntry, 0, len(c.watchers))
		for id, w := range c.watchers {
			taps = append(taps, w)
			delete(c.watchers, id)
		}
		c.watchMu.Unlock()
		for _, w := range taps {
			w.disp.Stop()
		}
		if c.wal != nil {
			c.domains.Range(func(_, v any) bool {
				d := v.(*commitDomain)
				// A failed (latched) domain is not snapshotted: its memory
				// may have diverged from the log, and the on-disk log —
				// re-verified at the next open — is the durable truth.
				if d.wal != nil && d.wal.Failed() == nil && d.wal.BeginSnapshot() {
					if err := c.snapshotDomain(d); err != nil {
						c.reportWALError(fmt.Errorf("close snapshot of %s: %w", d.name, err))
					}
				}
				return true
			})
			if err := c.wal.Close(); err != nil {
				c.reportWALError(fmt.Errorf("closing wal: %w", err))
			}
		}
	})
}

// Now implements sql.Engine and automaton.Services.
func (c *Cache) Now() types.Timestamp { return c.clock() }

// Registry exposes the automaton registry (for WaitIdle etc.).
func (c *Cache) Registry() *automaton.Registry { return c.reg }

// Automata lists every live automaton, id-sorted. It mirrors
// Scoped.Automata so tenant-scoped and whole-cache views answer the same
// question through the same method set.
func (c *Cache) Automata() []*automaton.Automaton { return c.reg.Automata() }

// Broker exposes the pub/sub broker (read-only uses).
func (c *Cache) Broker() *pubsub.Broker { return c.broker }

// --- tables & topics ---

// CreateTable installs a table, its topic and its commit domain.
// Implements sql.Engine.
func (c *Cache) CreateTable(schema *types.Schema) error {
	if schema == nil {
		return fmt.Errorf("cache: nil schema: %w", uerr.ErrBadSchema)
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	if _, dup := c.domains.Load(schema.Name); dup {
		return fmt.Errorf("cache: table %q: %w", schema.Name, uerr.ErrTableExists)
	}
	tb, err := table.New(schema, c.cfg.EphemeralCapacity)
	if err != nil {
		return err
	}
	// Durable table creation precedes visibility: the domain directory and
	// its schema record are fsynced before the topic exists, so a table a
	// client ever observed survives a crash. The Timer is never logged.
	var wd *wal.Domain
	if c.wal != nil && schema.Name != TimerTopic {
		wd, err = c.wal.CreateDomain(schema.Name, schema)
		if err != nil {
			return fmt.Errorf("cache: creating durable domain %q: %w", schema.Name, err)
		}
	}
	// If a later step fails, the durable domain must be dropped again:
	// left in place it would resurrect a table no client ever observed on
	// the next open, and a retried CreateTable would find the directory
	// occupied.
	dropDomain := func() {
		if wd == nil {
			return
		}
		if derr := c.wal.DropDomain(schema.Name); derr != nil {
			c.reportWALError(fmt.Errorf("undoing durable domain %q: %w", schema.Name, derr))
		}
	}
	if err := c.broker.CreateTopic(schema.Name); err != nil {
		dropDomain()
		return err
	}
	topic, err := c.broker.Topic(schema.Name)
	if err != nil {
		dropDomain()
		return err
	}
	c.domains.Store(schema.Name, &commitDomain{name: schema.Name, table: tb, topic: topic, wal: wd})
	return nil
}

// lookupDomain resolves a topic's commit domain, lock-free on the hit
// path. A miss rechecks under createMu: CreateTable registers the broker
// topic before storing the domain, so without the recheck a concurrent
// creator's table could be observable (Tables, Subscribe) while its
// domain is still in flight.
func (c *Cache) lookupDomain(name string) (*commitDomain, error) {
	if d, ok := c.domains.Load(name); ok {
		return d.(*commitDomain), nil
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	if d, ok := c.domains.Load(name); ok {
		return d.(*commitDomain), nil
	}
	return nil, fmt.Errorf("cache: %w: %q", uerr.ErrNoSuchTable, name)
}

// LookupTable implements sql.Engine.
func (c *Cache) LookupTable(name string) (table.Table, error) {
	d, err := c.lookupDomain(name)
	if err != nil {
		return nil, err
	}
	return d.table, nil
}

// PersistentTable implements automaton.Services.
func (c *Cache) PersistentTable(name string) (*table.Persistent, error) {
	tb, err := c.LookupTable(name)
	if err != nil {
		return nil, err
	}
	pt, ok := tb.(*table.Persistent)
	if !ok {
		return nil, fmt.Errorf("cache: table %q is not persistent", name)
	}
	return pt, nil
}

// Schemas implements automaton.Services.
func (c *Cache) Schemas() map[string]*types.Schema {
	out := make(map[string]*types.Schema)
	c.domains.Range(func(name, d any) bool {
		out[name.(string)] = d.(*commitDomain).table.Schema()
		return true
	})
	return out
}

// Tables returns the table names in topic order.
func (c *Cache) Tables() []string { return c.broker.Topics() }

// --- commit path ---

// CommitBatch coerces, stamps, stores and publishes a run of tuples into
// one table as a single commit: all rows are coerced up front (a bad row
// fails the batch before anything is stored), the topic's commit-domain
// mutex is taken once, the batch is assigned a contiguous run of per-topic
// sequence numbers, the table absorbs it via InsertBatch, and the topic's
// subscribers each receive the whole run with one DeliverBatch call.
// Because sequence assignment, storage and publication happen atomically
// under the domain mutex, every subscriber of the topic observes the
// identical time-of-insertion order (§5) — and because the mutex belongs
// to the topic, commits into independent topics never serialise against
// each other. This is the core write path; CommitInsert is a one-row
// batch.
func (c *Cache) CommitBatch(tableName string, rows [][]types.Value) error {
	if len(rows) == 0 {
		return nil
	}
	d, err := c.lookupDomain(tableName)
	if err != nil {
		if c.cfg.AutoCreateStreams {
			d, err = c.autoCreateStream(tableName, rows[0])
		}
		if err != nil {
			return err
		}
	}
	if d.wal != nil && c.cfg.FsyncErrorPolicy == wal.FsyncLatchRetry && d.wal.FailedRetryable() {
		c.retryLatched(d)
	}
	schema := d.table.Schema()
	blocks, tuples, events := allocCommit(len(rows))
	for i, vals := range rows {
		coerced, err := schema.Coerce(vals)
		if err != nil {
			if len(rows) == 1 {
				return fmt.Errorf("%w: %w", uerr.ErrBadSchema, err)
			}
			return fmt.Errorf("batch row %d: %w: %w", i, uerr.ErrBadSchema, err)
		}
		blocks[i].tuple.Vals = coerced
		tuples[i] = &blocks[i].tuple
	}
	d.mu.Lock()
	// The batch commits atomically at one instant: all its tuples share
	// one clock reading, while the topic's sequence numbers stay unique
	// and contiguous.
	ts := c.clock()
	for i, t := range tuples {
		d.seq++
		t.Seq = d.seq
		t.TS = ts
		blocks[i].event = types.Event{Topic: tableName, Schema: schema, Tuple: t}
		events[i] = &blocks[i].event
	}
	// Write-ahead: the batch record is appended (under the domain mutex,
	// so log order equals commit order) before the table absorbs it. A
	// failed append rolls the sequence run back — nothing was stored,
	// published or logged.
	var off wal.Off
	if d.wal != nil {
		payload, err := wal.EncodeBatch(tuples[0].Seq, ts, tuples)
		if err == nil {
			off, err = d.wal.Append(payload)
		}
		if err != nil {
			d.seq -= uint64(len(tuples))
			d.mu.Unlock()
			return fmt.Errorf("cache: wal append: %w", err)
		}
	}
	if err := d.table.InsertBatch(tuples); err != nil {
		// Nothing was stored or published (today unreachable — coercion
		// pre-validates everything InsertBatch checks — but the documented
		// invariants must not depend on that). In-memory the consumed run
		// is returned so the sequence space stays contiguous; durable, the
		// batch record is already in the log (possibly durable), so reusing
		// its sequence numbers would put duplicates on disk — poison the
		// domain instead, failing every later commit until reopen.
		if d.wal != nil {
			d.wal.Poison(err)
		} else {
			d.seq -= uint64(len(tuples))
		}
		d.mu.Unlock()
		return err
	}
	if len(events) == 1 {
		d.topic.Publish(events[0])
	} else {
		d.topic.PublishBatch(events)
	}
	d.mu.Unlock()
	return c.syncCommit(d, off)
}

// commitBlock holds one committed row's tuple and its event together, so
// a row costs no allocation of its own. A table or subscriber that keeps
// either keeps both alive.
type commitBlock struct {
	tuple types.Tuple
	event types.Event
}

// oneRowCommit is a one-row batch in a single allocation: the block and
// the one-element pointer slices over it.
type oneRowCommit struct {
	block [1]commitBlock
	tuple [1]*types.Tuple
	event [1]*types.Event
}

// allocCommit returns the blocks of an n-row batch and the pointer slices
// to fill: one allocation for a one-row batch, three for any other.
func allocCommit(n int) ([]commitBlock, []*types.Tuple, []*types.Event) {
	if n == 1 {
		c := new(oneRowCommit)
		return c.block[:], c.tuple[:], c.event[:]
	}
	return make([]commitBlock, n), make([]*types.Tuple, n), make([]*types.Event, n)
}

// syncCommit finishes a durable commit after the domain mutex is
// released: it group-commits the appended record (many committers share
// one fsync) and, when the log has outgrown its snapshot threshold,
// writes a snapshot and truncates the log. In-memory domains return
// immediately.
func (c *Cache) syncCommit(d *commitDomain, off wal.Off) error {
	if d.wal == nil {
		return nil
	}
	if err := d.wal.Sync(off); err != nil {
		// The commit is applied in memory but not acked durable; the
		// caller must treat it as failed.
		return fmt.Errorf("cache: wal fsync: %w", err)
	}
	if d.wal.WantsSnapshot() {
		if err := c.snapshotDomain(d); err != nil {
			c.reportWALError(fmt.Errorf("snapshot of %s: %w", d.name, err))
		}
	}
	return nil
}

// CommitInsert coerces, stamps, stores and publishes one tuple: a one-row
// CommitBatch. It is the write path shared by SQL inserts, RPC inserts,
// automata publish() calls and the Timer. Implements sql.Engine and
// automaton.Services.
func (c *Cache) CommitInsert(tableName string, vals []types.Value) error {
	return c.CommitBatch(tableName, [][]types.Value{vals})
}

// autoCreateStream implements the §8 "create streams on the fly" extension:
// infer a schema from the published values. Concurrent publishers racing to
// create the same stream are benign: the loser of the CreateTable race just
// resolves the winner's domain.
func (c *Cache) autoCreateStream(name string, vals []types.Value) (*commitDomain, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("cache: cannot infer a schema for empty tuple on %q", name)
	}
	cols := make([]types.Column, len(vals))
	for i, v := range vals {
		col := types.Column{Name: fmt.Sprintf("v%d", i)}
		switch v.Kind() {
		case types.KindInt:
			col.Type = types.ColInt
		case types.KindReal:
			col.Type = types.ColReal
		case types.KindBool:
			col.Type = types.ColBool
		case types.KindTstamp:
			col.Type = types.ColTstamp
		case types.KindString, types.KindIdentifier, types.KindSequence:
			// Sequences are stored in their textual form.
			col.Type = types.ColVarchar
		default:
			return nil, fmt.Errorf("cache: cannot infer a column type for %s", v.Kind())
		}
		cols[i] = col
	}
	schema, err := types.NewSchema(name, false, -1, cols...)
	if err != nil {
		return nil, err
	}
	if err := c.CreateTable(schema); err != nil {
		if d, lerr := c.lookupDomain(name); lerr == nil {
			return d, nil
		}
		return nil, err
	}
	return c.lookupDomain(name)
}

// DeleteRow implements sql.Engine. The delete runs under the topic's
// commit-domain mutex so it is totally ordered with respect to the topic's
// commits: a delete can never interleave into the middle of a batch
// commit on the same table.
func (c *Cache) DeleteRow(tableName, key string) (bool, error) {
	d, err := c.lookupDomain(tableName)
	if err != nil {
		return false, err
	}
	pt, ok := d.table.(*table.Persistent)
	if !ok {
		return false, fmt.Errorf("cache: table %q is not persistent", tableName)
	}
	if d.wal != nil && c.cfg.FsyncErrorPolicy == wal.FsyncLatchRetry && d.wal.FailedRetryable() {
		c.retryLatched(d)
	}
	d.mu.Lock()
	var off wal.Off
	if d.wal != nil {
		off, err = d.wal.Append(wal.EncodeDelete(key))
		if err != nil {
			d.mu.Unlock()
			return false, fmt.Errorf("cache: wal append: %w", err)
		}
	}
	existed := pt.Delete(key)
	d.mu.Unlock()
	if err := c.syncCommit(d, off); err != nil {
		return existed, err
	}
	return existed, nil
}

// Insert is the fast-path typed insert used by the RPC layer and
// applications (equivalent to `insert into` without SQL parsing). The
// batch equivalent is CommitBatch.
func (c *Cache) Insert(tableName string, vals ...types.Value) error {
	return c.CommitInsert(tableName, vals)
}

// Exec parses and executes one SQL statement.
func (c *Cache) Exec(src string) (*sql.Result, error) {
	return sql.ExecString(c, src)
}

// --- automata ---

// Register compiles and starts an automaton; the sink receives its send()
// events. On error (lexical, parse, bind, or initialization failure) the
// error is returned and nothing is registered.
func (c *Cache) Register(source string, sink automaton.Sink) (*automaton.Automaton, error) {
	return c.reg.Register(source, sink)
}

// RegisterWith is Register with per-automaton Options: an inbox bound and
// overflow policy for this automaton alone, overriding the cache-wide
// Config.AutomatonQueue/AutomatonPolicy defaults.
func (c *Cache) RegisterWith(source string, sink automaton.Sink, opts automaton.Options) (*automaton.Automaton, error) {
	return c.reg.RegisterWith(source, sink, opts)
}

// Unregister stops an automaton by id.
func (c *Cache) Unregister(id int64) error { return c.reg.Unregister(id) }

// Subscribe implements automaton.Services.
func (c *Cache) Subscribe(id int64, topic string, sub pubsub.Subscriber) error {
	return c.broker.Subscribe(id, topic, sub)
}

// Unsubscribe implements automaton.Services. For a Watch tap it first
// stops the tap's dispatcher: queued-but-undelivered events are discarded,
// and once Unsubscribe returns the callback will never run again. The
// dispatcher stops BEFORE the broker detach on purpose — detaching takes
// the topic lock, which a publisher parked in a full Block inbox is
// holding, and only stopping the dispatcher (closing the inbox) unparks
// it. Deliveries that land between the stop and the detach fall into the
// closed inbox and are dropped, which is the discard semantics anyway.
func (c *Cache) Unsubscribe(id int64) {
	c.watchMu.Lock()
	w := c.watchers[id]
	delete(c.watchers, id)
	c.watchMu.Unlock()
	if w != nil {
		w.disp.Stop()
	}
	c.broker.Unsubscribe(id)
}

// watchEntry is one live Watch tap: its dispatcher plus the topic it is
// attached to (recorded so TapStats can report where a tap points) and the
// tenant namespace that owns it ("" for the unscoped cache).
type watchEntry struct {
	disp  *pubsub.Dispatcher
	topic string
	ns    string
}

// DefaultWatchQueue is the default bound of a Watch tap's inbox.
const DefaultWatchQueue = 1024

// WatchOpts tunes the bounded inbox behind a Watch tap.
type WatchOpts struct {
	// Queue bounds the tap's inbox depth (default DefaultWatchQueue;
	// negative means unbounded).
	Queue int
	// Policy is the overflow policy of a bounded inbox (default
	// pubsub.Block: the topic stalls rather than lose events once the tap
	// is Queue events behind; pubsub.DropOldest keeps the topic at full
	// speed and gives the tap a gapped suffix; pubsub.Fail detaches the
	// tap on overflow).
	Policy pubsub.Policy
}

// Watch attaches an event observer to a topic under a fresh negative id
// (application-side taps, used by tests and tools) and returns the id for
// Unsubscribe. Delivery is asynchronous: the commit path enqueues into a
// bounded inbox (DefaultWatchQueue deep, Block overflow) and a dedicated
// dispatcher goroutine invokes fn with the topic's events in commit order —
// a slow fn delays only this tap (until its queue fills) and never executes
// under the topic lock. fn must not call Unsubscribe for its own id, and a
// goroutine calling Unsubscribe must not hold a resource fn might be
// blocked on — Unsubscribe waits for the in-flight fn invocation (that is
// what makes "never runs after detach" true), so either cycle deadlocks.
// Watcher ids come from a
// dedicated counter, not the commit sequence space, so registering a
// watcher touches no commit domain and is always safe while any set of
// topics is committing.
func (c *Cache) Watch(topic string, fn func(*types.Event)) (int64, error) {
	return c.WatchWith(topic, fn, WatchOpts{})
}

// WatchWith is Watch with an explicit queue bound and overflow policy.
func (c *Cache) WatchWith(topic string, fn func(*types.Event), opts WatchOpts) (int64, error) {
	return c.watchWithNS(topic, fn, opts, "")
}

// watchWithNS is WatchWith recording the owning tenant namespace on the
// tap ("" for the unscoped cache); topic is already physical.
func (c *Cache) watchWithNS(topic string, fn func(*types.Event), opts WatchOpts, ns string) (int64, error) {
	depth := opts.Queue
	if depth == 0 {
		depth = DefaultWatchQueue
	} else if depth < 0 {
		depth = 0 // unbounded
	}
	id := -c.nextWatcher.Add(1)
	in := pubsub.NewInboxWith(pubsub.QueueOpts{Capacity: depth, Policy: opts.Policy})
	d := pubsub.NewDispatcher(in, fn, pubsub.DispatcherConfig{
		// A Fail-policy overflow detaches the tap entirely: the dispatcher
		// drains what was queued, then unsubscribes itself.
		OnFail: func() { c.Unsubscribe(id) },
	})
	c.watchMu.Lock()
	c.watchers[id] = &watchEntry{disp: d, topic: topic, ns: ns}
	c.watchMu.Unlock()
	if err := c.broker.Subscribe(id, topic, in); err != nil {
		c.watchMu.Lock()
		delete(c.watchers, id)
		c.watchMu.Unlock()
		d.Stop()
		if !c.broker.HasTopic(topic) {
			// Tables are topics: a tap on a missing topic is the same
			// condition as an insert into a missing table.
			return 0, fmt.Errorf("cache: %w: %q", uerr.ErrNoSuchTable, topic)
		}
		return 0, err
	}
	return id, nil
}

// WatchStats reports a live tap's queue depth and dropped-event count; ok
// is false once the tap is unsubscribed (including a Fail-policy detach).
func (c *Cache) WatchStats(id int64) (depth int, dropped uint64, ok bool) {
	c.watchMu.Lock()
	w := c.watchers[id]
	c.watchMu.Unlock()
	if w == nil {
		return 0, 0, false
	}
	return w.disp.Depth(), w.disp.Dropped(), true
}

// TapStat is one live Watch tap's observability row: which topic it taps
// and how far behind it is.
type TapStat struct {
	ID      int64
	Topic   string
	Depth   int
	Dropped uint64
}

// TapStats snapshots every live Watch tap (most recent first — watcher ids
// grow downward). It is the cache half of the engine Stats surface; the
// automaton half comes from Registry().Automata().
func (c *Cache) TapStats() []TapStat {
	c.watchMu.Lock()
	out := make([]TapStat, 0, len(c.watchers))
	for id, w := range c.watchers {
		out = append(out, TapStat{ID: id, Topic: w.topic, Depth: w.disp.Depth(), Dropped: w.disp.Dropped()})
	}
	c.watchMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// tapStatsNS snapshots the taps owned by one tenant namespace.
func (c *Cache) tapStatsNS(ns string) []TapStat {
	c.watchMu.Lock()
	out := make([]TapStat, 0, len(c.watchers))
	for id, w := range c.watchers {
		if w.ns != ns {
			continue
		}
		out = append(out, TapStat{ID: id, Topic: w.topic, Depth: w.disp.Depth(), Dropped: w.disp.Dropped()})
	}
	c.watchMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// TickTimer publishes one Timer tuple immediately (useful for tests and
// deterministic benchmarks that disable the periodic timer).
func (c *Cache) TickTimer() error {
	return c.CommitInsert(TimerTopic, []types.Value{types.Stamp(c.clock())})
}
