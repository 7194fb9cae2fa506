package table

import (
	"fmt"
	"sort"
	"sync"

	"unicache/internal/types"
)

// DefaultEphemeralCapacity is the ring-buffer size used when a caller does
// not specify one.
const DefaultEphemeralCapacity = 16384

// Table is the common interface over both storage engines.
type Table interface {
	// Schema returns the table's schema.
	Schema() *types.Schema
	// Insert stores the (already coerced) tuple. For persistent tables an
	// existing row with the same primary key is updated in place; replaced
	// reports whether an update occurred.
	Insert(t *types.Tuple) (replaced bool, err error)
	// InsertBatch stores a run of (already coerced) tuples under one lock
	// acquisition, in slice order. It is the bulk arm of the batch-first
	// commit pipeline: ephemeral tables advance the ring head once,
	// persistent tables upsert the whole run inside a single critical
	// section.
	InsertBatch(ts []*types.Tuple) error
	// Len returns the number of rows currently held.
	Len() int
	// Scan calls fn for each row in time-of-insertion order (the default
	// retrieval order, §3). Iteration stops early if fn returns false.
	Scan(fn func(*types.Tuple) bool)
	// ScanSince is Scan restricted to rows with TS strictly greater than
	// since (the `select ... since τ` operator).
	ScanSince(since types.Timestamp, fn func(*types.Tuple) bool)
}

// Ephemeral is an append-only stream table stored in a circular buffer;
// its implicit primary key is the time of insertion. When the buffer is
// full the oldest tuple is overwritten.
type Ephemeral struct {
	mu     sync.RWMutex
	schema *types.Schema
	buf    []*types.Tuple
	head   int // index of oldest element
	n      int // number of live elements
}

var _ Table = (*Ephemeral)(nil)

// NewEphemeral creates a stream table with the given ring capacity
// (DefaultEphemeralCapacity if capacity <= 0).
func NewEphemeral(schema *types.Schema, capacity int) (*Ephemeral, error) {
	if schema == nil {
		return nil, fmt.Errorf("ephemeral table needs a schema")
	}
	if schema.Persistent {
		return nil, fmt.Errorf("table %s: persistent schema given to ephemeral store", schema.Name)
	}
	if capacity <= 0 {
		capacity = DefaultEphemeralCapacity
	}
	return &Ephemeral{schema: schema, buf: make([]*types.Tuple, capacity)}, nil
}

// Schema implements Table.
func (e *Ephemeral) Schema() *types.Schema { return e.schema }

// Capacity returns the ring-buffer capacity.
func (e *Ephemeral) Capacity() int { return len(e.buf) }

// Insert implements Table. It never replaces by key; replaced is always
// false. The oldest tuple is evicted when the ring is full.
func (e *Ephemeral) Insert(t *types.Tuple) (bool, error) {
	if t == nil {
		return false, fmt.Errorf("table %s: nil tuple", e.schema.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == len(e.buf) {
		e.buf[e.head] = t
		e.head = (e.head + 1) % len(e.buf)
		return false, nil
	}
	e.buf[(e.head+e.n)%len(e.buf)] = t
	e.n++
	return false, nil
}

// InsertBatch implements Table: one lock acquisition and one head advance
// for the whole run. When the run is at least as large as the ring only the
// newest capacity-many tuples survive (the older ones would have been
// evicted anyway).
func (e *Ephemeral) InsertBatch(ts []*types.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	for _, t := range ts {
		if t == nil {
			return fmt.Errorf("table %s: nil tuple", e.schema.Name)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	capacity := len(e.buf)
	if len(ts) >= capacity {
		// Everything currently stored is evicted, and the run's own oldest
		// tuples never make it into the ring.
		copy(e.buf, ts[len(ts)-capacity:])
		e.head = 0
		e.n = capacity
		return nil
	}
	// Copy in at most two contiguous segments, then advance head/n once.
	tail := (e.head + e.n) % capacity
	first := copy(e.buf[tail:], ts)
	copy(e.buf, ts[first:])
	total := e.n + len(ts)
	if total > capacity {
		e.head = (e.head + total - capacity) % capacity
		e.n = capacity
	} else {
		e.n = total
	}
	return nil
}

// Len implements Table.
func (e *Ephemeral) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.n
}

// Scan implements Table. The snapshot is taken under the read lock and
// iterated outside it: a concurrent insert can evict a snapshot row from the
// ring, but committed tuples are immutable, so the scan still sees it whole.
func (e *Ephemeral) Scan(fn func(*types.Tuple) bool) {
	e.mu.RLock()
	snapshot := make([]*types.Tuple, 0, e.n)
	for i := 0; i < e.n; i++ {
		snapshot = append(snapshot, e.buf[(e.head+i)%len(e.buf)])
	}
	e.mu.RUnlock()
	for _, t := range snapshot {
		if !fn(t) {
			return
		}
	}
}

// ScanSince implements Table.
func (e *Ephemeral) ScanSince(since types.Timestamp, fn func(*types.Tuple) bool) {
	e.Scan(func(t *types.Tuple) bool {
		if t.TS <= since {
			return true
		}
		return fn(t)
	})
}

// Persistent is a time-varying relation stored in the heap, keyed on the
// schema's primary-key column. Inserting a duplicate key updates the row
// (the paper's `on duplicate key update` modifier) and refreshes its
// position in the temporal order.
type Persistent struct {
	mu     sync.RWMutex
	schema *types.Schema
	rows   map[string]*types.Tuple
	order  []*types.Tuple // temporal order; may contain superseded entries
	dead   int
}

var _ Table = (*Persistent)(nil)

// NewPersistent creates a persistent table for the given schema.
func NewPersistent(schema *types.Schema) (*Persistent, error) {
	if schema == nil {
		return nil, fmt.Errorf("persistent table needs a schema")
	}
	if !schema.Persistent || schema.Key < 0 {
		return nil, fmt.Errorf("table %s: ephemeral schema given to persistent store", schema.Name)
	}
	return &Persistent{schema: schema, rows: make(map[string]*types.Tuple)}, nil
}

// Schema implements Table.
func (p *Persistent) Schema() *types.Schema { return p.schema }

// KeyOf derives the canonical key string for a tuple of this table.
func (p *Persistent) KeyOf(t *types.Tuple) string {
	return types.KeyString(t.Vals[p.schema.Key])
}

// Insert implements Table: upsert keyed on the primary-key column.
func (p *Persistent) Insert(t *types.Tuple) (bool, error) {
	if t == nil {
		return false, fmt.Errorf("table %s: nil tuple", p.schema.Name)
	}
	if len(t.Vals) != p.schema.NumCols() {
		return false, fmt.Errorf("table %s: arity mismatch", p.schema.Name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.insertLocked(t), nil
}

// insertLocked performs the keyed upsert with p.mu held.
func (p *Persistent) insertLocked(t *types.Tuple) bool {
	key := p.KeyOf(t)
	_, existed := p.rows[key]
	p.rows[key] = t
	p.order = append(p.order, t)
	if existed {
		p.dead++
		if p.dead > len(p.order)/2 && p.dead > 64 {
			p.compactLocked()
		}
	}
	return existed
}

// InsertBatch implements Table: the whole run of upserts happens inside a
// single critical section, in slice order (a later duplicate key in the
// same batch wins, exactly as sequential Inserts would).
func (p *Persistent) InsertBatch(ts []*types.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	for _, t := range ts {
		if t == nil {
			return fmt.Errorf("table %s: nil tuple", p.schema.Name)
		}
		if len(t.Vals) != p.schema.NumCols() {
			return fmt.Errorf("table %s: arity mismatch", p.schema.Name)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range ts {
		p.insertLocked(t)
	}
	return nil
}

// compactLocked rewrites order to contain only current rows.
func (p *Persistent) compactLocked() {
	live := p.order[:0]
	for _, t := range p.order {
		if p.rows[p.KeyOf(t)] == t {
			live = append(live, t)
		}
	}
	p.order = live
	p.dead = 0
}

// Get returns the current row for the given key string.
func (p *Persistent) Get(key string) (*types.Tuple, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.rows[key]
	return t, ok
}

// Has reports whether a row exists for key.
func (p *Persistent) Has(key string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.rows[key]
	return ok
}

// Delete removes the row for key, reporting whether it existed.
func (p *Persistent) Delete(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.rows[key]; !ok {
		return false
	}
	delete(p.rows, key)
	p.dead++
	if p.dead > len(p.order)/2 && p.dead > 64 {
		p.compactLocked()
	}
	return true
}

// Len implements Table.
func (p *Persistent) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rows)
}

// Keys returns the current keys in temporal order (most recently
// inserted/updated last).
func (p *Persistent) Keys() []string {
	out := make([]string, 0, p.Len())
	p.Scan(func(t *types.Tuple) bool {
		out = append(out, p.KeyOf(t))
		return true
	})
	return out
}

// Scan implements Table: current rows in temporal order. A row updated via
// duplicate-key insert appears at the position of its latest update,
// maintaining the temporal order of events (§3).
func (p *Persistent) Scan(fn func(*types.Tuple) bool) {
	p.mu.RLock()
	snapshot := make([]*types.Tuple, 0, len(p.rows))
	for _, t := range p.order {
		if p.rows[p.KeyOf(t)] == t {
			snapshot = append(snapshot, t)
		}
	}
	p.mu.RUnlock()
	for _, t := range snapshot {
		if !fn(t) {
			return
		}
	}
}

// ScanOrdered calls fn for each current row in ascending primary-key
// order. Unlike Scan's temporal order — whose byte layout depends on the
// history of updates and compactions — key order is a pure function of
// the table's current contents, so durable snapshots built over it are
// byte-stable across runs. Iteration stops early if fn returns false.
func (p *Persistent) ScanOrdered(fn func(*types.Tuple) bool) {
	p.mu.RLock()
	snapshot := make([]*types.Tuple, 0, len(p.rows))
	for _, t := range p.rows {
		snapshot = append(snapshot, t)
	}
	p.mu.RUnlock()
	sort.Slice(snapshot, func(i, j int) bool {
		return p.KeyOf(snapshot[i]) < p.KeyOf(snapshot[j])
	})
	for _, t := range snapshot {
		if !fn(t) {
			return
		}
	}
}

// ScanSince implements Table.
func (p *Persistent) ScanSince(since types.Timestamp, fn func(*types.Tuple) bool) {
	p.Scan(func(t *types.Tuple) bool {
		if t.TS <= since {
			return true
		}
		return fn(t)
	})
}

// New creates the appropriate storage engine for the schema: a Persistent
// store when schema.Persistent, otherwise an Ephemeral ring with the given
// capacity.
func New(schema *types.Schema, ephemeralCapacity int) (Table, error) {
	if schema != nil && schema.Persistent {
		return NewPersistent(schema)
	}
	return NewEphemeral(schema, ephemeralCapacity)
}
