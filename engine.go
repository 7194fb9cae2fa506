package unicache

import (
	"time"

	"unicache/internal/cache"
	"unicache/internal/pubsub"
	"unicache/internal/sql"
	"unicache/internal/tenant"
	"unicache/internal/types"
	"unicache/internal/uerr"
)

// The value, schema and result vocabulary of the engine, re-exported from
// the internal layers as aliases so programs written against the façade
// never import internal packages. (Aliases keep type identity: a
// unicache.Value IS a types.Value, so the façade adds no conversion cost
// on the hot path.)
type (
	// Value is one typed cell of a tuple.
	Value = types.Value
	// Event is one committed tuple on a topic, carrying its per-topic
	// sequence number and commit timestamp. Events observed through a
	// Remote or Cluster engine carry the topic's schema resolved through
	// the connection's describe cache, so fields resolve by name exactly
	// as embedded; Schema is nil only if that resolution failed.
	Event = types.Event
	// Schema describes a table/topic: name, persistence, key, columns.
	Schema = types.Schema
	// Column is one schema column.
	Column = types.Column
	// Result is an Exec query result: columns, rows, affected count.
	Result = sql.Result
	// Policy is an overflow policy for bounded subscription inboxes.
	Policy = pubsub.Policy
	// Config tunes an Embedded engine's underlying cache.
	Config = cache.Config
)

// The overflow policies, re-exported.
const (
	// Block parks the publisher until the subscriber drains (backpressure).
	Block = pubsub.Block
	// DropOldest sheds the oldest queued events, counting them in Dropped.
	DropOldest = pubsub.DropOldest
	// Fail detaches the subscription on overflow.
	Fail = pubsub.Fail
)

// The sentinel errors, re-exported from the shared taxonomy. They hold
// across backends: errors.Is(err, ErrNoSuchTable) is true for a Remote
// engine exactly when it would be for an Embedded one — the RPC layer
// carries the sentinel's identity over the wire as a numeric code.
var (
	ErrNoSuchTable     = uerr.ErrNoSuchTable
	ErrTableExists     = uerr.ErrTableExists
	ErrBadSchema       = uerr.ErrBadSchema
	ErrClosed          = uerr.ErrClosed
	ErrNoSuchAutomaton = uerr.ErrNoSuchAutomaton
	// ErrQuotaExceeded marks an operation a tenant quota refused — table,
	// automaton or watch admission, the events/sec token bucket, or the
	// WAL-bytes bound. Identical across backends: a Remote engine's quota
	// rejection answers errors.Is exactly as an Embedded one.
	ErrQuotaExceeded = uerr.ErrQuotaExceeded
	// ErrUnauthorized marks a request on a multi-tenant server whose
	// connection has not (or wrongly) authenticated.
	ErrUnauthorized = uerr.ErrUnauthorized
)

// The tenancy vocabulary, re-exported from the tenant layer. A cache with
// Config.Tenants set partitions its whole surface — tables, automata,
// watches, stats — into per-tenant namespaces; see docs/ARCHITECTURE.md.
type (
	// TenantQuota is one tenant's resource limits (zero fields unlimited).
	TenantQuota = tenant.Quota
	// TenantSpec declares one tenant: name, shared-secret token, quota.
	TenantSpec = tenant.Spec
	// TenantStats is one tenant's accounting rollup.
	TenantStats = tenant.Stats
)

// LoadTenants reads a tenants.json registry ({"tenants": [{"name": ...,
// "token": ..., "quota": {...}}, ...]}) for Config.Tenants.
func LoadTenants(path string) (*tenant.Registry, error) { return tenant.Load(path) }

// ParseTenants parses a tenants.json document for Config.Tenants.
func ParseTenants(data []byte) (*tenant.Registry, error) { return tenant.Parse(data) }

// Engine is the canonical, location-transparent API of the unified
// system: one surface over pub/sub subscriptions (Watch), stream-database
// tables (Exec, Insert, CreateTable) and CEP automata (Register), backed
// either by an in-process cache (Embedded) or by a cached server over RPC
// (Remote). Program text written against Engine runs on both backends by
// swapping one constructor; the conformance suite in conformance_test.go
// pins that the behavioral contract — watch ordering, inbox options,
// stats counters, sentinel errors — is identical.
type Engine interface {
	// Exec parses and executes one SQL statement.
	Exec(src string) (*Result, error)
	// Insert commits one tuple into a table, publishing it on the table's
	// topic (the fast path: no SQL parsing).
	Insert(table string, vals ...Value) error
	// InsertBatch commits a run of rows into one table as a single batch:
	// one commit-domain acquisition, a contiguous sequence run, one
	// shared timestamp, one delivery per subscriber.
	InsertBatch(table string, rows [][]Value) error
	// CreateTable installs a table and its topic.
	CreateTable(schema *Schema) error
	// Tables returns the table/topic names in lexical order.
	Tables() ([]string, error)
	// Watch attaches an asynchronous observer to a topic: fn receives the
	// topic's events in commit order, decoupled from the commit path by a
	// bounded inbox whose depth and overflow policy the options choose.
	Watch(topic string, fn func(*Event), opts ...WatchOption) (Watch, error)
	// Register compiles and starts a GAPL automaton; its send() output
	// surfaces on the returned handle's Events channel.
	Register(source string, opts ...AutomatonOption) (Automaton, error)
	// Stats snapshots every live watch tap and automaton on the engine
	// with its dispatch-pipeline depth and dropped counters, so operators
	// can see which subscriptions are behind.
	Stats() (Stats, error)
	// Close tears the engine down: every watch and automaton handle
	// created through it is detached first. Close is idempotent;
	// operations after Close return ErrClosed.
	Close() error
}

// Watch is a live topic subscription handle. Close detaches it: after
// Close returns, the callback never runs again (queued events are
// discarded).
type Watch interface {
	// ID is the subscription's engine-assigned id (negative: watcher ids
	// live in their own id space, disjoint from automaton ids).
	ID() int64
	// Topic is the watched topic.
	Topic() string
	// Stats reports the tap's inbox depth and dropped-event count.
	Stats() (SubscriptionStats, error)
	// Close detaches the tap. Idempotent.
	Close() error
}

// Automaton is a live CEP automaton handle.
type Automaton interface {
	// ID is the automaton's engine-assigned id (positive).
	ID() int64
	// Events is the channel of send() notifications from this automaton,
	// in send order. The channel is buffered (EventBuffer option); an
	// application that stops draining it loses the oldest notifications
	// rather than stalling the automaton. It closes when the automaton is
	// closed (or the engine shuts down).
	Events() <-chan []Value
	// Stats reports the automaton's inbox depth, dropped-event count and
	// processed-event count.
	Stats() (AutomatonStats, error)
	// Close unregisters the automaton. Idempotent.
	Close() error
}

// SubscriptionStats is one watch tap's observability row.
type SubscriptionStats struct {
	ID      int64
	Topic   string
	Depth   int
	Dropped uint64
}

// AutomatonStats is one automaton's observability row.
type AutomatonStats struct {
	ID        int64
	Depth     int
	Dropped   uint64
	Processed uint64
}

// Stats is an engine-wide observability snapshot: every live watch tap
// and automaton (for Remote, everything on the server, not just this
// connection's subscriptions — the operator view).
type Stats struct {
	Watches  []SubscriptionStats
	Automata []AutomatonStats
	// Durability is the WAL's counters when the backend runs durably
	// (Config.DataDir set on an Embedded engine, -data on a cached
	// server); nil for an in-memory backend.
	Durability *DurabilityStats
	// Tenant is the engine's own tenant rollup when the engine is
	// tenant-bound (an Embedded.Tenant sub-engine, or a Remote/Cluster
	// dialed WithToken); nil otherwise.
	Tenant *TenantStats
	// Tenants is the all-tenants rollup, name-sorted — the operator view,
	// available only on an unscoped multi-tenant Embedded engine (a
	// tenant-bound engine sees exactly its own rollup).
	Tenants []TenantStats
}

// The durability observability rows, re-exported from the cache layer.
type (
	// DurabilityStats is the engine-wide durability snapshot: data
	// directory, live WAL footprint, fsync/snapshot/recovery counters and
	// the per-topic domain rows.
	DurabilityStats = cache.DurabilityStats
	// DomainDurability is one commit domain's durability row: topic,
	// sequence high-water mark, live log bytes.
	DomainDurability = cache.DomainDurability
)

// WatchOption tunes one Watch subscription.
type WatchOption func(*watchOptions)

type watchOptions struct {
	queue  int
	policy Policy
}

// WatchQueue bounds the tap's inbox to n events (n < 0 means unbounded;
// the default is the backend's default bound, 1024).
func WatchQueue(n int) WatchOption {
	return func(o *watchOptions) { o.queue = n }
}

// WatchPolicy sets the overflow policy of a bounded tap inbox (default
// Block).
func WatchPolicy(p Policy) WatchOption {
	return func(o *watchOptions) { o.policy = p }
}

// AutomatonOption tunes one Register call.
type AutomatonOption func(*automatonOptions)

type automatonOptions struct {
	inboxCapacity int
	inboxPolicy   Policy
	eventBuffer   int
}

// DefaultEventBuffer is the default capacity of an Automaton handle's
// Events channel.
const DefaultEventBuffer = 1024

// InboxCapacity bounds this automaton's inbox: 0 (the default) uses the
// engine-wide default, a positive value bounds the inbox at that depth,
// and a negative value forces it unbounded regardless of the engine
// default.
func InboxCapacity(n int) AutomatonOption {
	return func(o *automatonOptions) { o.inboxCapacity = n }
}

// InboxPolicy sets the overflow policy applied when InboxCapacity > 0:
// Block backpressures the publishing topic, DropOldest sheds the oldest
// queued events, Fail unregisters the automaton on overflow.
func InboxPolicy(p Policy) AutomatonOption {
	return func(o *automatonOptions) { o.inboxPolicy = p }
}

// EventBuffer sets the capacity of the handle's Events channel (default
// DefaultEventBuffer). When the application stops draining it, the
// oldest buffered notifications are shed so the automaton never stalls
// on its own reporting channel.
func EventBuffer(n int) AutomatonOption {
	return func(o *automatonOptions) { o.eventBuffer = n }
}

func applyWatchOptions(opts []WatchOption) watchOptions {
	var o watchOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func applyAutomatonOptions(opts []AutomatonOption) automatonOptions {
	o := automatonOptions{eventBuffer: DefaultEventBuffer}
	for _, opt := range opts {
		opt(&o)
	}
	if o.eventBuffer <= 0 {
		o.eventBuffer = DefaultEventBuffer
	}
	return o
}

// WaitIdle blocks until the engine's automata appear quiescent (depth 0
// and processed counts stable across consecutive snapshots) or the
// timeout elapses, reporting whether quiescence was reached. Every
// shipped backend answers exactly: Embedded from the registry's idle
// test, Remote and Cluster through the quiesce opcode (falling back to
// Stats polling against a server predating it). Tools and examples use
// it to bracket complete processing of a workload.
func WaitIdle(e Engine, timeout time.Duration) bool {
	if w, ok := e.(interface{ WaitIdle(time.Duration) bool }); ok {
		return w.WaitIdle(timeout)
	}
	return pollIdle(e, timeout)
}

// pollIdle is the stats-polling quiescence fallback for engines without a
// precise WaitIdle: best-effort by nature (an inbox can refill between
// the snapshot and the return).
func pollIdle(e Engine, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var last []AutomatonStats
	havePrev := false
	for {
		st, err := e.Stats()
		if err != nil {
			return false
		}
		quiet := true
		for _, a := range st.Automata {
			if a.Depth != 0 {
				quiet = false
				break
			}
		}
		if quiet && havePrev && sameProgress(last, st.Automata) {
			return true
		}
		last, havePrev = st.Automata, true
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameProgress reports whether two automaton snapshots show identical
// processed counts for the same automata set.
func sameProgress(a, b []AutomatonStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Processed != b[i].Processed {
			return false
		}
	}
	return true
}
