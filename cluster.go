package unicache

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unicache/internal/gapl"
	"unicache/internal/pubsub"
	"unicache/internal/rpc"
	"unicache/internal/sql"
	"unicache/internal/uerr"
)

// TimerTopic is the per-node timer topic name. It exists on every node of
// a cluster, so the cluster treats it as node-local: automata subscribe
// to their home node's timer, and Tables/show-tables report it once.
const TimerTopic = "Timer"

// Cluster connects to a set of cached nodes and returns a location-
// transparent Engine over all of them: topics are hash-partitioned across
// the nodes with consistent hashing (rpc.Ring — virtual nodes, routing a
// pure function of the address set), so every client of the same address
// list routes identically with zero coordination.
//
// The paper's §5 ordering invariant is stated per topic, and every
// operation on a topic — create, insert, watch, automaton subscription —
// lands on the topic's one owning node, so the invariant holds across the
// cluster exactly as it does on a single cache: commits to one topic are
// totally ordered by the owner's commit domain, and no cross-node
// coordination exists to weaken (or slow) it.
//
//   - Exec routes by the statement's table (parsed client-side); `show
//     tables` fans out and merges.
//   - Insert/InsertBatch route to the owner, inheriting the Remote
//     backend's chunking and stream escalation; Batcher() gives the
//     MultiBatcher-style buffered path for mixed-table bulk loads that
//     fan out to all nodes concurrently.
//   - Watch forwards to the owner; the handle proxies Stats/Close.
//   - Register places the automaton on the owner of its first
//     subscription (its home) and bridges foreign subscriptions: the
//     topic is replicated onto the home node and a forwarder streams the
//     owner's events into the replica over the ordinary RPC paths, so a
//     source on node A feeds a sink on node B (see docs/ARCHITECTURE.md
//     for the semantics and limitations).
//   - Tables/Stats merge per-node results; handle and stats ids are
//     remapped (id·n ± node) so they stay unique and sign-correct
//     cluster-wide, and a handle's ID always matches its Stats row.
//   - Sentinel errors cross node routing unchanged: errors.Is answers
//     exactly as it does against Embedded and Remote (the conformance
//     suite runs the cluster as its fourth backend).
//
// Concurrency: the returned Engine is safe for concurrent use, as are
// its handles; per-topic event ordering follows the owning node's
// guarantees.
func Cluster(addrs ...string) (Engine, error) {
	return ClusterWith(addrs)
}

// ClusterWith is Cluster with dial options: WithToken authenticates every
// node connection with the same tenant token, so the whole cluster engine
// is the tenant's namespaced, quota-checked view (each node enforces its
// own partition's quotas from its identical tenants config).
func ClusterWith(addrs []string, opts ...DialOption) (Engine, error) {
	names := dedupeAddrs(addrs)
	if len(names) == 0 {
		return nil, errors.New("unicache: cluster needs at least one node address")
	}
	nodes := make([]*Remote, 0, len(names))
	for _, addr := range names {
		r, err := DialRemote(addr, opts...)
		if err != nil {
			for _, n := range nodes {
				_ = n.Close()
			}
			return nil, fmt.Errorf("unicache: cluster dial %s: %w", addr, err)
		}
		nodes = append(nodes, r)
	}
	return newCluster(names, nodes), nil
}

// Dial returns an Engine for an address spec: a single "host:port" dials
// one node (a Remote), a comma-separated list forms a Cluster over all of
// them. Tools accept user-supplied -remote/-addr flags through this one
// entry point, so pointing them at a cluster is purely a flag change —
// and WithToken makes either shape a tenant-bound engine.
func Dial(spec string, opts ...DialOption) (Engine, error) {
	addrs := dedupeAddrs(strings.Split(spec, ","))
	if len(addrs) == 1 {
		return DialRemote(addrs[0], opts...)
	}
	return ClusterWith(addrs, opts...)
}

// dedupeAddrs trims whitespace and drops empty and repeated entries,
// preserving first-seen order (the ring collapses duplicates by name; the
// node list must stay index-aligned with it).
func dedupeAddrs(addrs []string) []string {
	out := make([]string, 0, len(addrs))
	seen := make(map[string]struct{}, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// clusterFromClients builds a cluster over pre-established connections
// (test seam: conformance runs the cluster backend over net.Pipe ends).
func clusterFromClients(names []string, clients []*rpc.Client) Engine {
	nodes := make([]*Remote, len(clients))
	for i, cl := range clients {
		nodes[i] = RemoteFromClient(cl)
	}
	return newCluster(names, nodes)
}

func newCluster(names []string, nodes []*Remote) *clusterEngine {
	return &clusterEngine{
		ring:    rpc.NewRing(names, 0),
		nodes:   nodes,
		stride:  int64(len(nodes)),
		bridges: make(map[string]*bridge),
	}
}

// clusterEngine is the Engine over a set of cached nodes. See Cluster.
type clusterEngine struct {
	ring   *rpc.Ring
	nodes  []*Remote
	stride int64 // id remapping stride = node count

	mu      sync.Mutex
	closed  bool
	bridges map[string]*bridge // key: bridgeKey(topic, home)
}

func (c *clusterEngine) guard() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("unicache: %w", ErrClosed)
	}
	return nil
}

// owner returns the node index owning a topic.
func (c *clusterEngine) owner(topic string) int { return c.ring.Owner(topic) }

// mapAutoID folds a node-local automaton id (positive) into the cluster
// id space: id·n + node. Injective across (id, node) and sign-preserving.
func (c *clusterEngine) mapAutoID(id int64, node int) int64 {
	return id*c.stride + int64(node)
}

// mapWatchID folds a node-local watcher id (negative) into the cluster id
// space: id·n − node. Injective across (id, node) and sign-preserving.
func (c *clusterEngine) mapWatchID(id int64, node int) int64 {
	return id*c.stride - int64(node)
}

// Exec implements Engine. The statement is parsed client-side only to
// find the table that routes it; the owning node re-parses and executes,
// so behaviour (including error text) is byte-identical to Remote. `show
// tables` fans out to every node and merges the rows; a statement that
// does not parse is sent to node 0, whose server reports the same parse
// error a single-node engine would.
func (c *clusterEngine) Exec(src string) (*Result, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	st, err := sql.Parse(src)
	if err != nil {
		return c.nodes[0].Exec(src)
	}
	switch s := st.(type) {
	case *sql.ShowTablesStmt:
		return c.execShowTables(src)
	case *sql.CreateStmt:
		return c.nodes[c.owner(s.Schema.Name)].Exec(src)
	case *sql.InsertStmt:
		return c.nodes[c.owner(s.Table)].Exec(src)
	case *sql.SelectStmt:
		return c.nodes[c.owner(s.Table)].Exec(src)
	case *sql.UpdateStmt:
		return c.nodes[c.owner(s.Table)].Exec(src)
	case *sql.DeleteStmt:
		return c.nodes[c.owner(s.Table)].Exec(src)
	case *sql.DescribeStmt:
		return c.nodes[c.owner(s.Table)].Exec(src)
	default:
		return c.nodes[0].Exec(src)
	}
}

// execShowTables merges every node's `show tables` rows, deduplicating
// topics that exist on all nodes (the timer) by keeping the owner's row.
func (c *clusterEngine) execShowTables(src string) (*Result, error) {
	var merged *Result
	rows := make(map[string][]Value)
	for i, n := range c.nodes {
		res, err := n.Exec(src)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = &Result{Cols: res.Cols}
		}
		for _, row := range res.Rows {
			if len(row) == 0 {
				continue
			}
			name := row[0].String()
			if _, dup := rows[name]; dup && c.owner(name) != i {
				continue
			}
			rows[name] = row
		}
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		merged.Rows = append(merged.Rows, rows[name])
	}
	return merged, nil
}

// Insert implements Engine: the tuple commits on the table's owner.
func (c *clusterEngine) Insert(table string, vals ...Value) error {
	if err := c.guard(); err != nil {
		return err
	}
	return c.nodes[c.owner(table)].Insert(table, vals...)
}

// InsertBatch implements Engine: the whole batch commits on the table's
// owner as one contiguous sequence run, inheriting the Remote path's
// chunking and stream escalation for large batches. Concurrent batches
// for different tables proceed on their owners independently — that is
// the cluster's horizontal scaling path.
func (c *clusterEngine) InsertBatch(table string, rows [][]Value) error {
	if err := c.guard(); err != nil {
		return err
	}
	return c.nodes[c.owner(table)].InsertBatch(table, rows)
}

// CreateTable implements Engine: the table lands on its owning node.
func (c *clusterEngine) CreateTable(schema *Schema) error {
	if err := c.guard(); err != nil {
		return err
	}
	return c.nodes[c.owner(schema.Name)].CreateTable(schema)
}

// Tables implements Engine: the union of every node's topics in lexical
// order (node-local topics like the timer appear once).
func (c *clusterEngine) Tables() ([]string, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	seen := make(map[string]struct{})
	for _, n := range c.nodes {
		names, err := n.Tables()
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			seen[name] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Watch implements Engine: the tap attaches on the topic's owner, so fn
// observes the topic's full commit order. The handle's ID is remapped
// into the cluster id space; Stats/Close proxy to the owner.
func (c *clusterEngine) Watch(topic string, fn func(*Event), opts ...WatchOption) (Watch, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	node := c.owner(topic)
	w, err := c.nodes[node].Watch(topic, fn, opts...)
	if err != nil {
		return nil, err
	}
	return &clusterWatch{c: c, w: w, node: node}, nil
}

// Register implements Engine: the automaton runs on the owner of its
// first subscribed topic (its home node). Subscriptions to topics owned
// by other nodes are bridged — see bridge — before registration, so the
// automaton observes those topics through a home-local replica fed from
// each owner in commit order. Sources that do not parse client-side are
// forwarded to node 0 for the server's (identical) compile error.
func (c *clusterEngine) Register(source string, opts ...AutomatonOption) (Automaton, error) {
	if err := c.guard(); err != nil {
		return nil, err
	}
	prog, err := gapl.Parse(source)
	if err != nil {
		return c.nodes[0].Register(source, opts...)
	}
	home := 0
	if len(prog.Subs) > 0 {
		home = c.homeNode(prog.Subs)
	}
	// Associations read tables server-side on the home node; a table
	// owned elsewhere cannot be read there. Per-topic partitioning is the
	// scaling contract, so this is a documented routing limit, not a
	// silent wrong answer.
	for _, a := range prog.Assocs {
		if a.Table != TimerTopic && c.owner(a.Table) != home {
			return nil, fmt.Errorf(
				"unicache: cluster automaton associates table %s owned by node %s but is homed on %s (its first subscription's owner); co-locate the tables or split the automaton",
				a.Table, c.ring.Name(c.owner(a.Table)), c.ring.Name(home))
		}
	}
	// Bridge every foreign subscription before registering, so the
	// automaton never misses post-registration events. The timer is
	// node-local by design: the home node's own timer feeds it.
	var acquired []*bridge
	release := func() {
		for _, b := range acquired {
			c.releaseBridge(b)
		}
	}
	for _, topic := range subscriptionTopics(prog) {
		if topic == TimerTopic || c.owner(topic) == home {
			continue
		}
		b, err := c.acquireBridge(topic, home)
		if err != nil {
			release()
			return nil, err
		}
		acquired = append(acquired, b)
	}
	h, err := c.nodes[home].Register(source, opts...)
	if err != nil {
		release()
		return nil, err
	}
	return &clusterAutomaton{c: c, h: h, node: home, bridges: acquired}, nil
}

// homeNode picks the automaton's node: the owner of its first
// subscription (declaration order, matching the source text).
func (c *clusterEngine) homeNode(subs []gapl.SubDecl) int {
	for _, s := range subs {
		if s.Topic != TimerTopic {
			return c.owner(s.Topic)
		}
	}
	return 0
}

// subscriptionTopics returns a program's distinct subscribed topics in
// declaration order.
func subscriptionTopics(prog *gapl.Program) []string {
	seen := make(map[string]struct{}, len(prog.Subs))
	out := make([]string, 0, len(prog.Subs))
	for _, s := range prog.Subs {
		if _, dup := seen[s.Topic]; dup {
			continue
		}
		seen[s.Topic] = struct{}{}
		out = append(out, s.Topic)
	}
	return out
}

// Stats implements Engine: every node's snapshot merged, with watch and
// automaton ids remapped exactly as the handles remap theirs, so a
// handle's ID always finds its row. Per-node durability sections are not
// merged (they describe one node's WAL, not a cluster property).
func (c *clusterEngine) Stats() (Stats, error) {
	if err := c.guard(); err != nil {
		return Stats{}, err
	}
	var out Stats
	for i, n := range c.nodes {
		st, err := n.Stats()
		if err != nil {
			return Stats{}, err
		}
		for _, w := range st.Watches {
			w.ID = c.mapWatchID(w.ID, i)
			out.Watches = append(out.Watches, w)
		}
		for _, a := range st.Automata {
			a.ID = c.mapAutoID(a.ID, i)
			out.Automata = append(out.Automata, a)
		}
		// On a tenant-bound cluster every node reports the same tenant;
		// resource and event counters sum across the partitions, while the
		// quota (enforced per node) is the common configured limit.
		if t := st.Tenant; t != nil {
			if out.Tenant == nil {
				cp := *t
				out.Tenant = &cp
			} else {
				out.Tenant.Tables += t.Tables
				out.Tenant.Automata += t.Automata
				out.Tenant.Watches += t.Watches
				out.Tenant.Events += t.Events
				out.Tenant.EventsPerSec += t.EventsPerSec
				out.Tenant.Dropped += t.Dropped
				out.Tenant.Rejected += t.Rejected
				out.Tenant.WALBytes += t.WALBytes
			}
		}
	}
	return out, nil
}

// Ping round-trips every node, returning the first failure.
func (c *clusterEngine) Ping() error {
	if err := c.guard(); err != nil {
		return err
	}
	for i, n := range c.nodes {
		if err := n.Client().Ping(); err != nil {
			return fmt.Errorf("unicache: cluster node %s: %w", c.ring.Name(i), err)
		}
	}
	return nil
}

// WaitIdle blocks until the whole cluster is quiescent or the timeout
// elapses: every node's automaton registry reports idle through the
// quiesce opcode AND every cross-node bridge has forwarded everything it
// enqueued, with no new bridge traffic between two consecutive
// observations (in-flight pushes on the wire are invisible to any one
// node's registry; counter stability across a full quiesce round is what
// rules them out).
func (c *clusterEngine) WaitIdle(timeout time.Duration) bool {
	if err := c.guard(); err != nil {
		return false
	}
	deadline := time.Now().Add(timeout)
	for {
		before, settledBefore := c.bridgeProgress()
		idle := true
		for _, n := range c.nodes {
			remain := time.Until(deadline)
			if remain < 0 {
				remain = 0
			}
			if !n.WaitIdle(remain) {
				idle = false
				break
			}
		}
		if idle {
			after, settledAfter := c.bridgeProgress()
			if settledBefore && settledAfter && before == after {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// bridgeProgress sums enqueue counters across live bridges and reports
// whether every bridge has forwarded all of them.
func (c *clusterEngine) bridgeProgress() (enqueued uint64, settled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	settled = true
	for _, b := range c.bridges {
		e, f := b.enqueued.Load(), b.forwarded.Load()
		enqueued += e
		if e != f {
			settled = false
		}
	}
	return enqueued, settled
}

// Close implements Engine: stops every bridge, then closes every node
// connection (each server detaches that connection's watches and
// automata, the same teardown a crashed client gets).
func (c *clusterEngine) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	bridges := make([]*bridge, 0, len(c.bridges))
	for _, b := range c.bridges {
		bridges = append(bridges, b)
	}
	c.bridges = make(map[string]*bridge)
	c.mu.Unlock()
	for _, b := range bridges {
		b.stop()
	}
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ClusterBatcher is the cluster's bulk-load surface: rows Add()ed for any
// mix of tables are routed by the ring to per-node MultiBatchers (created
// on first use), so one producer pouring a mixed-table load fans out to
// every owning node concurrently — each node's batcher coalesces its
// tables' rows into batch commits and escalates oversized flushes to the
// streaming insert path, keeping client memory bounded no matter the load
// size. It is safe for concurrent use; per-table row order is preserved
// (all of a table's rows flow through one node's one batcher).
type ClusterBatcher struct {
	c *clusterEngine

	mu       sync.Mutex
	batchers map[int]*rpc.MultiBatcher
	closed   bool
}

// Batcher returns a new per-node batching writer for mixed-table bulk
// loads. Close it (or Flush) before relying on the rows being committed.
func (c *clusterEngine) Batcher() *ClusterBatcher {
	return &ClusterBatcher{c: c, batchers: make(map[int]*rpc.MultiBatcher)}
}

// Add buffers one row for table, routed to the owning node's batcher.
func (b *ClusterBatcher) Add(table string, vals ...Value) error {
	node := b.c.owner(table)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("unicache: cluster batcher is closed")
	}
	m, ok := b.batchers[node]
	if !ok {
		m = b.c.nodes[node].Client().NewMultiBatcher(rpc.BatcherConfig{})
		b.batchers[node] = m
	}
	b.mu.Unlock()
	return m.Add(table, vals...)
}

// Flush synchronously ships every node's buffered rows, returning the
// first error (all nodes are still attempted).
func (b *ClusterBatcher) Flush() error {
	var first error
	for _, m := range b.snapshot(false) {
		if err := m.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close rejects further Adds and closes every per-node batcher, shipping
// their remainders; a nil return means every accepted row committed.
func (b *ClusterBatcher) Close() error {
	var first error
	for _, m := range b.snapshot(true) {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *ClusterBatcher) snapshot(markClosed bool) []*rpc.MultiBatcher {
	b.mu.Lock()
	defer b.mu.Unlock()
	if markClosed {
		if b.closed {
			return nil
		}
		b.closed = true
	}
	out := make([]*rpc.MultiBatcher, 0, len(b.batchers))
	for _, m := range b.batchers {
		out = append(out, m)
	}
	return out
}

// clusterWatch proxies a node watch handle, remapping its id.
type clusterWatch struct {
	c    *clusterEngine
	w    Watch
	node int
}

func (w *clusterWatch) ID() int64     { return w.c.mapWatchID(w.w.ID(), w.node) }
func (w *clusterWatch) Topic() string { return w.w.Topic() }

func (w *clusterWatch) Stats() (SubscriptionStats, error) {
	st, err := w.w.Stats()
	if err != nil {
		return st, err
	}
	st.ID = w.c.mapWatchID(st.ID, w.node)
	return st, nil
}

func (w *clusterWatch) Close() error { return w.w.Close() }

// clusterAutomaton proxies a node automaton handle, remapping its id and
// holding its bridge references.
type clusterAutomaton struct {
	c       *clusterEngine
	h       Automaton
	node    int
	mu      sync.Mutex
	bridges []*bridge
}

func (h *clusterAutomaton) ID() int64              { return h.c.mapAutoID(h.h.ID(), h.node) }
func (h *clusterAutomaton) Events() <-chan []Value { return h.h.Events() }

func (h *clusterAutomaton) Stats() (AutomatonStats, error) {
	st, err := h.h.Stats()
	if err != nil {
		return st, err
	}
	st.ID = h.c.mapAutoID(st.ID, h.node)
	return st, nil
}

// Close unregisters the automaton on its home node and releases its
// bridges; the error reports the unregistration or the first bridge
// forwarding failure, whichever came first.
func (h *clusterAutomaton) Close() error {
	err := h.h.Close()
	h.mu.Lock()
	bridges := h.bridges
	h.bridges = nil
	h.mu.Unlock()
	for _, b := range bridges {
		if berr := h.c.releaseBridge(b); berr != nil && err == nil {
			err = berr
		}
	}
	return err
}

// bridgeQueueDepth bounds a bridge's forwarding queue. Block policy: a
// slow home node backpressures the owner's push path (and ultimately the
// owner's publishers) instead of dropping events or buffering unbounded —
// the same discipline every other inbox in the system follows.
const bridgeQueueDepth = 4096

// bridgeForwardBatch caps rows per forwarded InsertBatch, keeping the
// replica's commit granularity close to the server push path's coalescing.
const bridgeForwardBatch = 256

// bridge replicates one topic from its owning node onto an automaton's
// home node: a watch on the owner (the ordinary tap path, so events
// arrive in the topic's committed order) feeds a bounded queue drained by
// one forwarder goroutine that batch-inserts into the home node's replica
// table (the ordinary insert path, so home-side subscribers — the bridged
// automata — observe a totally ordered topic again). Bridged events get
// home-local sequence numbers and commit timestamps: per-topic order is
// preserved end to end, but cross-topic timing is the home node's view.
//
// Bridges are reference-counted per (topic, home) pair: any number of
// automata on one home share a single replica stream, so a hot source
// topic costs one tap on its owner per consuming node, not per automaton.
type bridge struct {
	topic string
	home  int
	refs  int // guarded by clusterEngine.mu

	w    Watch
	q    *pubsub.Queue[[]Value]
	done chan struct{}

	enqueued  atomic.Uint64
	forwarded atomic.Uint64
	errMu     sync.Mutex
	err       error
}

func bridgeKey(topic string, home int) string {
	return fmt.Sprintf("%s\x00%d", topic, home)
}

// acquireBridge returns the (topic → home) bridge, starting it on first
// use: the home replica table is created from the owner's schema and the
// owner-side watch attaches before this returns, so a subsequently
// registered automaton misses nothing committed after registration.
func (c *clusterEngine) acquireBridge(topic string, home int) (*bridge, error) {
	key := bridgeKey(topic, home)
	c.mu.Lock()
	if b, ok := c.bridges[key]; ok {
		b.refs++
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()

	owner := c.owner(topic)
	// The owner's describe cache supplies the schema; a missing topic
	// fails here with ErrNoSuchTable, exactly where a single-node
	// Register would fail its subscription bind.
	schema, err := c.nodes[owner].Client().Schema(topic)
	if err != nil {
		return nil, err
	}
	if err := c.nodes[home].CreateTable(schema); err != nil && !errors.Is(err, uerr.ErrTableExists) {
		return nil, fmt.Errorf("unicache: cluster bridge replica %s on %s: %w", topic, c.ring.Name(home), err)
	}

	b := &bridge{
		topic: topic,
		home:  home,
		refs:  1,
		q:     pubsub.NewQueue[[]Value](pubsub.QueueOpts{Capacity: bridgeQueueDepth, Policy: pubsub.Block}),
		done:  make(chan struct{}),
	}
	w, err := c.nodes[owner].Watch(topic, func(ev *Event) {
		if ev.Tuple == nil {
			return
		}
		// No copy: the client decodes each pushed event into a fresh value
		// slice and nothing mutates it afterwards, so the bridge may own it
		// (TestClusterCrossNodeAutomaton forwards through this path).
		if b.q.Push(ev.Tuple.Vals) {
			b.enqueued.Add(1)
		}
	})
	if err != nil {
		return nil, err
	}
	b.w = w
	go b.forward(c.nodes[home])

	c.mu.Lock()
	if existing, ok := c.bridges[key]; ok {
		// Lost a construction race; keep the established one.
		existing.refs++
		c.mu.Unlock()
		b.stop()
		return existing, nil
	}
	c.bridges[key] = b
	c.mu.Unlock()
	return b, nil
}

// releaseBridge drops one reference, stopping the bridge when the last
// consumer goes; it returns the bridge's first forwarding error (if any)
// so automaton Close surfaces silent replication failures.
func (c *clusterEngine) releaseBridge(b *bridge) error {
	c.mu.Lock()
	b.refs--
	last := b.refs <= 0
	if last {
		delete(c.bridges, bridgeKey(b.topic, b.home))
	}
	c.mu.Unlock()
	if last {
		b.stop()
	}
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// forward drains the bridge queue into the home node's replica table in
// bounded batches until the queue closes.
func (b *bridge) forward(home *Remote) {
	defer close(b.done)
	buf := make([][]Value, 0, bridgeForwardBatch)
	for {
		batch, ok := b.q.PopBatch(bridgeForwardBatch, buf[:0])
		if len(batch) > 0 {
			if err := home.InsertBatch(b.topic, batch); err != nil {
				b.errMu.Lock()
				if b.err == nil {
					b.err = fmt.Errorf("unicache: cluster bridge %s: %w", b.topic, err)
				}
				b.errMu.Unlock()
			}
			// Counted even on error: the rows left the queue either way,
			// and WaitIdle tracks settlement, not success (the error
			// surfaces through releaseBridge).
			b.forwarded.Add(uint64(len(batch)))
		}
		if !ok {
			return
		}
	}
}

// stop detaches the owner-side watch, closes the queue (the forwarder
// drains what is buffered, then exits) and waits for the forwarder.
func (b *bridge) stop() {
	_ = b.w.Close()
	b.q.Close()
	<-b.done
}
