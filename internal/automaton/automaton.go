// Package automaton implements the execution model of §5: each registered
// automaton is compiled to bytecode, bound to its own dispatcher goroutine
// (the Go analogue of the paper's PThread-per-automaton), and driven by a
// FIFO inbox fed by the cache's publish path. The inbox is unbounded by
// default but may be bounded with an overflow policy — registry-wide via
// Config.InboxCapacity/InboxPolicy, per automaton via RegisterWith and
// Options: Block applies backpressure to the publishing topic, DropOldest
// sheds the oldest queued events, and Fail detaches the automaton on
// overflow, reporting through OnRuntimeError. The runtime guarantees
// tuples are delivered to an automaton in strict time-of-insertion order.
//
// Activation is batch-aware: the dispatcher drains the inbox in runs, and
// a behaviour the compiler classified batchable (run-aware and blind to
// individual events — see gapl.Compiled.BatchableBehavior and docs/GAPL.md)
// executes once per run via vm.DeliverBatch, amortising interpreter
// dispatch over the run. Every other behaviour executes once per event, in
// commit order, with output bit-identical to tuple-at-a-time delivery.
package automaton

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unicache/internal/cep"
	"unicache/internal/gapl"
	"unicache/internal/pubsub"
	"unicache/internal/table"
	"unicache/internal/types"
	"unicache/internal/uerr"
	"unicache/internal/vm"
)

// Sink receives the values of a send() call, i.e. the derived events an
// automaton reports to its registering application.
type Sink func(vals []types.Value) error

// DiscardSink drops send() output; use it for automata that only print or
// publish.
func DiscardSink([]types.Value) error { return nil }

// Services is the cache surface the runtime needs. The cache implements it.
type Services interface {
	// Now returns the cache clock.
	Now() types.Timestamp
	// CommitInsert inserts a tuple into a table, publishing it on the
	// table's topic (the commit path assigns the global sequence number).
	CommitInsert(tableName string, vals []types.Value) error
	// PersistentTable resolves an association target.
	PersistentTable(name string) (*table.Persistent, error)
	// Schemas returns a snapshot of all table schemas by name.
	Schemas() map[string]*types.Schema
	// Subscribe attaches a subscriber to a topic under the automaton id.
	Subscribe(id int64, topic string, sub pubsub.Subscriber) error
	// Unsubscribe detaches the automaton from all topics.
	Unsubscribe(id int64)
}

// Config tunes a Registry.
type Config struct {
	// PrintWriter receives print() output (default os.Stdout).
	PrintWriter io.Writer
	// OnRuntimeError observes behaviour-clause failures; the automaton
	// keeps running (default: write to os.Stderr).
	OnRuntimeError func(id int64, err error)
	// MaxSteps bounds instructions per clause execution (0 = unlimited).
	MaxSteps int
	// InboxCapacity bounds each automaton's inbox (0 = unbounded, the
	// default: an automaton may publish into a topic it subscribes to, and
	// a bounded Block inbox would deadlock that cycle once full).
	InboxCapacity int
	// InboxPolicy is the overflow policy for bounded inboxes. Under Fail,
	// an overflowing automaton is unregistered and the failure reported
	// through OnRuntimeError.
	InboxPolicy pubsub.Policy
	// OnRegister, when set, observes every successful registration (the
	// durable cache logs it to the write-ahead log). It runs after the
	// automaton is installed but before its subscriptions attach, so a
	// later OnUnregister for the same id always follows it. Recovery
	// re-registrations do not fire it.
	OnRegister func(a *Automaton)
	// OnUnregister, when set, observes every unregistration — including
	// Fail-policy self-unregisters — except those of Close: shutdown
	// stops automata without striking them from the durable record.
	OnUnregister func(id int64)
}

// Options tunes one automaton's registration, overriding the registry-wide
// Config defaults (the PR 3 bound was registry-wide; RegisterWith closes
// that gap). The zero value means "use the registry defaults".
type Options struct {
	// InboxCapacity bounds this automaton's inbox: 0 uses the registry's
	// Config.InboxCapacity, a positive value bounds the inbox at that
	// depth, and a negative value forces it unbounded regardless of the
	// registry default.
	InboxCapacity int
	// InboxPolicy is the overflow policy applied when InboxCapacity > 0
	// (ignored otherwise; the registry default bound keeps the registry
	// default policy). Block applies backpressure to the publishing topic,
	// DropOldest sheds the oldest queued events, Fail unregisters the
	// automaton on overflow.
	InboxPolicy pubsub.Policy
}

// Registry manages the set of live automata for one cache.
type Registry struct {
	svc    Services
	cfg    Config
	printM sync.Mutex

	mu      sync.Mutex
	autos   map[int64]*Automaton
	nextID  int64
	closing bool
}

// NewRegistry builds an empty registry over the given services.
func NewRegistry(svc Services, cfg Config) *Registry {
	if cfg.PrintWriter == nil {
		cfg.PrintWriter = os.Stdout
	}
	if cfg.OnRuntimeError == nil {
		cfg.OnRuntimeError = func(id int64, err error) {
			fmt.Fprintf(os.Stderr, "automaton %d: %v\n", id, err)
		}
	}
	return &Registry{svc: svc, cfg: cfg, autos: make(map[int64]*Automaton)}
}

// Automaton is one registered, running automaton.
type Automaton struct {
	id  int64
	reg *Registry
	// svc is the cache surface this automaton runs against: the registry
	// default, or a tenant-scoped view handed to RegisterIn that prefixes
	// every table/topic name with the tenant namespace.
	svc    Services
	ns     string
	prog   *gapl.Compiled
	source string
	opts   Options
	inbox  *pubsub.Inbox
	disp   *pubsub.Dispatcher
	// vmMu serialises behaviour execution against SnapshotVars, so a
	// durable snapshot never observes a half-executed activation.
	vmMu sync.Mutex
	// Exactly one of vm and pm is set: behaviour automata run the
	// bytecode VM, pattern automata the CEP machine.
	vm    *vm.VM
	pm    *cep.Machine
	sink  Sink
	nProc atomic.Uint64
	nErr  atomic.Uint64
}

// ID returns the management identifier handed to the registering
// application.
func (a *Automaton) ID() int64 { return a.id }

// Namespace returns the tenant namespace the automaton was registered
// under ("" for the default, unscoped namespace).
func (a *Automaton) Namespace() string { return a.ns }

// Processed returns the number of events whose behaviour execution has
// completed.
func (a *Automaton) Processed() uint64 { return a.nProc.Load() }

// RuntimeErrors returns the number of behaviour executions that failed.
func (a *Automaton) RuntimeErrors() uint64 { return a.nErr.Load() }

// Idle reports whether the automaton has an empty inbox and is not
// executing its behaviour clause.
func (a *Automaton) Idle() bool { return a.inbox.Len() == 0 && !a.disp.Busy() }

// Dropped returns the number of events this automaton's inbox shed
// (non-zero only for bounded DropOldest/Fail inboxes).
func (a *Automaton) Dropped() uint64 { return a.inbox.Dropped() }

// Depth returns the number of events queued in the automaton's inbox,
// not yet handed to the behaviour clause.
func (a *Automaton) Depth() int { return a.inbox.Len() }

// Batchable reports whether the automaton is activated once per drained
// run rather than per event: behaviour clauses the compiler classified
// batchable, and every pattern automaton (a run feeds the NFA in one
// activation).
func (a *Automaton) Batchable() bool { return a.pm != nil || a.prog.BatchableBehavior }

// Pattern reports whether this is a declarative CEP pattern automaton.
func (a *Automaton) Pattern() bool { return a.pm != nil }

// Matches returns the number of pattern matches emitted (0 for
// behaviour automata).
func (a *Automaton) Matches() uint64 {
	if a.pm == nil {
		return 0
	}
	a.vmMu.Lock()
	defer a.vmMu.Unlock()
	return a.pm.Matches()
}

// Source returns the GAPL source the automaton was registered with.
func (a *Automaton) Source() string { return a.source }

// InboxOptions returns the per-automaton options it was registered with.
func (a *Automaton) InboxOptions() Options { return a.opts }

// SnapshotVars calls fn with every declared variable and its current
// value, serialised against behaviour execution: the values form a
// consistent cut between activations. The durable cache uses it to
// snapshot automaton state. A pattern automaton yields a single
// reserved variable (cep.StateVar) holding the machine's serialised
// matching state — watermark, reorder buffer and partial matches.
func (a *Automaton) SnapshotVars(fn func(name string, v types.Value)) {
	a.vmMu.Lock()
	defer a.vmMu.Unlock()
	if a.pm != nil {
		v, err := a.pm.Snapshot()
		if err != nil {
			a.reg.cfg.OnRuntimeError(a.id, fmt.Errorf("snapshotting pattern state: %w", err))
			return
		}
		fn(cep.StateVar, v)
		return
	}
	a.vm.VisitVars(fn)
}

// StateRestorer reinstates one snapshotted variable; vm.VM implements it
// for behaviour automata and the registry adapts pattern machines to it.
// Unknown names are ignored (the source may have changed since the
// snapshot).
type StateRestorer interface {
	RestoreVar(name string, v types.Value, now types.Timestamp) error
}

// patternRestorer adapts a cep.Machine to StateRestorer: the reserved
// cep.StateVar carries the whole machine state.
type patternRestorer struct{ pm *cep.Machine }

func (p patternRestorer) RestoreVar(name string, v types.Value, _ types.Timestamp) error {
	if name != cep.StateVar {
		return nil
	}
	return p.pm.Restore(v)
}

// Register compiles, binds, initializes and starts an automaton with the
// registry-default inbox bound. Compile and bind problems — and
// initialization-clause failures — are returned to the registering
// application, mirroring the paper's error RPC. On success the returned
// automaton is already subscribed and processing events.
func (r *Registry) Register(source string, sink Sink) (*Automaton, error) {
	return r.RegisterWith(source, sink, Options{})
}

// RegisterWith is Register with per-automaton Options (inbox bound and
// overflow policy).
func (r *Registry) RegisterWith(source string, sink Sink, opts Options) (*Automaton, error) {
	return r.register(0, source, sink, opts, nil, nil, "")
}

// RegisterIn registers an automaton against an alternative Services — a
// tenant-scoped view that prefixes every table/topic with the ns
// namespace. The automaton's whole lifecycle (bind, subscriptions,
// publishes, associations, teardown) runs through svc, so its programs see
// only the namespace's tables; ns is recorded on the automaton for
// filtering and durable re-registration.
func (r *Registry) RegisterIn(svc Services, ns string, source string, sink Sink, opts Options) (*Automaton, error) {
	return r.register(0, source, sink, opts, nil, svc, ns)
}

// RegisterRecovered reinstates an automaton from the durable log under
// its original id: compile, bind and initialise as usual, then restore
// (when non-nil) reinstates snapshotted variable state — behaviour
// variables on the VM, pattern matching state on the CEP machine —
// before any event can arrive. The OnRegister hook does not fire — the
// durable record already carries this automaton.
// A namespaced automaton recovers with the same svc/ns pair it was
// registered with (svc nil means the registry default).
func (r *Registry) RegisterRecovered(id int64, source string, sink Sink, opts Options, svc Services, ns string, restore func(st StateRestorer) error) (*Automaton, error) {
	if id <= 0 {
		return nil, fmt.Errorf("automaton: recovered id must be positive, got %d", id)
	}
	return r.register(id, source, sink, opts, restore, svc, ns)
}

// register is the shared registration path. A zero forcedID allocates the
// next id and fires the registration hooks; a positive one reinstates a
// recovered automaton under its original id, hook-free. A nil svc uses the
// registry default (the unscoped cache).
func (r *Registry) register(forcedID int64, source string, sink Sink, opts Options, restore func(st StateRestorer) error, svc Services, ns string) (*Automaton, error) {
	if sink == nil {
		return nil, fmt.Errorf("automaton: nil sink (use DiscardSink)")
	}
	if svc == nil {
		svc = r.svc
	}
	prog, err := gapl.Compile(source)
	if err != nil {
		return nil, fmt.Errorf("automaton: compile: %w", err)
	}
	if err := prog.Bind(svc.Schemas()); err != nil {
		return nil, fmt.Errorf("automaton: bind: %w", err)
	}
	// Validate associations against persistent tables up front.
	for _, as := range prog.Associations() {
		if _, err := svc.PersistentTable(as.Table); err != nil {
			return nil, fmt.Errorf("automaton: association %s: %w", as.Name, err)
		}
	}

	r.mu.Lock()
	id := forcedID
	if id == 0 {
		r.nextID++
		id = r.nextID
	} else {
		if _, dup := r.autos[id]; dup {
			r.mu.Unlock()
			return nil, fmt.Errorf("automaton: recovered id %d already registered", id)
		}
		if id > r.nextID {
			r.nextID = id
		}
	}
	r.mu.Unlock()

	capacity, policy := r.cfg.InboxCapacity, r.cfg.InboxPolicy
	switch {
	case opts.InboxCapacity > 0:
		capacity, policy = opts.InboxCapacity, opts.InboxPolicy
	case opts.InboxCapacity < 0:
		capacity = 0 // explicitly unbounded
	}
	a := &Automaton{
		id:     id,
		reg:    r,
		svc:    svc,
		ns:     ns,
		prog:   prog,
		source: source,
		opts:   opts,
		inbox: pubsub.NewInboxWith(pubsub.QueueOpts{
			Capacity: capacity,
			Policy:   policy,
		}),
		sink: sink,
	}
	if prog.Pattern != nil {
		// Pattern programs bypass the VM entirely: the declarative clause
		// compiles to an NFA run by a cep.Machine on the batch-activation
		// path.
		pat, err := cep.CompilePattern(prog, svc.Schemas())
		if err != nil {
			return nil, fmt.Errorf("automaton: pattern: %w", err)
		}
		if pat.Into != "" {
			sch, ok := svc.Schemas()[pat.Into]
			if !ok {
				return nil, fmt.Errorf("automaton: pattern: into topic %q has no schema", pat.Into)
			}
			if sch.NumCols() != len(pat.Emit) {
				return nil, fmt.Errorf("automaton: pattern: emit arity %d does not match into topic %q (%d columns)",
					len(pat.Emit), pat.Into, sch.NumCols())
			}
		}
		pm := cep.NewMachine(pat)
		pm.OnMatch = func(vals []types.Value) error {
			if pat.Into != "" {
				if err := svc.CommitInsert(pat.Into, vals); err != nil {
					return fmt.Errorf("pattern emit into %s: %w", pat.Into, err)
				}
			}
			return a.sink(vals)
		}
		pm.OnError = func(err error) {
			a.nErr.Add(1)
			r.cfg.OnRuntimeError(id, err)
		}
		a.pm = pm
		// Recovery reinstates the snapshotted matching state (watermark,
		// reorder buffer, partial matches) before any event can arrive.
		if restore != nil {
			if err := restore(patternRestorer{pm: pm}); err != nil {
				return nil, fmt.Errorf("automaton: restoring state: %w", err)
			}
		}
	} else {
		machine, err := vm.New(prog, &host{a: a})
		if err != nil {
			return nil, fmt.Errorf("automaton: %w", err)
		}
		machine.MaxSteps = r.cfg.MaxSteps
		a.vm = machine

		// Initialization runs before any event can arrive (we subscribe
		// after).
		if err := machine.RunInit(); err != nil {
			return nil, fmt.Errorf("automaton: initialization: %w", err)
		}
		// Recovery reinstates snapshotted variable state on top of the init
		// clause's — windows keep their init-built eviction policy and merge
		// the saved contents back in.
		if restore != nil {
			if err := restore(machine); err != nil {
				return nil, fmt.Errorf("automaton: restoring state: %w", err)
			}
		}
	}

	// The dispatcher is the automaton's goroutine: it drains the inbox in
	// runs, in commit order. A behaviour the compiler classified batchable
	// rides the batch dispatcher — each run reaches the VM as ONE
	// activation, and Stop abandons queued runs whole. Every other
	// behaviour keeps the per-event dispatcher, preserving the pre-batch
	// contract exactly: one activation per event, and Stop/Unregister
	// abandon the remainder of an in-flight run between events. A
	// Fail-policy overflow unregisters the automaton (from the OnFail
	// goroutine — never the dispatcher's own) and surfaces the detach as a
	// runtime error. Dispatcher and registry entry exist BEFORE the first
	// subscription: the inbox cannot overflow until a topic feeds it, and
	// by then OnFail's Unregister must find the automaton.
	dcfg := pubsub.DispatcherConfig{
		OnFail: func() {
			r.cfg.OnRuntimeError(id, fmt.Errorf(
				"automaton: inbox overflowed its %d-event bound (%d dropped); unregistered under the Fail policy",
				capacity, a.inbox.Dropped()))
			_ = r.Unregister(id)
		},
	}
	switch {
	case a.pm != nil:
		a.disp = pubsub.NewBatchDispatcher(a.inbox, a.deliverPatternRun, dcfg)
	case prog.BatchableBehavior:
		a.disp = pubsub.NewBatchDispatcher(a.inbox, a.deliverRun, dcfg)
	default:
		a.disp = pubsub.NewDispatcher(a.inbox, a.deliver, dcfg)
	}
	r.mu.Lock()
	r.autos[id] = a
	r.mu.Unlock()
	// Fire the registration hook before the first subscription attaches:
	// every unregistration for this id — even a Fail-policy overflow
	// racing the subscribe loop — happens after, so the durable log never
	// records an unregister before its register.
	if forcedID == 0 && r.cfg.OnRegister != nil {
		r.cfg.OnRegister(a)
	}

	fail := func(err error) (*Automaton, error) {
		r.mu.Lock()
		delete(r.autos, id)
		r.mu.Unlock()
		if forcedID == 0 && r.cfg.OnUnregister != nil {
			r.cfg.OnUnregister(id)
		}
		// Stop before detaching: the broker detach takes topic locks that
		// a publisher parked in a full Block inbox may hold, and closing
		// the inbox (Stop) is what unparks it.
		a.disp.Stop()
		svc.Unsubscribe(id)
		return nil, err
	}
	// Pattern steps may share a topic (distinct variables over one
	// stream), so the subscription set is deduped; patterns additionally
	// subscribe to the Timer topic for the punctuation that advances the
	// watermark past stalled streams and fires deadline completions.
	subTopics := make([]string, 0, len(prog.Subscriptions())+1)
	seen := make(map[string]bool, len(prog.Subscriptions())+1)
	for _, sub := range prog.Subscriptions() {
		if !seen[sub.Topic] {
			seen[sub.Topic] = true
			subTopics = append(subTopics, sub.Topic)
		}
	}
	if a.pm != nil && !seen[types.TimerTopic] {
		subTopics = append(subTopics, types.TimerTopic)
	}
	for _, topic := range subTopics {
		if err := svc.Subscribe(id, topic, a.inbox); err != nil {
			return fail(fmt.Errorf("automaton: %w", err))
		}
	}
	// A Fail-policy overflow racing the subscription loop may already have
	// detached the automaton; sweep any subscription added after the
	// detach so no topic keeps feeding the dead inbox.
	r.mu.Lock()
	_, live := r.autos[id]
	r.mu.Unlock()
	if !live {
		svc.Unsubscribe(id)
		return nil, fmt.Errorf("automaton: inbox overflowed during registration")
	}
	return a, nil
}

// deliverRun consumes one drained run on a batchable automaton's
// dispatcher goroutine: the behaviour executes ONCE for the whole run —
// the batch activation that amortises interpreter dispatch. Per-event
// automata never come through here; they run deliver on the per-event
// dispatcher.
func (a *Automaton) deliverRun(evs []*types.Event) {
	a.vmMu.Lock()
	defer a.vmMu.Unlock()
	if err := a.vm.DeliverBatch(evs); err != nil {
		a.nErr.Add(1)
		a.reg.cfg.OnRuntimeError(a.id, err)
	}
	a.nProc.Add(uint64(len(evs)))
}

// deliverPatternRun feeds one drained run to the CEP machine on the
// automaton's dispatcher goroutine: buffering, watermark advance and
// match emission all happen inside ObserveBatch, under vmMu so a durable
// snapshot never sees a half-applied run.
func (a *Automaton) deliverPatternRun(evs []*types.Event) {
	a.vmMu.Lock()
	defer a.vmMu.Unlock()
	a.pm.ObserveBatch(evs)
	a.nProc.Add(uint64(len(evs)))
}

// deliver runs the behaviour clause for one event; it executes on the
// automaton's dispatcher goroutine.
func (a *Automaton) deliver(ev *types.Event) {
	a.vmMu.Lock()
	defer a.vmMu.Unlock()
	if err := a.vm.Deliver(ev); err != nil {
		a.nErr.Add(1)
		a.reg.cfg.OnRuntimeError(a.id, err)
	}
	a.nProc.Add(1)
}

// Get returns the automaton with the given id.
func (r *Registry) Get(id int64) (*Automaton, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.autos[id]
	return a, ok
}

// Len returns the number of live automata.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.autos)
}

// Automata snapshots the live automata in id order (registration order).
// The returned handles stay valid for stats reads even if an automaton is
// unregistered concurrently.
func (r *Registry) Automata() []*Automaton {
	r.mu.Lock()
	out := make([]*Automaton, 0, len(r.autos))
	for _, a := range r.autos {
		out = append(out, a)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Unregister detaches and stops the automaton, draining nothing: queued
// events are discarded, and an in-flight behaviour execution is the last —
// the dispatcher abandons the rest of its run. It blocks until the
// dispatcher goroutine exits; the behaviour clause never runs after
// Unregister returns.
func (r *Registry) Unregister(id int64) error {
	r.mu.Lock()
	a, ok := r.autos[id]
	delete(r.autos, id)
	notify := ok && !r.closing
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("automaton: %w: id %d", uerr.ErrNoSuchAutomaton, id)
	}
	if notify && r.cfg.OnUnregister != nil {
		r.cfg.OnUnregister(id)
	}
	// Stop before detaching: detaching takes topic locks, and a publisher
	// parked in a full Block inbox holds its topic's lock until the stop
	// closes the inbox and unparks it. Deliveries landing between stop and
	// detach drop into the closed inbox — the documented discard.
	a.disp.Stop()
	a.svc.Unsubscribe(id)
	return nil
}

// Close unregisters every automaton. The OnUnregister hook stays silent:
// shutdown stops automata without striking them from the durable record,
// so they come back on recovery.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closing = true
	ids := make([]int64, 0, len(r.autos))
	for id := range r.autos {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	for _, id := range ids {
		_ = r.Unregister(id)
	}
}

// NextID returns the id allocator's high-water mark (the last id handed
// out); the durable snapshot pins it so recovery never reuses an id.
func (r *Registry) NextID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// EnsureNextID raises the id allocator to at least n (recovery restores
// the snapshotted high-water mark before re-registering automata).
func (r *Registry) EnsureNextID(n int64) {
	r.mu.Lock()
	if n > r.nextID {
		r.nextID = n
	}
	r.mu.Unlock()
}

// WaitIdle blocks until every automaton has drained its inbox (or the
// timeout elapses); it reports whether quiescence was reached. Benchmarks
// use it to bracket complete processing of a workload.
func (r *Registry) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		r.mu.Lock()
		for _, a := range r.autos {
			if !a.Idle() {
				idle = false
				break
			}
		}
		r.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// host adapts an automaton to the vm.Host interface.
type host struct {
	a *Automaton
}

var _ vm.Host = (*host)(nil)

func (h *host) Now() types.Timestamp { return h.a.svc.Now() }

func (h *host) Publish(topic string, vals []types.Value) error {
	return h.a.svc.CommitInsert(topic, vals)
}

func (h *host) Send(vals []types.Value) error {
	return h.a.sink(vals)
}

func (h *host) Print(s string) {
	r := h.a.reg
	r.printM.Lock()
	defer r.printM.Unlock()
	fmt.Fprintln(r.cfg.PrintWriter, s)
}

func (h *host) AssocLookup(tbl, key string) (types.Value, bool, error) {
	pt, err := h.a.svc.PersistentTable(tbl)
	if err != nil {
		return types.Nil, false, err
	}
	row, ok := pt.Get(key)
	if !ok {
		return types.Nil, false, nil
	}
	// Committed rows are immutable: the sequence shares the row's values
	// and copies them before the program's first write.
	return types.SeqV(types.SharedSequence(row.Vals)), true, nil
}

// AssocInsert builds a full row from v and commits it through the cache so
// the update is published on the table's topic. v may be a sequence (the
// full row) or, for two-column tables, a scalar value paired with the key.
func (h *host) AssocInsert(tbl, key string, v types.Value) error {
	pt, err := h.a.svc.PersistentTable(tbl)
	if err != nil {
		return err
	}
	schema := pt.Schema()
	var row []types.Value
	if seq := v.Seq(); seq != nil {
		row = seq.Share()
	} else if schema.NumCols() == 2 && v.Kind().Scalar() {
		if schema.Key == 0 {
			row = []types.Value{types.Str(key), v}
		} else {
			row = []types.Value{v, types.Str(key)}
		}
	} else {
		return fmt.Errorf("insert() into %s needs a full row sequence", tbl)
	}
	if len(row) != schema.NumCols() {
		return fmt.Errorf("insert() into %s: row has %d values, table has %d columns",
			tbl, len(row), schema.NumCols())
	}
	if got := types.KeyString(row[schema.Key]); got != key {
		return fmt.Errorf("insert() into %s: key %q does not match row's primary key %q",
			tbl, key, got)
	}
	return h.a.svc.CommitInsert(tbl, row)
}

func (h *host) AssocHas(tbl, key string) (bool, error) {
	pt, err := h.a.svc.PersistentTable(tbl)
	if err != nil {
		return false, err
	}
	return pt.Has(key), nil
}

func (h *host) AssocRemove(tbl, key string) (bool, error) {
	pt, err := h.a.svc.PersistentTable(tbl)
	if err != nil {
		return false, err
	}
	return pt.Delete(key), nil
}

func (h *host) AssocSize(tbl string) (int, error) {
	pt, err := h.a.svc.PersistentTable(tbl)
	if err != nil {
		return 0, err
	}
	return pt.Len(), nil
}
