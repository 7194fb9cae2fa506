package pubsub

import (
	"sync/atomic"

	"unicache/internal/types"
)

// DefaultDispatchRun bounds how many queued events a Dispatcher pops per
// inbox lock acquisition: long enough to amortise the lock/signal cost of
// tuple-at-a-time delivery, short enough that Stop stays responsive under
// sustained load.
const DefaultDispatchRun = 256

// DispatcherConfig tunes a Dispatcher.
type DispatcherConfig struct {
	// MaxRun bounds events popped per drain (default DefaultDispatchRun).
	MaxRun int
	// OnFail, if set, is invoked once — on a fresh goroutine, after the
	// drain loop has exited — when the inbox was closed by a Fail-policy
	// overflow rather than by Stop. It is where the owner detaches the
	// subscription (it may safely call Unsubscribe and Stop; neither is
	// legal from inside the consumer callback).
	OnFail func()
}

// Dispatcher drains an Inbox on its own goroutine, invoking the consumer
// callback for each event in commit order. It is the asynchronous half of
// the delivery pipeline: the commit path enqueues into the bounded Inbox in
// O(1) under the topic lock, and the Dispatcher executes the consumer on
// its own time. One Dispatcher owns one Inbox and one callback; the
// callback runs on the dispatcher goroutine, so it needs no locking of its
// own for state it alone touches, and it must not call Stop (or anything
// that waits for the dispatcher, like Cache.Unsubscribe of its own id) —
// that would deadlock the goroutine against itself.
type Dispatcher struct {
	in *Inbox
	fn func(*types.Event)
	// bfn, when set (NewBatchDispatcher), receives each drained run whole —
	// one invocation per PopBatch — instead of fn per event. The slice is
	// only valid for the duration of the call: the dispatcher reuses its
	// backing array for the next drain.
	bfn    func([]*types.Event)
	onFail func()
	maxRun int
	stop   atomic.Bool
	// processed counts callback invocations that have completed; compared
	// against the inbox's Consumed() (incremented atomically with the
	// pop), the difference is the number of popped-but-undelivered events
	// — which is what makes Busy free of the pop-then-flag window.
	processed atomic.Uint64
	done      chan struct{}
}

// NewDispatcher starts a dispatcher draining in into fn.
func NewDispatcher(in *Inbox, fn func(*types.Event), cfg DispatcherConfig) *Dispatcher {
	if cfg.MaxRun <= 0 {
		cfg.MaxRun = DefaultDispatchRun
	}
	d := &Dispatcher{
		in:     in,
		fn:     fn,
		onFail: cfg.OnFail,
		maxRun: cfg.MaxRun,
		done:   make(chan struct{}),
	}
	go d.run()
	return d
}

// NewBatchDispatcher starts a dispatcher draining in into fn one RUN at a
// time: every PopBatch drain (up to MaxRun events, in commit order) is
// handed to fn as a single invocation, which is what lets a batch-aware
// consumer (a batchable automaton behaviour) amortise its activation cost
// over the run. fn must not retain the slice after returning — the
// dispatcher reuses its backing array for the next drain. Stop semantics
// are per run: a run whose callback has started is finished, queued runs
// are discarded, and fn never runs after Stop returns.
func NewBatchDispatcher(in *Inbox, fn func([]*types.Event), cfg DispatcherConfig) *Dispatcher {
	if cfg.MaxRun <= 0 {
		cfg.MaxRun = DefaultDispatchRun
	}
	d := &Dispatcher{
		in:     in,
		bfn:    fn,
		onFail: cfg.OnFail,
		maxRun: cfg.MaxRun,
		done:   make(chan struct{}),
	}
	go d.run()
	return d
}

func (d *Dispatcher) run() {
	defer close(d.done)
	var buf []*types.Event
	for {
		batch, ok := d.in.PopBatch(d.maxRun, buf)
		if !ok {
			if d.in.Failed() && !d.stop.Load() && d.onFail != nil {
				// On a fresh goroutine: OnFail may call Stop, which waits
				// for this goroutine to exit.
				go d.onFail()
			}
			return
		}
		if d.bfn != nil {
			if d.stop.Load() {
				// The abandoned run still counts as handled: Busy must
				// not report a stopped dispatcher as forever in flight.
				d.processed.Add(uint64(len(batch)))
				return
			}
			d.bfn(batch)
			d.processed.Add(uint64(len(batch)))
			buf = batch
			continue
		}
		for i, ev := range batch {
			if d.stop.Load() {
				// The abandoned remainder still counts as handled: Busy
				// must not report a stopped dispatcher as forever in
				// flight.
				d.processed.Add(uint64(len(batch) - i))
				return
			}
			d.fn(ev)
			d.processed.Add(1)
		}
		buf = batch
	}
}

// Inbox returns the inbox this dispatcher drains (subscribe it to topics).
func (d *Dispatcher) Inbox() *Inbox { return d.in }

// Busy reports whether the dispatcher holds popped-but-undelivered events.
// Idle consumers satisfy Depth() == 0 && !Busy(), with no false idle: the
// inbox's consumed count advances atomically with the pop, so an event can
// never be between the queue and the callback while both Depth and Busy
// read quiescent. (A stale read can report a false BUSY, which idle
// pollers absorb by retrying.)
func (d *Dispatcher) Busy() bool { return d.in.Consumed() != d.processed.Load() }

// Depth returns the number of queued, not-yet-dispatched events.
func (d *Dispatcher) Depth() int { return d.in.Len() }

// Dropped returns the inbox's dropped-event count (DropOldest evictions or
// a Fail overflow).
func (d *Dispatcher) Dropped() uint64 { return d.in.Dropped() }

// Stop closes the inbox, discards queued-but-undelivered events, and waits
// for the drain goroutine to exit. The callback is never invoked after
// Stop returns: an in-flight invocation is waited for, the rest of its run
// is abandoned. Closing the inbox first also unparks any Block-policy
// pusher before the wait, so Stop never deadlocks against a publisher
// holding a topic lock. Stop is idempotent, but must not be called from
// the callback itself — and a caller must not hold a resource the
// in-flight callback may be blocked on; either cycle deadlocks the wait.
func (d *Dispatcher) Stop() {
	d.stop.Store(true)
	d.in.Close()
	<-d.done
	// Discard what the closed inbox still holds (it rejects new pushes),
	// counting it as handled so Depth and Busy read quiescent for anything
	// still polling a stopped dispatcher.
	if batch, ok := d.in.PopBatch(0, nil); ok {
		d.processed.Add(uint64(len(batch)))
	}
}
