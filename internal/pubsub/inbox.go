package pubsub

import (
	"unicache/internal/types"
)

// Inbox is a FIFO event queue connecting the cache commit path (producer)
// to one consumer goroutine — an automaton drain loop or a Dispatcher. It
// is the Go analogue of the per-automaton PThread mailbox in the paper's
// runtime (§5), extended with an optional bound and overflow Policy:
// enqueueing into an unbounded or non-Block inbox never blocks, which is
// what lets Publish/PublishBatch hand events to every subscriber in O(1)
// per subscriber without executing consumer code under the topic lock. The
// consumer blocks in Pop/PopBatch until an event arrives or the inbox is
// closed.
type Inbox struct {
	Queue[*types.Event]
}

var _ Subscriber = (*Inbox)(nil)

// NewInbox returns an empty, open, unbounded inbox.
func NewInbox() *Inbox { return NewInboxWith(QueueOpts{}) }

// NewInboxWith returns an empty open inbox with the given bound and
// overflow policy. Capacity <= 0 means unbounded.
func NewInboxWith(opts QueueOpts) *Inbox {
	in := &Inbox{}
	in.Queue.init(opts)
	return in
}

// Deliver implements Subscriber: FIFO enqueue, applying the inbox's
// overflow policy when bounded and full (Block parks the publisher —
// stalling the topic — until the consumer drains; DropOldest evicts;
// Fail closes the inbox). Events delivered to a closed inbox are dropped.
func (in *Inbox) Deliver(ev *types.Event) { in.Push(ev) }

// DeliverBatch implements Subscriber: the whole run is enqueued under one
// lock acquisition and the consumer is signalled once, which is what makes
// the batch commit pipeline's fan-out cost amortise over the batch. The
// overflow policy applies as in Deliver; a Block inbox smaller than the
// run absorbs it in chunks as the consumer drains.
func (in *Inbox) DeliverBatch(evs []*types.Event) { in.PushBatch(evs) }
