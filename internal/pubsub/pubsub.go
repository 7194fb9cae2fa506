package pubsub

import (
	"fmt"
	"sort"
	"sync"

	"unicache/internal/types"
)

// Subscriber consumes events. Deliver and DeliverBatch are enqueue-only:
// both are called with the topic lock held (so that the topic's event
// interleaving is identical for every subscriber) and must do no more than
// queue the events and signal a consumer — never execute consumer logic.
// An Inbox satisfies this; a bounded Block inbox may park the publisher
// when full, which is deliberate backpressure, not work. They must also
// not call Subscribe, Unsubscribe or anything that takes subscription
// locks — subscription changes from inside delivery can deadlock against
// concurrent control operations; hand such work to the consumer goroutine
// (a Dispatcher) instead. DeliverBatch receives a run of events in commit
// order and must not retain or mutate the slice itself (the same slice is
// handed to every subscriber). Retaining the *Event pointers is fine:
// committed events are immutable heap values.
type Subscriber interface {
	Deliver(ev *types.Event)
	DeliverBatch(evs []*types.Event)
}

// Broker routes published events to topic subscribers.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*Topic

	// subMu guards byID, the id -> subscriptions index. It lets
	// Unsubscribe visit only the topics the id is actually attached to,
	// holding no broker-wide lock while it takes each topic's mutex — so
	// detaching from healthy topics never waits on an unrelated stalled
	// topic and never blocks topic creation. The index records the
	// Subscriber instance so a detach snapshotted before a concurrent
	// re-subscribe of the same id skips the newer subscription instead of
	// wiping it.
	subMu sync.Mutex
	byID  map[int64]map[*Topic]Subscriber
}

// Topic is one named event channel. Publishers that own a *Topic handle
// (the cache's per-topic commit domains) publish through it directly,
// without touching the broker's topic map; the handle stays valid for the
// life of the broker. The topic mutex serialises publications against
// subscription changes, which is what makes every subscriber of the topic
// observe the identical event interleaving.
type Topic struct {
	name string
	mu   sync.Mutex
	subs map[int64]Subscriber
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics: make(map[string]*Topic),
		byID:   make(map[int64]map[*Topic]Subscriber),
	}
}

// CreateTopic registers a topic name. Creating an existing topic is an
// error (mirrors create table semantics).
func (b *Broker) CreateTopic(name string) error {
	if name == "" {
		return fmt.Errorf("topic needs a name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("topic %s already exists", name)
	}
	b.topics[name] = &Topic{name: name, subs: make(map[int64]Subscriber)}
	return nil
}

// Topic returns the publish handle for the named topic. The handle is
// stable: it may be cached by publishers (the cache caches one per commit
// domain) and used concurrently with subscription changes.
func (b *Broker) Topic(name string) (*Topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("no such topic %q", name)
	}
	return t, nil
}

// HasTopic reports whether the topic exists.
func (b *Broker) HasTopic(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.topics[name]
	return ok
}

// Topics returns the topic names in lexical order.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Subscribe attaches sub to the named topic under the given subscriber id.
// One id may subscribe to many topics; Unsubscribe(id) detaches it from all
// of them. No lock is held while waiting for another (the topic is updated
// first, then the index under subMu), so subscribing to one stalled topic
// never freezes subscription changes on healthy topics. An Unsubscribe
// racing a Subscribe of the same id resolves via the index: a snapshot
// taken before this subscription was indexed simply does not include it
// (the unsubscribe linearises first), and a snapshotted older subscription
// is removed by Subscriber instance, never touching this one.
func (b *Broker) Subscribe(id int64, name string, sub Subscriber) error {
	if sub == nil {
		return fmt.Errorf("nil subscriber")
	}
	b.mu.RLock()
	t, ok := b.topics[name]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("no such topic %q", name)
	}
	t.mu.Lock()
	if _, dup := t.subs[id]; dup {
		t.mu.Unlock()
		return fmt.Errorf("subscriber %d already subscribed to %s", id, name)
	}
	t.subs[id] = sub
	t.mu.Unlock()
	b.subMu.Lock()
	if b.byID[id] == nil {
		b.byID[id] = make(map[*Topic]Subscriber)
	}
	b.byID[id][t] = sub
	b.subMu.Unlock()
	return nil
}

// Unsubscribe detaches subscriber id from every topic it is attached to.
// The index is snapshotted and cleared under subMu, but the per-topic
// detach runs with no broker-wide lock held and takes only the attached
// topics' locks — so detaching an id neither waits on topics it was not
// subscribed to nor freezes other ids' subscription changes behind a
// stalled topic. Each detach removes the subscription only if the topic
// still holds the snapshotted Subscriber instance, so a Subscribe of the
// same id that lands after the snapshot survives untouched.
func (b *Broker) Unsubscribe(id int64) {
	b.subMu.Lock()
	attached := b.byID[id]
	delete(b.byID, id)
	b.subMu.Unlock()
	for t, sub := range attached {
		t.mu.Lock()
		if t.subs[id] == sub {
			delete(t.subs, id)
		}
		t.mu.Unlock()
	}
}

// Subscribers returns the number of subscribers on a topic.
func (b *Broker) Subscribers(name string) int {
	b.mu.RLock()
	t, ok := b.topics[name]
	b.mu.RUnlock()
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// Publish delivers ev to every subscriber of this topic. The caller (the
// cache commit path) is responsible for assigning ev.Tuple.Seq before
// publishing; the topic lock guarantees all subscribers observe the same
// interleaving.
func (t *Topic) Publish(ev *types.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sub := range t.subs {
		sub.Deliver(ev)
	}
}

// PublishBatch delivers a run of events — all on this topic, already
// carrying their committed sequence numbers — to every subscriber with one
// topic-lock acquisition and one DeliverBatch call per subscriber. This is
// the fan-out arm of the batch commit pipeline: the per-event signalling
// cost of Publish amortises over the run.
func (t *Topic) PublishBatch(evs []*types.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sub := range t.subs {
		sub.DeliverBatch(evs)
	}
}

// Publish delivers ev to every subscriber of ev.Topic, resolving the topic
// by name. Hot publishers (the cache commit domains) hold a *Topic handle
// and call its Publish directly instead.
func (b *Broker) Publish(ev *types.Event) error {
	t, err := b.Topic(ev.Topic)
	if err != nil {
		return err
	}
	t.Publish(ev)
	return nil
}

// PublishBatch delivers a run of same-topic events by name; see
// Topic.PublishBatch for the handle-based hot path.
func (b *Broker) PublishBatch(evs []*types.Event) error {
	if len(evs) == 0 {
		return nil
	}
	name := evs[0].Topic
	for _, ev := range evs[1:] {
		if ev.Topic != name {
			return fmt.Errorf("publish batch mixes topics %q and %q", name, ev.Topic)
		}
	}
	t, err := b.Topic(name)
	if err != nil {
		return err
	}
	t.PublishBatch(evs)
	return nil
}
