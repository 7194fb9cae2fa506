package pubsub

import (
	"sync"
	"sync/atomic"
)

// Policy selects what a bounded Queue does when a push finds it full.
type Policy uint8

const (
	// Block parks the pusher until the consumer frees space (or the queue
	// closes). It never loses an element; the cost is backpressure — a
	// pusher holding a topic lock stalls that topic until the consumer
	// drains. A consumer that pushes back into a queue it is itself
	// draining (an automaton publishing into its own topic) can deadlock
	// once the queue is full; such cycles need headroom, an unbounded
	// queue, or a lossy policy.
	Block Policy = iota
	// DropOldest evicts the oldest queued elements to make room and counts
	// them in Dropped. The pusher never blocks; the consumer sees a gapped
	// but otherwise ordered suffix of the stream.
	DropOldest
	// Fail closes the queue on overflow (Failed reports true): the element
	// is rejected, subsequent pushes fail, and the consumer — after
	// draining what was queued — observes closure and can detach the
	// subscription. This turns a persistently slow consumer into an
	// explicit detach instead of silent loss or backpressure.
	Fail
)

// String names the policy for flags and logs.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "dropoldest"
	case Fail:
		return "fail"
	}
	return "unknown"
}

// QueueOpts configures a Queue or Inbox.
type QueueOpts struct {
	// Capacity bounds the number of queued elements; <= 0 means unbounded
	// (every Policy is then moot — pushes always succeed immediately).
	Capacity int
	// Policy selects the overflow behaviour of a bounded queue.
	Policy Policy
}

// Queue is a FIFO connecting one producer side (pushes never reorder) to
// one consumer goroutine, optionally bounded with an overflow Policy. It is
// the core under Inbox (events) and the RPC push dispatchers (encoded
// payloads). Pushes signal the consumer; a bounded Block queue additionally
// parks pushers until the consumer frees space.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	q        []T
	head     int
	capacity int
	policy   Policy
	closed   bool
	failed   bool
	dropped  atomic.Uint64
	// consumed counts elements handed to the consumer, incremented under
	// mu in the same critical section that removes them — so an observer
	// seeing Len() == 0 and Consumed() unchanged knows nothing is in
	// flight between the queue and the consumer.
	consumed uint64
}

// NewQueue returns an empty open queue.
func NewQueue[T any](opts QueueOpts) *Queue[T] {
	q := &Queue[T]{}
	q.init(opts)
	return q
}

// init prepares a zero Queue in place (used by Inbox, which embeds one).
func (q *Queue[T]) init(opts QueueOpts) {
	q.capacity = opts.Capacity
	q.policy = opts.Policy
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
}

// sizeLocked returns the number of queued elements. Callers hold q.mu.
func (q *Queue[T]) sizeLocked() int { return len(q.q) - q.head }

// dropLocked evicts the n oldest queued elements. Callers hold q.mu.
func (q *Queue[T]) dropLocked(n int) {
	var zero T
	for i := 0; i < n; i++ {
		q.q[q.head] = zero
		q.head++
	}
	q.dropped.Add(uint64(n))
	q.compactLocked()
}

// compactLocked reclaims the consumed prefix of the backing array once it
// dominates the queue. Callers hold q.mu.
func (q *Queue[T]) compactLocked() {
	if q.head > 256 && q.head*2 >= len(q.q) {
		q.q = append(q.q[:0], q.q[q.head:]...)
		q.head = 0
	}
}

// failLocked closes the queue under the Fail policy. Callers hold q.mu;
// both conditions are broadcast so parked pushers and the consumer wake.
func (q *Queue[T]) failLocked() {
	q.failed = true
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Push enqueues one element, applying the overflow policy when the queue is
// bounded and full. It reports whether the element was accepted: false
// means the queue was closed (or failed) — under Fail, the overflowing push
// itself is the one rejected.
func (q *Queue[T]) Push(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.capacity > 0 && q.sizeLocked() >= q.capacity {
		switch q.policy {
		case Block:
			for q.sizeLocked() >= q.capacity && !q.closed {
				q.notFull.Wait()
			}
			if q.closed {
				q.mu.Unlock()
				return false
			}
		case DropOldest:
			q.dropLocked(q.sizeLocked() - q.capacity + 1)
		case Fail:
			q.dropped.Add(1)
			q.failLocked()
			q.mu.Unlock()
			return false
		}
	}
	q.q = append(q.q, v)
	q.mu.Unlock()
	q.notEmpty.Signal()
	return true
}

// PushBatch enqueues a run of elements under one lock acquisition with one
// consumer signal — the batch analogue of Push. FIFO order within the run
// is preserved; under Block, a run larger than the remaining space is
// enqueued in chunks as the consumer frees room (the consumer is signalled
// before each wait, so it can run while the pusher parks). It reports
// whether every element was accepted; under DropOldest the run itself is
// accepted in full (older queued elements are evicted, and a run larger
// than the whole capacity keeps only its newest elements).
func (q *Queue[T]) PushBatch(vs []T) bool {
	if len(vs) == 0 {
		return true
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.capacity > 0 {
		switch q.policy {
		case Block:
			for len(vs) > 0 {
				for q.sizeLocked() >= q.capacity && !q.closed {
					q.notEmpty.Signal()
					q.notFull.Wait()
				}
				if q.closed {
					// Elements of earlier chunks are already enqueued and
					// will reach the consumer (or its close-time drain); the
					// unenqueued remainder is rejected.
					q.mu.Unlock()
					return false
				}
				n := q.capacity - q.sizeLocked()
				if n > len(vs) {
					n = len(vs)
				}
				q.q = append(q.q, vs[:n]...)
				vs = vs[n:]
			}
			q.mu.Unlock()
			q.notEmpty.Signal()
			return true
		case DropOldest:
			if len(vs) >= q.capacity {
				// The run alone overflows the queue: everything queued and
				// the run's own oldest elements are the drop. Zero the
				// whole backing array so the discarded elements are not
				// pinned by it.
				q.dropped.Add(uint64(q.sizeLocked() + len(vs) - q.capacity))
				var zero T
				for i := range q.q {
					q.q[i] = zero
				}
				q.q = q.q[:0]
				q.head = 0
				vs = vs[len(vs)-q.capacity:]
			} else if over := q.sizeLocked() + len(vs) - q.capacity; over > 0 {
				q.dropLocked(over)
			}
		case Fail:
			if q.sizeLocked()+len(vs) > q.capacity {
				q.dropped.Add(uint64(len(vs)))
				q.failLocked()
				q.mu.Unlock()
				return false
			}
		}
	}
	q.q = append(q.q, vs...)
	q.mu.Unlock()
	q.notEmpty.Signal()
	return true
}

// Pop blocks until an element is available and returns it; ok is false once
// the queue is closed and drained.
func (q *Queue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.q) && !q.closed {
		q.notEmpty.Wait()
	}
	var zero T
	if q.head >= len(q.q) {
		return zero, false
	}
	v := q.q[q.head]
	q.q[q.head] = zero
	q.head++
	q.consumed++
	q.compactLocked()
	if q.capacity > 0 {
		// Only a bounded Block push ever waits on notFull; skip the
		// broadcast on the unbounded drain hot path.
		q.notFull.Broadcast()
	}
	return v, true
}

// PopBatch blocks until at least one element is available, then moves a run
// of up to max queued elements (max <= 0 means all) into buf — reusing its
// backing array — and returns it. Passing buf transfers ownership of its
// ENTIRE capacity: every slot up to cap(buf) is cleared on entry (so a
// consumer parked here does not pin its previous batch), so never pass a
// subslice whose backing array still holds elements in use. ok is false
// once the queue is closed and drained.
func (q *Queue[T]) PopBatch(max int, buf []T) ([]T, bool) {
	// Release the caller's previous batch before potentially parking in
	// Wait: a reused buffer must not keep the last run reachable while the
	// consumer sits idle.
	var zero T
	for i, full := 0, buf[:cap(buf)]; i < len(full); i++ {
		full[i] = zero
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.q) && !q.closed {
		q.notEmpty.Wait()
	}
	n := len(q.q) - q.head
	if n == 0 {
		return nil, false
	}
	if max > 0 && n > max {
		n = max
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, q.q[q.head])
		q.q[q.head] = zero
		q.head++
	}
	q.consumed += uint64(n)
	q.compactLocked()
	if q.capacity > 0 {
		// Only a bounded Block push ever waits on notFull; skip the
		// broadcast on the unbounded drain hot path.
		q.notFull.Broadcast()
	}
	return buf, true
}

// TryPop returns the next element without blocking; ok is false if none is
// queued.
func (q *Queue[T]) TryPop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.head >= len(q.q) {
		return zero, false
	}
	v := q.q[q.head]
	q.q[q.head] = zero
	q.head++
	q.consumed++
	q.compactLocked()
	if q.capacity > 0 {
		// Only a bounded Block push ever waits on notFull; skip the
		// broadcast on the unbounded drain hot path.
		q.notFull.Broadcast()
	}
	return v, true
}

// Consumed returns the number of elements popped so far, counted
// atomically with their removal: Len() == 0 with an unchanged Consumed()
// means no element sits unprocessed between queue and consumer.
func (q *Queue[T]) Consumed() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.consumed
}

// Len returns the number of queued elements (the queue depth).
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sizeLocked()
}

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.capacity }

// Dropped returns the number of elements lost to DropOldest eviction or
// rejected by a Fail overflow.
func (q *Queue[T]) Dropped() uint64 { return q.dropped.Load() }

// Failed reports whether a Fail-policy overflow closed the queue.
func (q *Queue[T]) Failed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.failed
}

// Close marks the queue closed and wakes the consumer and any parked
// pushers. Pending elements may still be drained with Pop; Push becomes a
// no-op returning false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
