package pubsub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicache/internal/types"
)

// --- overflow policies -----------------------------------------------------

func TestInboxBlockPolicyParksPublisher(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 2, Policy: Block})
	in.Deliver(mkEvent(t, "T", 1))
	in.Deliver(mkEvent(t, "T", 2))

	delivered := make(chan struct{})
	go func() {
		in.Deliver(mkEvent(t, "T", 3)) // full: must park until a Pop
		close(delivered)
	}()
	select {
	case <-delivered:
		t.Fatal("Deliver into a full Block inbox returned without a consumer")
	case <-time.After(20 * time.Millisecond):
	}
	if ev, ok := in.Pop(); !ok || ev.Tuple.Seq != 1 {
		t.Fatalf("Pop = %v, %v", ev, ok)
	}
	select {
	case <-delivered:
	case <-time.After(2 * time.Second):
		t.Fatal("parked Deliver did not resume after Pop freed space")
	}
	for want := uint64(2); want <= 3; want++ {
		if ev, ok := in.Pop(); !ok || ev.Tuple.Seq != want {
			t.Fatalf("Pop = %v, %v (want seq %d)", ev, ok, want)
		}
	}
	if in.Dropped() != 0 {
		t.Errorf("Block dropped %d events", in.Dropped())
	}
}

func TestInboxBlockBatchLargerThanCapacity(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 4, Policy: Block})
	const n = 50
	done := make(chan struct{})
	go func() {
		in.DeliverBatch(mkBatch(t, "T", 1, n)) // absorbed in chunks
		close(done)
	}()
	for i := uint64(1); i <= n; i++ {
		ev, ok := in.Pop()
		if !ok || ev.Tuple.Seq != i {
			t.Fatalf("Pop %d = %v, %v", i, ev, ok)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("chunked DeliverBatch never completed")
	}
}

func TestInboxCloseWakesParkedPublisher(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 1, Policy: Block})
	in.Deliver(mkEvent(t, "T", 1))
	done := make(chan struct{})
	go func() {
		in.Deliver(mkEvent(t, "T", 2))
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	in.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the parked publisher")
	}
}

func TestInboxDropOldest(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 3, Policy: DropOldest})
	for i := uint64(1); i <= 10; i++ {
		in.Deliver(mkEvent(t, "T", i))
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	if in.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", in.Dropped())
	}
	// The survivors are the newest, still in order.
	for want := uint64(8); want <= 10; want++ {
		ev, ok := in.TryPop()
		if !ok || ev.Tuple.Seq != want {
			t.Fatalf("TryPop = %v, %v (want seq %d)", ev, ok, want)
		}
	}
}

func TestInboxDropOldestBatch(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 4, Policy: DropOldest})
	in.DeliverBatch(mkBatch(t, "T", 1, 3))
	// Run overflows the remaining space: the 3 queued events make room.
	in.DeliverBatch(mkBatch(t, "T", 4, 3))
	if got := in.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	for want := uint64(3); want <= 6; want++ {
		ev, ok := in.TryPop()
		if !ok || ev.Tuple.Seq != want {
			t.Fatalf("TryPop = %v, %v (want seq %d)", ev, ok, want)
		}
	}
	// A run larger than the whole capacity keeps only its newest events.
	in.DeliverBatch(mkBatch(t, "T", 10, 9))
	if in.Len() != 4 {
		t.Fatalf("Len = %d, want 4", in.Len())
	}
	for want := uint64(15); want <= 18; want++ {
		ev, ok := in.TryPop()
		if !ok || ev.Tuple.Seq != want {
			t.Fatalf("TryPop = %v, %v (want seq %d)", ev, ok, want)
		}
	}
}

func TestInboxFailPolicyClosesOnOverflow(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 2, Policy: Fail})
	in.Deliver(mkEvent(t, "T", 1))
	in.Deliver(mkEvent(t, "T", 2))
	if in.Failed() {
		t.Fatal("inbox failed before overflowing")
	}
	in.Deliver(mkEvent(t, "T", 3)) // overflow: rejected, inbox closes
	if !in.Failed() {
		t.Fatal("overflow did not fail the inbox")
	}
	// What was queued before the overflow still drains, then closure.
	for want := uint64(1); want <= 2; want++ {
		ev, ok := in.Pop()
		if !ok || ev.Tuple.Seq != want {
			t.Fatalf("Pop = %v, %v (want seq %d)", ev, ok, want)
		}
	}
	if _, ok := in.Pop(); ok {
		t.Fatal("Pop after fail+drain should report closed")
	}
	if in.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1 (the rejected event)", in.Dropped())
	}
}

// --- generic queue ---------------------------------------------------------

func TestQueuePushPopGeneric(t *testing.T) {
	q := NewQueue[string](QueueOpts{})
	if !q.PushBatch([]string{"a", "b"}) || !q.Push("c") {
		t.Fatal("push into open queue failed")
	}
	for _, want := range []string{"a", "b", "c"} {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %q, %v (want %q)", got, ok, want)
		}
	}
	q.Close()
	if q.Push("d") {
		t.Fatal("push after close should report false")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after close+drain should report closed")
	}
}

// --- dispatcher ------------------------------------------------------------

func TestDispatcherDeliversInOrder(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("T"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint64
	in := NewInboxWith(QueueOpts{Capacity: 64, Policy: Block})
	d := NewDispatcher(in, func(ev *types.Event) {
		mu.Lock()
		seqs = append(seqs, ev.Tuple.Seq)
		mu.Unlock()
	}, DispatcherConfig{})
	if err := b.Subscribe(1, "T", d.Inbox()); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := uint64(1); i <= n; i += 5 {
		if err := b.PublishBatch(mkBatch(t, "T", i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(seqs)
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatched %d of %d events", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("commit order violated at %d: seq %d", i, s)
		}
	}
	b.Unsubscribe(1)
	d.Stop()
}

// TestDispatcherStopDiscardsQueued pins the unsubscription contract: Stop
// must return promptly with events still queued, and the callback must
// never run after Stop returns. Run with -race.
func TestDispatcherStopDiscardsQueued(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	in := NewInbox()
	d := NewDispatcher(in, func(*types.Event) {
		calls.Add(1)
		<-gate // every call parks until the test feeds it a token
	}, DispatcherConfig{})
	in.DeliverBatch(mkBatch(t, "T", 1, 100))

	// Wait for the dispatcher to park inside the first callback, then stop
	// while it is in flight. Stop sets its flag before anything else, so
	// once the parked callback is released the dispatcher abandons the
	// other 99 queued events; tokens are fed one at a time so a straggling
	// flag costs at most an extra delivery or two, never the whole queue.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never reached the callback")
		}
		time.Sleep(time.Millisecond)
	}
	stopDone := make(chan struct{})
	go func() { d.Stop(); close(stopDone) }()
release:
	for {
		select {
		case gate <- struct{}{}: // release one in-flight callback
			time.Sleep(time.Millisecond)
		case <-stopDone:
			break release
		}
	}
	n := calls.Load()
	if n >= 100 {
		t.Fatal("Stop drained the whole queue instead of discarding")
	}
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != n {
		t.Fatalf("callback ran after Stop returned: %d -> %d", n, calls.Load())
	}
}

// TestDispatcherStopReleasesQueuedEvents: events still queued when the
// dispatcher stops are drained out of the closed inbox by Stop, and the
// processed counter absorbs them so Depth and Busy report idle.
func TestDispatcherStopReleasesQueuedEvents(t *testing.T) {
	in := NewInbox()
	block := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	d := NewDispatcher(in, func(*types.Event) {
		once.Do(func() { close(started) })
		<-block
	}, DispatcherConfig{})
	for _, ev := range mkBatch(t, "T", 1, 8) {
		in.Deliver(ev)
	}
	<-started // the first event is in the callback; the rest are queued
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	d.Stop()
	if n := d.Depth(); n != 0 {
		t.Errorf("stopped dispatcher depth = %d, want 0", n)
	}
	if d.Busy() {
		t.Error("stopped dispatcher should not report busy")
	}
}

func TestDispatcherOnFailRunsOnce(t *testing.T) {
	in := NewInboxWith(QueueOpts{Capacity: 1, Policy: Fail})
	var entered sync.Once
	enteredCh := make(chan struct{})
	gate := make(chan struct{})
	failed := make(chan struct{})
	var d *Dispatcher
	d = NewDispatcher(in, func(*types.Event) {
		entered.Do(func() { close(enteredCh) })
		<-gate
	}, DispatcherConfig{
		OnFail: func() {
			d.Stop() // OnFail may Stop: it runs off the dispatcher goroutine
			close(failed)
		},
	})
	in.Deliver(mkEvent(t, "T", 1))
	<-enteredCh                    // dispatcher parked in the callback, queue empty
	in.Deliver(mkEvent(t, "T", 2)) // queued: fills the 1-slot inbox
	in.Deliver(mkEvent(t, "T", 3)) // overflow: fails the inbox
	if !in.Failed() {
		t.Fatal("inbox did not fail on overflow")
	}
	close(gate)
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnFail never ran after a Fail overflow")
	}
}
