package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unicache"
)

func now() int64 { return time.Now().UnixNano() }

// callRec is one façade call the harness made: when it was due, when
// its latency clock started (see producer.loop), when it was sent, when
// it returned, and how many events it committed (0 for a query).
type callRec struct {
	due, start, send, ret int64
	events                int
	failed                bool
}

// noteRec is one notification that reached application code: the
// generator stamp t0 of the last contributing event, the commit stamp
// the system gave that event, and the arrival time.
type noteRec struct{ t0, ts, at int64 }

// subscriber is one notification path of a workload: a watch tap (which
// also counts and order-checks every event of its topic) or the Events
// channel of an automaton.
type subscriber struct {
	name string

	mu    sync.Mutex
	notes []noteRec

	// Watch taps only.
	isWatch bool
	want    atomic.Int64 // events committed to the tap's topic
	seen    atomic.Int64 // events the callback received
	lastSeq uint64
	gaps    int64 // Seq not contiguous from 1, in order
}

func (s *subscriber) record(t0, ts, at int64) {
	s.mu.Lock()
	s.notes = append(s.notes, noteRec{t0, ts, at})
	s.mu.Unlock()
}

// onEvent is the watch callback: it checks that Seq is contiguous from 1
// and samples one notification in every sampleEvery events.
func (s *subscriber) onEvent(t0col int, sampleEvery uint64) func(*unicache.Event) {
	s.isWatch = true
	return func(ev *unicache.Event) {
		seq := ev.Tuple.Seq
		if seq != s.lastSeq+1 {
			s.gaps++
		}
		s.lastSeq = seq
		if seq%sampleEvery == 0 {
			t0, _ := ev.Tuple.Vals[t0col].NumAsInt()
			s.record(t0, int64(ev.Tuple.TS), now())
		}
		s.seen.Add(1)
	}
}

// drainSends receives an automaton's notifications until its Events
// channel closes. Every workload's programs send (t0, commit stamp, ...).
func (s *subscriber) drainSends(a unicache.Automaton, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for vals := range a.Events() {
			at := now()
			t0, _ := vals[0].NumAsInt()
			ts, _ := vals[1].NumAsInt()
			s.record(t0, ts, at)
		}
	}()
}

// producer is one load-generating goroutine: call performs its next
// façade call with rows stamped t0 and reports the events committed.
type producer struct {
	call  func(t0 int64) (events int, err error)
	calls []callRec
}

// loop issues calls until end. interval 0 is the closed loop (send the
// next call when the previous returns); otherwise call i is due at
// begin+offset+i*interval whether or not the system keeps up.
//
// A call's latency clock (and the t0 stamped on its rows) starts at its
// due time whenever the previous call had not returned by then, so every
// latency counts the wait a stall imposes on later calls. When the
// generator was idle at the due time, the clock starts at the send: what
// lies between is the sleeping thread's own wake-up lateness (30 µs and
// more on the reference VM, as much as an in-process commit), which is
// the harness's, not the system's. bench.gen_lag_us_p99 reports due→send
// either way.
func (p *producer) loop(begin, end, offset, interval int64) {
	if interval > 0 {
		// Sub-millisecond sleeps need a thread with no timer slack;
		// time.Sleep rounds up to the netpoller's millisecond.
		runtime.LockOSThread()
		setTimerSlack(1)
		defer func() {
			setTimerSlack(50_000)
			runtime.UnlockOSThread()
		}()
	}
	var prevRet int64
	for i := int64(0); ; i++ {
		var due, start, send int64
		if interval > 0 {
			due = begin + offset + i*interval
			if due >= end {
				return
			}
			sleepUntil(due)
			send = now()
			start = due
			if prevRet < due {
				start = send
			}
		} else {
			send = now()
			if send >= end {
				return
			}
			due, start = send, send
		}
		n, err := p.call(start)
		prevRet = now()
		p.calls = append(p.calls, callRec{due: due, start: start, send: send, ret: prevRet, events: n, failed: err != nil})
		if err != nil {
			fmt.Fprintln(os.Stderr, "call failed:", err)
		}
	}
}

const prSetTimerSlack = 29

func setTimerSlack(ns uintptr) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// sut is one live system under test as a workload set it up.
type sut struct {
	engines   []unicache.Engine
	producers []*producer
	reader    *producer // issues queries at readerRate in every phase; nil if the workload has none
	subs      []*subscriber
	srv       *server // nil for embedded workloads
	rtErrs    atomic.Int64
	drainers  sync.WaitGroup
	// cycle is how many calls take a producer once through its call
	// pattern (the set-up probe sends one cycle); 0 means 1.
	cycle int
	// check, if set, returns the workload's own correctness failures
	// after the last drain.
	check func() []string
}

// readerRate is the fixed query rate of a workload that reads, in both
// phases.
const readerRate = 200

type window struct{ start, end int64 }

// phase runs every producer for d: closed loop when callsPerSec is 0,
// else an open loop at that total call rate split across producers.
func (s *sut) phase(d time.Duration, callsPerSec float64) window {
	w := window{start: now()}
	w.end = w.start + int64(d)
	var wg sync.WaitGroup
	run := func(p *producer, offset, interval int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.loop(w.start, w.end, offset, interval)
		}()
	}
	for i, p := range s.producers {
		var interval int64
		if callsPerSec > 0 {
			interval = int64(float64(len(s.producers)) * 1e9 / callsPerSec)
		}
		run(p, int64(i)*interval/int64(len(s.producers)), interval)
	}
	if s.reader != nil {
		run(s.reader, 0, int64(time.Second)/readerRate)
	}
	wg.Wait()
	return w
}

// drain waits until every watch tap has seen every committed event of
// its topic and every engine's automata are idle, and returns how many
// events are still missing when the timeout passes.
func (s *sut) drain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		var missing int64
		for _, sub := range s.subs {
			if sub.isWatch {
				missing += sub.want.Load() - sub.seen.Load()
			}
		}
		if missing == 0 {
			idle := true
			for _, e := range s.engines {
				idle = idle && unicache.WaitIdle(e, time.Until(deadline))
			}
			if idle {
				return 0
			}
		}
		if time.Now().After(deadline) {
			if missing == 0 {
				missing = 1 // automata never went idle
			}
			return missing
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *sut) close() {
	for _, e := range s.engines {
		_ = e.Close()
	}
	s.drainers.Wait()
	if s.srv != nil {
		s.srv.kill()
	}
}

// pid is the process whose CPU and memory are the SUT's: the spawned
// cached, or the bench process itself for an embedded engine.
func (s *sut) pid() int {
	if s.srv != nil {
		return s.srv.pid()
	}
	return syscall.Getpid()
}

func (s *sut) cpu() time.Duration {
	if s.srv != nil {
		d, _ := procCPU(s.srv.pid())
		return d
	}
	return selfCPU()
}

// --- post-hoc analysis -----------------------------------------------------

// inAny reports whether t falls inside one of the windows.
func inAny(ws []window, t int64) bool {
	for _, w := range ws {
		if t >= w.start && t < w.end {
			return true
		}
	}
	return false
}

// eventsPerSec is the midmean slice rate of events committed (call
// returned) inside ws. Every subscriber sits behind a bounded Block
// inbox, so commits cannot run ahead of any subscriber by more than its
// inbox depth, and the drain after each window checks none was lost.
func (s *sut) eventsPerSec(ws []window) float64 {
	sl := newSliced(ws)
	for _, p := range s.producers {
		for _, c := range p.calls {
			if !c.failed {
				sl.add(c.ret, float64(c.events))
			}
		}
	}
	return sl.over(sum) / (float64(sl.width) / 1e9)
}

// events counts what was due inside ws: events committed, calls made
// (queries included) and calls that failed.
func (s *sut) events(ws []window) (events, calls, failed int) {
	ps := s.producers
	if s.reader != nil {
		ps = append(ps[:len(ps):len(ps)], s.reader)
	}
	for _, p := range ps {
		for _, c := range p.calls {
			if inAny(ws, c.due) {
				calls++
				events += c.events
				if c.failed {
					failed++
				}
			}
		}
	}
	return
}

// callLatency buckets clock start→return (µs) of the calls due inside ws.
func callLatency(ps []*producer, ws []window) *sliced {
	sl := newSliced(ws)
	for _, p := range ps {
		for _, c := range p.calls {
			sl.add(c.due, float64(c.ret-c.start)/1e3)
		}
	}
	return sl
}

// genLag collects due→send (µs): how late the generator itself ran.
func genLag(ps []*producer, ws []window) []float64 {
	var lag []float64
	for _, p := range ps {
		for _, c := range p.calls {
			if inAny(ws, c.due) {
				lag = append(lag, float64(c.send-c.due)/1e3)
			}
		}
	}
	return lag
}

// noteLatency buckets one subscriber's notifications whose t0 falls in
// ws by part: the whole t0→arrival, or its pre-/post-commit share.
func (sub *subscriber) noteLatency(ws []window, part func(noteRec) int64) *sliced {
	sl := newSliced(ws)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for _, n := range sub.notes {
		sl.add(n.t0, float64(part(n))/1e3)
	}
	return sl
}

func whole(n noteRec) int64      { return n.at - n.t0 }
func precommit(n noteRec) int64  { return n.ts - n.t0 }
func postcommit(n noteRec) int64 { return n.at - n.ts }

// notify reduces the per-subscriber latencies to the workload's two
// numbers: every subscriber counts equally whatever its notification
// rate, so p50 is the mean of the subscribers' medians and p99 is the
// slowest subscriber's p99.
func (s *sut) notify(ws []window, part func(noteRec) int64) (p50us, p99us float64, samples int) {
	var p50s, p99s []float64
	for _, sub := range s.subs {
		sl := sub.noteLatency(ws, part)
		if sl.count() == 0 {
			continue
		}
		samples += sl.count()
		p50s = append(p50s, sl.over(p50))
		p99s = append(p99s, sl.over(p99))
	}
	return mean(p50s), maxOf(p99s), samples
}

// backlogGrowing reports whether the calls due but not yet returned
// kept growing through the second half of an open-loop window: over the
// third quarter and again over the last, each time by more than 1 % of a
// quarter's calls. One stall near the end of a window, from which the
// generator catches up, grows the backlog in one quarter only.
func backlogGrowing(ps []*producer, w window) (growing bool, quarterCalls int) {
	quarter := (w.end - w.start) / 4
	at := func(t int64) (backlog int) {
		for _, p := range ps {
			for _, c := range p.calls {
				if c.due >= w.start && c.due < t && c.ret > t {
					backlog++
				}
			}
		}
		return
	}
	for _, p := range ps {
		for _, c := range p.calls {
			if c.due >= w.end-quarter && c.due < w.end {
				quarterCalls++
			}
		}
	}
	half, q3, end := at(w.end-2*quarter), at(w.end-quarter), at(w.end-1)
	threshold := max(2, quarterCalls/100)
	return q3-half > threshold && end-q3 > threshold, quarterCalls
}
