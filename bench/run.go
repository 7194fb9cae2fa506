package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	datadir  string
	breakIt  bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run learned.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string // failed correctness gates; empty means correct
	spans     []span
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// rounds is how many times the sat and the paced phase alternate. The
// reference box runs at one of two speeds some 15 % apart and switches
// every few seconds; interleaving lets both phases sample the whole run
// instead of one phase catching the slow stretch.
const rounds = 5

// phaseLengths splits -seconds two to three between the sat and the
// paced phase; warm-up is extra and untimed. The paced phase gets the
// larger share because its latencies follow the box's speed of the
// moment, which only more seconds average out.
func phaseLengths(seconds int) (warm, sat, paced time.Duration) {
	total := time.Duration(seconds) * time.Second
	sat = total * 2 / 5
	return min(2*time.Second, total/4), sat, total - sat
}

// setupRepeats is how many times set-up runs; setup_s is their midmean.
// A set-up is a few milliseconds, most of them sleeps of the idle-wait
// loops that the runtime rounds to a millisecond each, so single set-ups
// land a millisecond or more apart and a median of few jumps with them.
const setupRepeats = 45

func runWorkload(def workloadDef, opt options) (*report, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	env := &env{in: generate(opt.seed), breakIt: opt.breakIt}
	env.tmpBase = opt.datadir
	if env.tmpBase == "" {
		env.tmpBase = filepath.Join(root, ".bench_build", "tmp")
	}
	if env.cachedBin, err = buildCached(root); err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]metric{}}
	if def.verify != nil {
		rep.failures = append(rep.failures, def.verify(env)...)
	}
	runtime.GC()

	// Set-up: SUT start until tables exist, subscribers are registered,
	// preload is done and one probe cycle per producer is notified.
	repeats := setupRepeats
	if opt.trace {
		repeats = 1
	}
	var s *sut
	var setups []float64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
			// Every set-up starts from the same heap; 44 dead engines left to
			// the collector's own pace also move peak_rss_mb by a quarter.
			runtime.GC()
		}
		start := time.Now()
		if s, err = def.setup(env); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for _, p := range s.producers {
			for c := 0; c < max(1, s.cycle); c++ {
				if _, err := p.call(now()); err != nil {
					return nil, fmt.Errorf("set-up probe: %w", err)
				}
			}
		}
		if missing := s.drain(10 * time.Second); missing != 0 {
			return nil, fmt.Errorf("set-up probe: %d notifications missing", missing)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	warm, sat, paced := phaseLengths(opt.seconds)
	s.phase(warm, 0)
	s.drain(10 * time.Second)

	var measured []window // every window whose calls count as attempted
	if opt.trace {
		measured = tracedRun(def, s, rep, sat)
	} else {
		rep.set("setup_s", midmean(setups), "s")
		measured = untracedRun(def, s, rep, sat, paced)
	}

	// Gates common to every workload.
	_, calls, failed := s.events(measured)
	rep.attempted += calls
	rep.failed += failed
	for _, sub := range s.subs {
		if sub.isWatch {
			if sub.gaps != 0 {
				rep.fail("%s: Seq not contiguous from 1 in order (%d breaks)", sub.name, sub.gaps)
			}
			want := sub.want.Load()
			if opt.breakIt {
				want++
			}
			if miss := want - sub.seen.Load(); miss != 0 {
				rep.fail("%s: %d events never notified", sub.name, miss)
				rep.failed += int(miss)
			}
		}
	}
	if dropped := s.dropped(); dropped != 0 {
		rep.fail("subscriptions dropped %d events", dropped)
		rep.failed += int(dropped)
	}
	if n := s.rtErrs.Load(); n != 0 {
		rep.fail("%d automaton runtime errors", n)
	}
	if s.check != nil {
		rep.failures = append(rep.failures, s.check()...)
	}
	if opt.trace && def.name == "durable-readwrite" {
		secs, bad := recoverDurable(s)
		rep.set("recover_s", secs, "s")
		rep.failures = append(rep.failures, bad...)
	}
	if opt.trace {
		s.close()
		layerReplay(env, def, rep)
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, 0, m.unit) // does not apply to this workload
			}
		}
		rep.set("failed_ratio", float64(rep.failed+len(rep.failures))/float64(max(1, rep.attempted)), "ratio")
	}
	rep.failed += len(rep.failures)
	return rep, nil
}

// untracedRun is the run every end-to-end metric comes from: rounds
// times a slice of the sat phase (closed loop) then a slice of the paced
// phase (open loop), each followed by a drain, with nothing else running
// in the bench process.
func untracedRun(def workloadDef, s *sut, rep *report, sat, paced time.Duration) (measured []window) {
	var sats, paceds []window
	var cpu time.Duration
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := s.cpu()
		sats = append(sats, s.phase(sat/rounds, 0))
		cpu += s.cpu() - cpu0
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		s.drain(10 * time.Second)

		pw := s.phase(paced/rounds, def.pacedCalls)
		paceds = append(paceds, pw)
		if missing := s.drain(10 * time.Second); missing != 0 {
			rep.fail("%d notifications missing at the drain of paced window %d", missing, r+1)
		}
		if growing, calls := backlogGrowing(s.producers, pw); growing {
			rep.fail("paced window %d: backlog still growing in the last quarter (%d calls counted failed)", r+1, calls)
			rep.failed += calls
		}
	}
	events, _, _ := s.events(sats)
	rep.set("events_per_s", s.eventsPerSec(sats), "1/s")
	rep.set("cpu_us_per_event", float64(cpu.Microseconds())/float64(max(1, events)), "us")
	rep.set("allocs_per_event", float64(mallocs)/float64(max(1, events)), "count")
	n50, _, _ := s.notify(paceds, whole)
	rep.set("notify_p50_us", n50, "us")
	rss, err := peakRSSMB(s.pid())
	if err != nil {
		rep.fail("peak rss: %v", err)
	}
	rep.set("peak_rss_mb", rss, "MB")
	return append(sats, paceds...)
}

// tracedRun re-runs the workload for shorter fixed windows with the
// Stats poller on and every record kept as spans: an untraced and a
// traced closed-loop window (their ratio is the tracing overhead), then
// a traced open-loop window the engine.* split is computed from.
func tracedRun(def workloadDef, s *sut, rep *report, phase time.Duration) (measured []window) {
	short := phase / 3
	plain := s.phase(short, 0)
	s.drain(10 * time.Second)

	stop := make(chan struct{})
	var poll sync.WaitGroup
	var depthMax int
	poll.Add(1)
	go func() {
		defer poll.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depthMax = max(depthMax, s.depth())
			}
		}
	}()
	traced := s.phase(short, 0)
	s.drain(10 * time.Second)
	pw := s.phase(phase/2, def.pacedCalls)
	if missing := s.drain(10 * time.Second); missing != 0 {
		rep.fail("%d notifications missing at the final drain", missing)
	}
	close(stop)
	poll.Wait()
	if growing, calls := backlogGrowing(s.producers, pw); growing {
		rep.fail("paced window: backlog still growing in the last quarter (%d calls counted failed)", calls)
		rep.failed += calls
	}

	pws := []window{pw}
	pre, _, samples := s.notify(pws, precommit)
	post, _, _ := s.notify(pws, postcommit)
	rep.set("engine.precommit_us_p50", pre, "us")
	rep.set("engine.postcommit_us_p50", post, "us")
	ack := callLatency(s.producers, pws)
	rep.set("engine.ack_us_p50", ack.over(p50), "us")
	rep.set("commit_p50_us", ack.over(p50), "us")
	rep.set("commit_p99_us", ack.over(p99), "us")
	_, n99, _ := s.notify(pws, whole)
	rep.set("notify_p99_us", n99, "us")
	rep.set("bench.gen_lag_us_p99", percentile(genLag(s.producers, pws), 0.99), "us")
	rep.set("bench.trace_overhead_ratio",
		s.eventsPerSec([]window{traced})/s.eventsPerSec([]window{plain}), "ratio")
	rep.set("bench.samples", float64(samples), "count")
	rep.set("pubsub.depth_max", float64(depthMax), "count")
	rep.set("pubsub.dropped", float64(s.dropped()), "count")
	rep.set("vm.runtime_errors", float64(s.rtErrs.Load()), "count")
	rep.set("tenant.refused", float64(s.refused()), "count")
	if s.reader != nil {
		q := callLatency([]*producer{s.reader}, pws)
		rep.set("query_p50_us", q.over(p50), "us")
		rep.set("query_p99_us", q.over(p99), "us")
	}
	rep.spans = append(rep.spans, s.spans(pw)...)
	return []window{plain, traced, pw}
}

// depth is the deepest subscription inbox right now.
func (s *sut) depth() (deepest int) {
	for _, e := range s.engines {
		st, err := e.Stats()
		if err != nil {
			continue
		}
		for _, w := range st.Watches {
			deepest = max(deepest, w.Depth)
		}
		for _, a := range st.Automata {
			deepest = max(deepest, a.Depth)
		}
	}
	return deepest
}

// dropped sums the dropped-event counters of every subscription.
func (s *sut) dropped() (n uint64) {
	for _, e := range s.engines {
		st, err := e.Stats()
		if err != nil {
			continue
		}
		for _, w := range st.Watches {
			n += w.Dropped
		}
		for _, a := range st.Automata {
			n += a.Dropped
		}
	}
	return n
}

// refused sums the tenants' quota refusals (0 without tenants).
func (s *sut) refused() (n uint64) {
	for _, e := range s.engines {
		if st, err := e.Stats(); err == nil && st.Tenant != nil {
			n += st.Tenant.Rejected
		}
	}
	return n
}
