// Benchmarks regenerating the paper's evaluation (§6), one bench per
// measured table/figure, plus ablations of the design decisions DESIGN.md
// calls out. cmd/benchrunner prints the same experiments in the paper's
// row/series form; these testing.B targets expose them to `go test -bench`.
package unicache

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unicache/internal/automaton"
	"unicache/internal/cache"
	"unicache/internal/cayuga"
	"unicache/internal/experiments"
	"unicache/internal/gapl"
	"unicache/internal/pubsub"
	"unicache/internal/rpc"
	"unicache/internal/types"
	"unicache/internal/vm"
	"unicache/internal/workload"
)

// --- Fig. 7: cost of built-in functions ---------------------------------

// benchHost is a no-op vm.Host for microbenchmarks.
type benchHost struct {
	clock types.Timestamp
	sunk  int
}

func (h *benchHost) Now() types.Timestamp { h.clock++; return h.clock }
func (h *benchHost) Publish(string, []types.Value) error {
	h.sunk++
	return nil
}
func (h *benchHost) Send([]types.Value) error { h.sunk++; return nil }
func (h *benchHost) Print(string)             {}
func (h *benchHost) AssocLookup(string, string) (types.Value, bool, error) {
	return types.Nil, false, nil
}
func (h *benchHost) AssocInsert(string, string, types.Value) error { return nil }
func (h *benchHost) AssocHas(string, string) (bool, error)         { return false, nil }
func (h *benchHost) AssocRemove(string, string) (bool, error)      { return false, nil }
func (h *benchHost) AssocSize(string) (int, error)                 { return 0, nil }

func benchVM(b *testing.B, src string) (*vm.VM, *types.Event) {
	b.Helper()
	timer, err := types.NewSchema("Timer", false, -1,
		types.Column{Name: "ts", Type: types.ColTstamp})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := gapl.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Bind(map[string]*types.Schema{"Timer": timer}); err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(prog, &benchHost{})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.RunInit(); err != nil {
		b.Fatal(err)
	}
	ev := &types.Event{Topic: "Timer", Schema: timer,
		Tuple: &types.Tuple{Seq: 1, TS: 1, Vals: []types.Value{types.Stamp(1)}}}
	return m, ev
}

// BenchmarkFig7Builtins times one invocation of each measured built-in per
// behaviour execution (the Fig. 6 template with limit = 1).
func BenchmarkFig7Builtins(b *testing.B) {
	for _, bc := range experiments.BuiltinCostCases(1) {
		b.Run(bc.Name, func(b *testing.B) {
			var src strings.Builder
			src.WriteString("subscribe t to Timer;\nint i;\n")
			if bc.Decl != "" {
				src.WriteString(bc.Decl + "\n")
			}
			if bc.Init != "" {
				src.WriteString("initialization {\n" + bc.Init + "\n}\n")
			}
			src.WriteString("behavior {\n")
			if bc.Call != "" {
				src.WriteString(bc.Call + "\n")
			}
			src.WriteString("i += 1;\n}\n")
			m, ev := benchVM(b, src.String())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Deliver(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs. 9/10: delay at scale ------------------------------------------

func delayBench(b *testing.B, automata int) {
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`create table Flows (protocol integer, srcip varchar(16), sport integer,
		dstip varchar(16), dport integer, npkts integer, nbytes integer)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < automata; i++ {
		src := experiments.DelayProbeProgram(fmt.Sprintf("A%d", i), 1<<30)
		if _, err := c.Register(src, automaton.DiscardSink); err != nil {
			b.Fatal(err)
		}
	}
	vals := []types.Value{
		types.Int(6), types.Str("10.0.0.1"), types.Int(1234),
		types.Str("192.168.1.1"), types.Int(80), types.Int(10), types.Int(1500),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Insert("Flows", vals...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !c.Registry().WaitIdle(time.Minute) {
		b.Fatal("automata did not quiesce")
	}
}

// BenchmarkFig9DelayVsAutomata inserts Flows tuples against 1/2/4/8
// subscribed probe automata; ns/op tracks how commit+fan-out cost grows
// with the number of automata.
func BenchmarkFig9DelayVsAutomata(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("automata=%d", n), func(b *testing.B) { delayBench(b, n) })
	}
}

// BenchmarkFig10InsertPath is the Δt-independent cost of the insert path
// with the paper's four automata subscribed (Fig. 10 shows delay is flat
// across insertion rates; the per-insert cost here is that floor).
func BenchmarkFig10InsertPath(b *testing.B) {
	delayBench(b, 4)
}

// --- Figs. 12/13: RPC stress ---------------------------------------------

func stressBench(b *testing.B, intAttrs, strLen int, twoWay bool) {
	c, err := cache.New(cache.Config{
		TimerPeriod: -1,
		// The client tear-down races in-flight echoes; those send failures
		// are expected and must not spam stderr.
		OnRuntimeError: func(int64, error) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var create strings.Builder
	create.WriteString("create table Test (")
	if intAttrs > 0 {
		for i := 0; i < intAttrs; i++ {
			if i > 0 {
				create.WriteString(", ")
			}
			fmt.Fprintf(&create, "a%d integer", i)
		}
	} else {
		create.WriteString("s varchar")
	}
	create.WriteString(")")
	if _, err := c.Exec(create.String()); err != nil {
		b.Fatal(err)
	}
	srv := rpc.NewServer(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()
	cl, err := rpc.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if _, err := cl.Register(experiments.StressProgram(twoWay)); err != nil {
		b.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range cl.Events() {
		}
	}()
	var vals []types.Value
	if intAttrs > 0 {
		for i := 0; i < intAttrs; i++ {
			vals = append(vals, types.Int(int64(i)))
		}
	} else {
		vals = append(vals, types.Str(strings.Repeat("x", strLen)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Insert("Test", vals...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = cl.Close()
	<-drained
}

// BenchmarkFig12IntegerStress is one RPC insert round trip per op, swept
// over the Test schema's integer attribute count, 1-way and 2-way.
func BenchmarkFig12IntegerStress(b *testing.B) {
	for _, way := range []string{"1way", "2way"} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/attrs=%d", way, n), func(b *testing.B) {
				stressBench(b, n, 0, way == "2way")
			})
		}
	}
}

// BenchmarkFig13StringStress sweeps the varchar payload size; the slope
// change past 1024 bytes is the RPC fragmentation boundary.
func BenchmarkFig13StringStress(b *testing.B) {
	for _, way := range []string{"1way", "2way"} {
		for _, n := range []int{10, 100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/bytes=%d", way, n), func(b *testing.B) {
				stressBench(b, 0, n, way == "2way")
			})
		}
	}
}

// --- Figs. 15/16: the frequent-items workload ----------------------------

// BenchmarkFig15ZipfTrace generates and ranks the full-size synthetic
// Homework HTTP trace.
func BenchmarkFig15ZipfTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig15(int64(i+1), workload.HTTPRequests, workload.HTTPHosts)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig16Frequent is per-event cost of the frequent algorithm,
// imperative (Fig. 14) vs built-in (§6.4), at the paper's k range.
func BenchmarkFig16Frequent(b *testing.B) {
	urls, err := types.NewSchema("Urls", false, -1,
		types.Column{Name: "host", Type: types.ColVarchar})
	if err != nil {
		b.Fatal(err)
	}
	trace := workload.HTTPTrace(3, 200_000, workload.HTTPHosts)
	for _, k := range []int{10, 100, 1000} {
		for _, variant := range []struct {
			name string
			src  string
		}{
			{"imperative", experiments.ProgFrequentImperative(k)},
			{"builtin", experiments.ProgFrequentBuiltin(k)},
		} {
			b.Run(fmt.Sprintf("%s/k=%d", variant.name, k), func(b *testing.B) {
				prog, err := gapl.Compile(variant.src)
				if err != nil {
					b.Fatal(err)
				}
				if err := prog.Bind(map[string]*types.Schema{"Urls": urls}); err != nil {
					b.Fatal(err)
				}
				m, err := vm.New(prog, &benchHost{})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.RunInit(); err != nil {
					b.Fatal(err)
				}
				ev := &types.Event{Topic: "Urls", Schema: urls,
					Tuple: &types.Tuple{Vals: []types.Value{types.Nil}}}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.Tuple.Vals[0] = types.Str(trace[i%len(trace)].Host)
					if err := m.Deliver(ev); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Fig. 18: Cache vs Cayuga --------------------------------------------

// BenchmarkFig18 measures per-event processing cost of each engine on each
// stock query over the paper-scale trace.
func BenchmarkFig18(b *testing.B) {
	trace := workload.StockTrace(workload.DefaultStockConfig(42))
	queries := []struct {
		name    string
		sources []string
		cayuga  func() *cayuga.Query
	}{
		{"Q1", []string{experiments.ProgQ1},
			func() *cayuga.Query { return cayuga.PassthroughQuery("Stocks", "T") }},
		{"Q2", []string{experiments.ProgQ2},
			func() *cayuga.Query { return cayuga.DoubleTopQuery("Stocks", "M") }},
		{"Q3", []string{experiments.ProgQ3Detector(2), experiments.ProgQ3Reporter},
			func() *cayuga.Query { return cayuga.RisingRunQuery("Stocks", "Runs", 2) }},
	}
	for _, q := range queries {
		b.Run(q.name+"/cache", func(b *testing.B) {
			rig := experiments.NewStockRig(b, q.sources)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := trace[i%len(trace)]
				if err := rig.Feed(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/cayuga", func(b *testing.B) {
			eng := cayuga.NewEngine()
			if err := eng.Register(q.cayuga()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Process(cayuga.StockEvent(trace[i%len(trace)]))
			}
		})
	}
}

// --- Batch commit pipeline ------------------------------------------------

// batchBenchCache builds a cache with one stream table T and subs drained
// no-op inboxes subscribed to it (the Fig. 9 fan-out shape), returning the
// cache and a stop function.
func batchBenchCache(b *testing.B, subs int) (*cache.Cache, func()) {
	b.Helper()
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Exec(`create table T (v integer)`); err != nil {
		b.Fatal(err)
	}
	inboxes := make([]*pubsub.Inbox, subs)
	for i := range inboxes {
		inboxes[i] = pubsub.NewInbox()
		if err := c.Subscribe(int64(i+1000), "T", inboxes[i]); err != nil {
			b.Fatal(err)
		}
		go func(in *pubsub.Inbox) {
			var buf []*types.Event
			for {
				batch, ok := in.PopBatch(0, buf)
				if !ok {
					return
				}
				buf = batch
			}
		}(inboxes[i])
	}
	return c, func() {
		for _, in := range inboxes {
			in.Close()
		}
		c.Close()
	}
}

func batchRows(batch int) [][]types.Value {
	rows := make([][]types.Value, batch)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(i))}
	}
	return rows
}

// BenchmarkBatchInsert is the single-producer cost of the batch commit
// pipeline against 4 drained subscribers, swept over batch size. One op is
// one batch; the tuples/sec metric is the comparable number — batching
// amortises the commit mutex, sequence stamping and per-subscriber
// lock+signal over the run.
func BenchmarkBatchInsert(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c, stop := batchBenchCache(b, 4)
			defer stop()
			rows := batchRows(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.CommitBatch("T", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tuples := float64(b.N) * float64(batch)
			b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
		})
	}
}

// BenchmarkBatchFanoutMultiProducer is the contended shape: GOMAXPROCS
// producer goroutines hammering one topic with 4 drained subscribers,
// contrasting batch sizes 1/16/256. The batch-first pipeline's win is
// largest here because the commit mutex is the global serialisation point.
func BenchmarkBatchFanoutMultiProducer(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c, stop := batchBenchCache(b, 4)
			defer stop()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rows := batchRows(batch)
				for pb.Next() {
					if err := c.CommitBatch("T", rows); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			tuples := float64(b.N) * float64(batch)
			b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
		})
	}
}

// BenchmarkBatchInsertRPC is the end-to-end RPC shape: client-side
// InsertBatch over TCP, one round trip per batch.
func BenchmarkBatchInsertRPC(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c, stop := batchBenchCache(b, 4)
			defer stop()
			srv := rpc.NewServer(c)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			defer func() { _ = srv.Close() }()
			cl, err := rpc.Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = cl.Close() }()
			rows := batchRows(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.InsertBatch("T", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tuples := float64(b.N) * float64(batch)
			b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
		})
	}
}

// stallSub emulates a slow synchronous consumer (a durability hook, a
// backpressured replica): each delivery parks for a fixed stall inside the
// topic lock. Under a global commit mutex that stall serialises every
// topic; under per-topic domains it costs only its own topic.
type stallSub struct{ stall time.Duration }

func (s *stallSub) Deliver(*types.Event)        { time.Sleep(s.stall) }
func (s *stallSub) DeliverBatch([]*types.Event) { time.Sleep(s.stall) }

// shardedCommitBench drives `producers` goroutines, each pinned to one of
// `topics` hot topics (2 drained subscribers per topic), committing batches
// until b.N commits have happened in aggregate. When globalMu is set every
// commit additionally serialises through one shared mutex, emulating the
// pre-shard design where a single commitMu covered every topic — that mode
// is the single-mutex baseline the sharded numbers are compared against.
// When stall > 0, topic 0 carries one stallSub subscriber plus four
// dedicated background producers (their commits are not counted in b.N):
// the reported tuples/sec is then the aggregate throughput of the OTHER
// topics while topic 0 is continuously stalled, which is the per-topic
// isolation the sharding exists to provide.
func shardedCommitBench(b *testing.B, topics, producers, batch int, globalMu bool, stall time.Duration) {
	b.Helper()
	c, err := cache.New(cache.Config{TimerPeriod: -1})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, topics)
	var inboxes []*pubsub.Inbox
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
		if _, err := c.Exec(fmt.Sprintf(`create table %s (v integer)`, names[i])); err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			in := pubsub.NewInbox()
			if err := c.Subscribe(int64(1000+i*2+s), names[i], in); err != nil {
				b.Fatal(err)
			}
			go func(in *pubsub.Inbox) {
				var buf []*types.Event
				for {
					batch, ok := in.PopBatch(0, buf)
					if !ok {
						return
					}
					buf = batch
				}
			}(in)
			inboxes = append(inboxes, in)
		}
	}
	var gmu sync.Mutex // the emulated pre-shard global commit mutex
	commit := func(name string, rows [][]types.Value) error {
		if globalMu {
			gmu.Lock()
			defer gmu.Unlock()
		}
		return c.CommitBatch(name, rows)
	}

	// The measured producers run over topics [first, topics); with a
	// stalled topic 0 they cover only the healthy topics, and a dedicated
	// background producer keeps topic 0's domain continuously stalled.
	first := 0
	stopSlow := make(chan struct{})
	slowDone := make(chan struct{})
	if stall > 0 {
		if topics < 2 {
			b.Fatal("slowsub load needs at least 2 topics")
		}
		first = 1
		if err := c.Subscribe(999, names[0], &stallSub{stall: stall}); err != nil {
			b.Fatal(err)
		}
		// Four producers keep the stalled topic continuously loaded (the
		// shape of several ingest connections feeding one slow stream).
		// Each signals after its first commit so the measurement starts
		// only once the stall regime is fully established — otherwise the
		// harness calibrates b.N against pre-collapse throughput and the
		// global-mode run takes minutes.
		const slowProducers = 4
		var slowWg, slowReady sync.WaitGroup
		slowRows := batchRows(batch)
		for i := 0; i < slowProducers; i++ {
			slowWg.Add(1)
			slowReady.Add(1)
			go func() {
				defer slowWg.Done()
				first := true
				for {
					select {
					case <-stopSlow:
						if first {
							slowReady.Done()
						}
						return
					default:
					}
					if err := commit(names[0], slowRows); err != nil {
						b.Error(err)
						if first {
							slowReady.Done()
						}
						return
					}
					if first {
						first = false
						slowReady.Done()
					}
				}
			}()
		}
		go func() { slowWg.Wait(); close(slowDone) }()
		slowReady.Wait()
	} else {
		close(slowDone)
	}
	defer func() {
		close(stopSlow)
		<-slowDone
		for _, in := range inboxes {
			in.Close()
		}
		c.Close()
	}()

	var next atomic.Int64
	rows := batchRows(batch)
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := names[first+p%(topics-first)]
			for next.Add(1) <= int64(b.N) {
				if err := commit(name, rows); err != nil {
					b.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	b.StopTimer()
	tuples := float64(b.N) * float64(batch)
	b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
}

// BenchmarkShardedCommitMultiTopic measures what sharding the commit path
// into per-topic domains buys: aggregate tuples/sec across 1/4/8 hot
// topics, sharded versus the emulated single-mutex baseline (mode=global).
// With one topic the two modes are equivalent by construction — one domain
// is one mutex — so the interesting rows are topics>=4.
//
// Two load shapes:
//
//   - load=uniform: all topics commit pure CPU-bound batches. The sharded
//     win here is parallel commit across cores; on a single-core machine
//     the two modes are within noise because a lone CPU serialises the
//     work no matter how the locks are carved up.
//   - load=slowsub: topic 0 carries a slow synchronous subscriber (2ms
//     per delivery — an fsync-class durability hook or a backpressured
//     consumer) and four producers of its own keeping it loaded. Under the
//     global mutex those stalls hold the one lock every topic needs, and
//     aggregate throughput collapses to the slow topic's rate; sharded,
//     the healthy topics commit at full speed through it. This is the
//     dominant practical win and it shows on any core count.
//
// Uniform-load contention only exists with parallelism, so the benchmark
// raises GOMAXPROCS to at least 4 for its duration on smaller machines.
func BenchmarkShardedCommitMultiTopic(b *testing.B) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const producers = 8
	for _, mode := range []string{"global", "sharded"} {
		for _, topics := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("load=uniform/mode=%s/topics=%d", mode, topics), func(b *testing.B) {
				shardedCommitBench(b, topics, producers, 16, mode == "global", 0)
			})
		}
		for _, topics := range []int{4, 8} {
			b.Run(fmt.Sprintf("load=slowsub/mode=%s/topics=%d", mode, topics), func(b *testing.B) {
				shardedCommitBench(b, topics, producers, 16, mode == "global", 2*time.Millisecond)
			})
		}
	}
}

// BenchmarkAsyncDeliverySlowTap measures what the asynchronous delivery
// pipeline buys on one topic: commit throughput with a 2ms-per-event tap
// attached, versus the no-tap baseline. Three tap modes:
//
//   - tap=none: baseline, two drained inbox subscribers only.
//   - tap=sync: the pre-PR3 shape — a subscriber that sleeps 2ms inside
//     Deliver, executing under the topic lock. Throughput collapses to the
//     tap's rate (~300x at batch 16).
//   - tap=drop: WatchWith under DropOldest (queue 1024). The tap sheds
//     what it cannot keep up with; commit throughput must stay within 2x
//     of tap=none.
//
// Block is deliberately absent: with a 2ms tap it runs at full speed
// exactly until the queue fills and then at the tap's rate forever after —
// that conversion of overflow into backpressure is its contract, but it
// makes a fixed-iteration benchmark report whichever regime calibration
// happened to land in (and a run-sized queue just pins the whole run's
// events). TestWatchBlockPolicyBackpressure pins the Block semantics
// instead.
func BenchmarkAsyncDeliverySlowTap(b *testing.B) {
	const batch = 16
	const stall = 2 * time.Millisecond
	for _, mode := range []string{"none", "sync", "drop"} {
		b.Run("tap="+mode, func(b *testing.B) {
			c, stop := batchBenchCache(b, 2)
			defer stop()
			switch mode {
			case "sync":
				if err := c.Subscribe(999, "T", &stallSub{stall: stall}); err != nil {
					b.Fatal(err)
				}
			case "drop":
				id, err := c.WatchWith("T", func(*types.Event) { time.Sleep(stall) },
					cache.WatchOpts{Queue: 1024, Policy: pubsub.DropOldest})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Unsubscribe(id)
			}
			rows := batchRows(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.CommitBatch("T", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			tuples := float64(b.N) * float64(batch)
			b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
		})
	}
}

// BenchmarkBatchActivationWindowedAggregate measures what batch activation
// buys a windowed-aggregate automaton: the same moving-average computation
// written per-event (append + winAvg once per event — one interpreter
// activation each) versus batchable (appendRun + winAvg once per drained
// run). Each op commits one batch of run-length events and waits for the
// automaton to drain it, so the delivered run length equals the commit
// batch size exactly; compare events/sec across modes at each run length.
// At run=1 the two modes do identical work (a batchable behaviour over a
// one-event run IS a per-event activation); the batch win grows with the
// run because interpreter dispatch, window eviction and the aggregate
// recompute happen once per run instead of once per event.
func BenchmarkBatchActivationWindowedAggregate(b *testing.B) {
	progs := map[string]string{
		"perevent": `
subscribe e to T;
window w;
real a;
initialization { w = Window(int, ROWS, 64); }
behavior {
	append(w, e.v);
	a = winAvg(w);
}
`,
		"batch": `
subscribe e to T;
window w;
real a;
initialization { w = Window(int, ROWS, 64); }
behavior {
	appendRun(w, e.v);
	a = winAvg(w);
}
`,
	}
	for _, runLen := range []int{1, 16, 256} {
		for _, mode := range []string{"perevent", "batch"} {
			b.Run(fmt.Sprintf("run=%d/mode=%s", runLen, mode), func(b *testing.B) {
				c, err := cache.New(cache.Config{TimerPeriod: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Exec(`create table T (v integer)`); err != nil {
					b.Fatal(err)
				}
				a, err := c.Register(progs[mode], automaton.DiscardSink)
				if err != nil {
					b.Fatal(err)
				}
				if a.Batchable() != (mode == "batch") {
					b.Fatalf("mode %s misclassified: Batchable() = %v", mode, a.Batchable())
				}
				rows := batchRows(runLen)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.CommitBatch("T", rows); err != nil {
						b.Fatal(err)
					}
					// Lockstep: drain before the next commit so every run
					// the dispatcher pops is exactly runLen events.
					for !a.Idle() {
						runtime.Gosched()
					}
				}
				b.StopTimer()
				events := float64(b.N) * float64(runLen)
				b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			})
		}
	}
}

// patternProg builds a single-topic sequence pattern of the given depth:
// depth subscription variables over T, correlated on the key column, with
// skip-till-next-match keeping at most one open partial per key per step.
func patternProg(depth int) string {
	var sb strings.Builder
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&sb, "subscribe s%d to T;\n", i)
	}
	sb.WriteString("pattern {\n\tmatch s1")
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&sb, " then s%d", i)
	}
	sb.WriteString(" within 3600 SECS;\n")
	if depth > 1 {
		sb.WriteString("\twhere s2.k == s1.k")
		for i := 3; i <= depth; i++ {
			fmt.Fprintf(&sb, " && s%d.k == s1.k", i)
		}
		sb.WriteString(";\n")
	}
	sb.WriteString("\temit s1.k, s1.v;\n}\n")
	return sb.String()
}

// BenchmarkPatternMatch is the cost of the CEP NFA on the batch activation
// path (PR 9): a sequence pattern of swept depth over a single topic,
// driven with commit batches of swept run length. Single-topic patterns
// self-advance their watermark, so the measured path is the full
// reorder-buffer + NFA-step pipeline with no timer involvement. Keys
// round-robin over 32 values, so skip-till-next-match holds the open
// partial-match population at a steady ~32×depth.
func BenchmarkPatternMatch(b *testing.B) {
	const keys = 32
	for _, depth := range []int{2, 4} {
		prog := patternProg(depth)
		for _, runLen := range []int{64, 256} {
			b.Run(fmt.Sprintf("depth=%d/run=%d", depth, runLen), func(b *testing.B) {
				c, err := cache.New(cache.Config{TimerPeriod: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Exec(`create table T (k integer, v integer)`); err != nil {
					b.Fatal(err)
				}
				a, err := c.Register(prog, automaton.DiscardSink)
				if err != nil {
					b.Fatal(err)
				}
				if !a.Batchable() {
					b.Fatal("pattern automaton not on the batch path")
				}
				rows := make([][]types.Value, runLen)
				for i := range rows {
					rows[i] = []types.Value{
						types.Int(int64(i % keys)), types.Int(int64(i)),
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.CommitBatch("T", rows); err != nil {
						b.Fatal(err)
					}
					// Lockstep with the dispatcher, as the activation
					// bench does, so runs have a fixed length.
					for !a.Idle() {
						runtime.Gosched()
					}
				}
				b.StopTimer()
				events := float64(b.N) * float64(runLen)
				b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
				b.ReportMetric(float64(a.Matches())/float64(b.N), "matches/op")
			})
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationVMInstructionCycle measures the stack machine's
// instruction cycle (the paper's §6.1 observation that their interpreter
// behaves like a ~3µs-per-instruction processor; ours is reported here).
func BenchmarkAblationVMInstructionCycle(b *testing.B) {
	m, ev := benchVM(b, `
subscribe t to Timer;
int i, limit;
initialization { limit = 1000; }
behavior {
	i = 0;
	while (i < limit) {
		i += 1;
	}
}
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Deliver(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// ~9 instructions per loop iteration, 1000 iterations per delivery.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/9000.0, "ns/instr")
}

// BenchmarkAblationCommitFanout isolates the commit path: one insert
// against 0..8 subscribed no-op inboxes (the cost Fig. 9's linear growth
// comes from).
func BenchmarkAblationCommitFanout(b *testing.B) {
	for _, subs := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			c, err := cache.New(cache.Config{TimerPeriod: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Exec(`create table T (v integer)`); err != nil {
				b.Fatal(err)
			}
			inboxes := make([]*pubsub.Inbox, subs)
			for i := range inboxes {
				inboxes[i] = pubsub.NewInbox()
				if err := c.Subscribe(int64(i+1000), "T", inboxes[i]); err != nil {
					b.Fatal(err)
				}
				// Drain each inbox so queues stay flat.
				go func(in *pubsub.Inbox) {
					for {
						if _, ok := in.Pop(); !ok {
							return
						}
					}
				}(inboxes[i])
			}
			vals := []types.Value{types.Int(1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Insert("T", vals...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, in := range inboxes {
				in.Close()
			}
		})
	}
}

// BenchmarkAblationInbox is the raw unbounded-FIFO push/pop pair the
// delivery path rides on.
func BenchmarkAblationInbox(b *testing.B) {
	in := pubsub.NewInbox()
	ev := &types.Event{Topic: "T", Tuple: &types.Tuple{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Deliver(ev)
		if _, ok := in.TryPop(); !ok {
			b.Fatal("lost event")
		}
	}
}

// BenchmarkAblationOrderedMap compares the insertion-ordered GAPL map
// against a plain Go map (the determinism tax DESIGN.md accepts).
func BenchmarkAblationOrderedMap(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	b.Run("gapl-ordered", func(b *testing.B) {
		m := types.NewMap(types.KindInt)
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			_ = m.Insert(k, types.Int(int64(i)))
			if _, ok := m.Lookup(k); !ok {
				b.Fatal("lost key")
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		m := make(map[string]types.Value, len(keys))
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			m[k] = types.Int(int64(i))
			if _, ok := m[k]; !ok {
				b.Fatal("lost key")
			}
		}
	})
}

// --- Façade load path and streaming loads ---------------------------------

// facadeBenchEngine builds an Engine on the requested backend — the same
// two shapes cmd/loadgen drives, reduced to a benchmark fixture. The
// remote backend is a real server on a TCP loopback listener, so its rows
// carry the whole RPC stack.
func facadeBenchEngine(b *testing.B, backend string, cfg Config) (Engine, func()) {
	b.Helper()
	if backend == "embedded" {
		e, err := NewEmbedded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return e, func() { _ = e.Close() }
	}
	c, err := cache.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := rpc.NewServer(c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	eng, err := DialRemote(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	return eng, func() {
		_ = eng.Close()
		_ = srv.Close()
		c.Close()
	}
}

// BenchmarkFacadeInsertBatch drives 64-row batches through the public
// Engine API on each backend. allocs/op divided by 64 is allocs/event;
// TestSteadyStateInsertBatchAllocs gates the embedded figure.
func BenchmarkFacadeInsertBatch(b *testing.B) {
	for _, backend := range []string{"embedded", "remote"} {
		b.Run("backend="+backend, func(b *testing.B) {
			eng, stop := facadeBenchEngine(b, backend, Config{TimerPeriod: -1, EphemeralCapacity: 256})
			defer stop()
			if _, err := eng.Exec(`create table T (src integer, v integer)`); err != nil {
				b.Fatal(err)
			}
			const batch = 64
			rows := make([][]Value, batch)
			vals := make([]Value, 2*batch)
			for i := range rows {
				rows[i] = vals[2*i : 2*i+2]
				rows[i][0] = types.Int(int64(i))
				rows[i][1] = types.Int(int64(i))
			}
			// Warm past the ring before the measured window.
			for i := 0; i < 8; i++ {
				if err := eng.InsertBatch("T", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.InsertBatch("T", rows); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			events := float64(b.N) * batch
			b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkStreamLoad pours 4096 rows per op into a server over loopback
// TCP two ways: per-batch InsertBatch calls of 64 rows (one round trip
// each) versus one insert stream shipping the same rows as fire-and-forget
// chunks (two round trips total). Loopback hides most of the latency win —
// TestStreamBeatsPerBatchRTT pins the >=2x gap under a real 2ms RTT — but
// the round-trip count still shows.
func BenchmarkStreamLoad(b *testing.B) {
	const rowsPerOp, perBatch = 4096, 64
	for _, mode := range []string{"perbatch", "stream"} {
		b.Run("mode="+mode, func(b *testing.B) {
			c, err := cache.New(cache.Config{TimerPeriod: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Exec(`create table L (s varchar)`); err != nil {
				b.Fatal(err)
			}
			srv := rpc.NewServer(c)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			defer func() { _ = srv.Close() }()
			cl, err := rpc.Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = cl.Close() }()
			payload := types.Str(strings.Repeat("x", 256))
			batch := make([][]types.Value, perBatch)
			for i := range batch {
				batch[i] = []types.Value{payload}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "perbatch":
					for sent := 0; sent < rowsPerOp; sent += perBatch {
						if err := cl.InsertBatch("L", batch); err != nil {
							b.Fatal(err)
						}
					}
				case "stream":
					st, err := cl.NewInsertStream("L")
					if err != nil {
						b.Fatal(err)
					}
					for j := 0; j < rowsPerOp; j++ {
						if err := st.Add(payload); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := st.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			rows := float64(b.N) * rowsPerOp
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkAblationRingCapacity sweeps the ephemeral ring size; insert
// cost should be flat (the ring is why lookups stay O(1) regardless of
// history length).
func BenchmarkAblationRingCapacity(b *testing.B) {
	for _, capacity := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c, err := cache.New(cache.Config{TimerPeriod: -1, EphemeralCapacity: capacity})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Exec(`create table T (v integer)`); err != nil {
				b.Fatal(err)
			}
			vals := []types.Value{types.Int(1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Insert("T", vals...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALCommit measures what durability costs on the commit path:
// the identical batch commit against an in-memory cache, a write-ahead
// log with group-commit fsync, and a WAL with fsync off, swept over batch
// size. The group-commit comparison is the interesting one — at batch 1
// every commit pays (a share of) an fsync, so batching amortises both the
// commit mutex and the disk barrier.
func BenchmarkWALCommit(b *testing.B) {
	modes := []struct {
		name            string
		durable, nosync bool
	}{
		{"memory", false, false},
		{"wal", true, false},
		{"wal-nosync", true, true},
	}
	for _, m := range modes {
		for _, batch := range []int{1, 64, 256} {
			b.Run(fmt.Sprintf("%s/batch=%d", m.name, batch), func(b *testing.B) {
				cfg := cache.Config{TimerPeriod: -1, PrintWriter: &strings.Builder{}}
				if m.durable {
					cfg.DataDir = b.TempDir()
					cfg.WALNoSync = m.nosync
				}
				c, err := cache.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Exec(`create table T (v integer)`); err != nil {
					b.Fatal(err)
				}
				rows := batchRows(batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.CommitBatch("T", rows); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				tuples := float64(b.N) * float64(batch)
				b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
				if dur, ok := c.Durability(); ok {
					b.ReportMetric(float64(dur.Fsyncs)/float64(b.N), "fsyncs/op")
				}
			})
		}
	}
}

// BenchmarkWALCommitGroup is the group-commit payoff: GOMAXPROCS
// producers committing durably to one topic. Concurrent committers share
// fsync barriers (the sync leader flushes everyone's bytes), so
// fsyncs/op drops well below 1 while every committer still gets a
// durable ack.
func BenchmarkWALCommitGroup(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cfg := cache.Config{
				TimerPeriod: -1,
				PrintWriter: &strings.Builder{},
				DataDir:     b.TempDir(),
			}
			c, err := cache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Exec(`create table T (v integer)`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rows := batchRows(batch)
				for pb.Next() {
					if err := c.CommitBatch("T", rows); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			tuples := float64(b.N) * float64(batch)
			b.ReportMetric(tuples/b.Elapsed().Seconds(), "tuples/sec")
			if dur, ok := c.Durability(); ok {
				b.ReportMetric(float64(dur.Fsyncs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}
