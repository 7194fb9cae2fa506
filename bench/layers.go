package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"unicache/internal/cache"
	"unicache/internal/cep"
	"unicache/internal/gapl"
	"unicache/internal/pubsub"
	"unicache/internal/rpc"
	"unicache/internal/sql"
	"unicache/internal/table"
	"unicache/internal/tenant"
	"unicache/internal/types"
	"unicache/internal/vm"
	"unicache/internal/wal"
	"unicache/internal/wire"
)

// The layer replay: after the traced windows close, every layer is
// timed from outside through its exported functions, single goroutine
// unless stated, on rows generated from the run's seed. wire, rpc,
// tenant, cache, table, pubsub and wal replay the workload's own main
// table (Stocks for pattern-seq, Flows otherwise); vm and sql need the
// Flows programs and queries and cep needs Stocks/Halts, so those always
// replay the rows their programs are written for. A "self" time is the
// call's time minus the separately timed calls it is known to make on
// identical input.

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"wire.encode_ns_per_event", "ns"}, {"wire.decode_ns_per_event", "ns"}, {"wire.bytes_per_event", "B"},
	{"rpc.roundtrip_us_p50", "us"}, {"rpc.self_ns_per_event_b1", "ns"}, {"rpc.self_ns_per_event_b64", "ns"},
	{"rpc.push_us_p50", "us"}, {"rpc.client_allocs_per_event", "count"},
	{"tenant.admit_ns_per_batch", "ns"}, {"tenant.scoped_ns_per_event", "ns"}, {"tenant.refused", "count"},
	{"cache.commit_ns_per_event_b1", "ns"}, {"cache.commit_ns_per_event_b64", "ns"},
	{"cache.commit_allocs_per_event", "count"}, {"cache.contended_ns_per_event", "ns"},
	{"table.insert_ns_per_event", "ns"}, {"table.upsert_ns_per_event", "ns"}, {"table.scan_ns_per_row", "ns"},
	{"pubsub.publish_ns_per_event", "ns"}, {"pubsub.dispatch_ns_per_event", "ns"}, {"pubsub.run_length_mean", "count"},
	{"pubsub.depth_max", "count"}, {"pubsub.dropped", "count"},
	{"vm.compile_us", "us"}, {"vm.deliver_ns_per_event", "ns"}, {"vm.batch_ns_per_event", "ns"}, {"vm.runtime_errors", "count"},
	{"cep.compile_us", "us"}, {"cep.observe_ns_per_event", "ns"}, {"cep.partials_peak", "count"},
	{"cep.matches", "count"}, {"cep.snapshot_us", "us"},
	{"wal.encode_ns_per_event", "ns"}, {"wal.append_ns_per_event", "ns"}, {"wal.fsync_us_p50", "us"},
	{"wal.fsyncs_per_commit", "count"}, {"wal.bytes_per_event", "B"}, {"wal.replay_events_per_s", "1/s"},
	{"wal.snapshot_ms", "ms"},
	{"sql.parse_us", "us"}, {"sql.window_select_us_p50", "us"}, {"sql.lookup_us_p50", "us"},
	{"engine.precommit_us_p50", "us"}, {"engine.postcommit_us_p50", "us"}, {"engine.ack_us_p50", "us"},
	{"bench.gen_lag_us_p99", "us"}, {"bench.trace_overhead_ratio", "ratio"}, {"bench.samples", "count"},
	// End-to-end numbers that cannot carry a regression bound: the commit
	// and tail latencies are too noisy on a shared two-core box to hold
	// one, the query and recovery numbers exist on durable-readwrite only,
	// and failed_ratio is 0 on every good run.
	{"commit_p50_us", "us"}, {"commit_p99_us", "us"}, {"notify_p99_us", "us"},
	{"query_p50_us", "us"}, {"query_p99_us", "us"}, {"recover_s", "s"},
	{"failed_ratio", "ratio"},
}

// layerBudget is how long each timed loop runs.
const layerBudget = 100 * time.Millisecond

const layerBatch = 64

type layerBench struct {
	env     *env
	rep     *report
	schemas map[string]*types.Schema
	primary string // the workload's main table
	rows    *pool
	runErrs int // vm runtime errors seen by the replay

	// Whole costs per event at batch sizes 1 and 64 that later self times
	// subtract: table.InsertBatch (from cache.commit) and
	// Cache.CommitBatch (from rpc and tenant).
	tableInsertNs, cacheCommitNs [2]float64
}

func layerReplay(env *env, def workloadDef, rep *report) {
	l := &layerBench{env: env, rep: rep, primary: "Flows", rows: env.in.flows}
	if def.name == "pattern-seq" {
		l.primary, l.rows = "Stocks", env.in.stocks
	}
	// A scratch cache parses the DDL into the schemas the layers need.
	c := l.newCache(cache.Config{})
	defer c.Close()
	l.schemas = c.Schemas()
	for _, step := range []func() error{
		l.wire, l.table, l.cache, l.pubsub, l.tenant, l.vm, l.cep, l.wal, l.sql, l.rpc,
	} {
		if err := step(); err != nil {
			rep.fail("layer replay: %v", err)
		}
	}
	rep.set("vm.runtime_errors", rep.metrics["vm.runtime_errors"].Value+float64(l.runErrs), "count")
}

// newCache builds an in-memory cache with every workload table.
func (l *layerBench) newCache(cfg cache.Config) *cache.Cache {
	cfg.TimerPeriod = -1
	cfg.PrintWriter = io.Discard
	c, err := cache.New(cfg)
	if err != nil {
		panic(err) // an in-memory cache cannot fail to open
	}
	if cfg.Tenants == nil {
		for _, ddl := range []string{ddlFlows, ddlAllowances, ddlBWUsage, ddlHosts, ddlStocks, ddlHalts} {
			if _, err := c.Exec(ddl); err != nil {
				panic(err)
			}
		}
	}
	return c
}

func (l *layerBench) span(name string, start, end int64, n int) {
	l.rep.spans = append(l.rep.spans, span{Name: name, Start: start, End: end, Parent: "layer-replay", N: n})
}

// timed calls fn, which handles n events, for layerBudget and returns
// the mean nanoseconds per event.
func (l *layerBench) timed(name string, n int, fn func()) float64 {
	start, iters := now(), 0
	for end := start + int64(layerBudget); ; {
		for i := 0; i < 16; i++ {
			fn()
		}
		iters += 16
		if now() >= end {
			break
		}
	}
	end := now()
	l.span(name, start, end, iters*n)
	return float64(end-start) / float64(iters*n)
}

// timedEach times every call of fn for layerBudget and returns the
// median in microseconds.
func (l *layerBench) timedEach(name string, fn func()) float64 {
	var each []float64
	start := now()
	for t := start; t < start+int64(layerBudget); {
		fn()
		t1 := now()
		each = append(each, float64(t1-t)/1e3)
		t = t1
	}
	l.span(name, start, now(), len(each))
	return median(each)
}

// tuplesOf wraps rows as committed tuples with increasing Seq.
func tuplesOf(rows [][]types.Value, firstSeq uint64, ts types.Timestamp) []*types.Tuple {
	arr := make([]types.Tuple, len(rows))
	out := make([]*types.Tuple, len(rows))
	for i, r := range rows {
		arr[i] = types.Tuple{Seq: firstSeq + uint64(i), TS: ts, Vals: r}
		out[i] = &arr[i]
	}
	return out
}

func eventsOf(topic string, schema *types.Schema, tuples []*types.Tuple) []*types.Event {
	arr := make([]types.Event, len(tuples))
	out := make([]*types.Event, len(tuples))
	for i, t := range tuples {
		arr[i] = types.Event{Topic: topic, Schema: schema, Tuple: t}
		out[i] = &arr[i]
	}
	return out
}

func (l *layerBench) wire() error {
	rows := l.rows.rows(0, layerBatch)
	enc := wire.NewEncoder(1 << 14)
	var err error
	l.rep.set("wire.encode_ns_per_event", l.timed("wire.Encoder.Rows", layerBatch, func() {
		enc.Reset()
		if e := enc.Rows(rows); e != nil {
			err = e
		}
	}), "ns")
	buf := enc.Bytes()
	l.rep.set("wire.bytes_per_event", float64(len(buf))/layerBatch, "B")
	l.rep.set("wire.decode_ns_per_event", l.timed("wire.Decoder.Rows", layerBatch, func() {
		if _, e := wire.NewDecoder(buf).Rows(); e != nil {
			err = e
		}
	}), "ns")
	return err
}

func (l *layerBench) table() error {
	schema := l.schemas[l.primary]
	var err error
	for k, b := range []int{1, layerBatch} {
		eph, e := table.NewEphemeral(schema, 0)
		if e != nil {
			return e
		}
		tuples := tuplesOf(l.rows.rows(0, b), 1, types.Now())
		l.tableInsertNs[k] = l.timed(fmt.Sprintf("table.Ephemeral.InsertBatch b%d", b), b, func() {
			if e := eph.InsertBatch(tuples); e != nil {
				err = e
			}
		})
		if b == layerBatch {
			l.rep.set("table.insert_ns_per_event", l.tableInsertNs[k], "ns")
			// The ring is full now: a scan visits Capacity rows.
			l.rep.set("table.scan_ns_per_row", l.timed("table.Ephemeral.ScanSince", eph.Capacity(), func() {
				eph.ScanSince(0, func(*types.Tuple) bool { return true })
			}), "ns")
		}
	}
	per, e := table.NewPersistent(l.schemas["Hosts"])
	if e != nil {
		return e
	}
	at := 0
	l.rep.set("table.upsert_ns_per_event", l.timed("table.Persistent.InsertBatch", layerBatch, func() {
		tuples := tuplesOf(l.env.in.hosts.rows(at, layerBatch), uint64(at+1), types.Now())
		at += layerBatch
		if e := per.InsertBatch(tuples); e != nil {
			err = e
		}
	}), "ns")
	return err
}

func (l *layerBench) cache() error {
	c := l.newCache(cache.Config{})
	defer c.Close()
	var err error
	commit := func(b int) func() {
		rows := l.rows.rows(0, b)
		return func() {
			if e := c.CommitBatch(l.primary, rows); e != nil {
				err = e
			}
		}
	}
	b1 := l.timed("cache.CommitBatch b1", 1, commit(1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := len(l.rep.spans)
	b64 := l.timed("cache.CommitBatch b64", layerBatch, commit(layerBatch))
	runtime.ReadMemStats(&ms1)
	l.rep.set("cache.commit_allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(l.rep.spans[start].N), "count")
	l.cacheCommitNs = [2]float64{b1, b64}
	// Self time: no subscribers, so table.InsertBatch is the one callee
	// timed separately.
	l.rep.set("cache.commit_ns_per_event_b1", b1-l.tableInsertNs[0], "ns")
	l.rep.set("cache.commit_ns_per_event_b64", b64-l.tableInsertNs[1], "ns")

	// Two producers on one topic: the commit-domain lock is contended.
	var wg sync.WaitGroup
	var events atomic.Int64
	t0 := now()
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := l.rows.rows(p*layerBatch, layerBatch)
			for now()-t0 < int64(layerBudget) {
				if e := c.CommitBatch(l.primary, rows); e != nil {
					return
				}
				events.Add(layerBatch)
			}
		}()
	}
	wg.Wait()
	t1 := now()
	l.span("cache.CommitBatch b64 x2 producers", t0, t1, int(events.Load()))
	l.rep.set("cache.contended_ns_per_event", float64(t1-t0)/float64(max(1, events.Load())), "ns")
	return err
}

func (l *layerBench) pubsub() error {
	const subscribers = 3
	schema := l.schemas[l.primary]
	evs := eventsOf(l.primary, schema, tuplesOf(l.rows.rows(0, layerBatch), 1, types.Now()))
	newTopic := func(opts pubsub.QueueOpts) (*pubsub.Topic, []*pubsub.Inbox, error) {
		b := pubsub.NewBroker()
		if err := b.CreateTopic(l.primary); err != nil {
			return nil, nil, err
		}
		var inboxes []*pubsub.Inbox
		for i := 0; i < subscribers; i++ {
			in := pubsub.NewInboxWith(opts)
			if err := b.Subscribe(int64(i+1), l.primary, in); err != nil {
				return nil, nil, err
			}
			inboxes = append(inboxes, in)
		}
		t, err := b.Topic(l.primary)
		return t, inboxes, err
	}

	// Publish into three unbounded inboxes nobody drains yet, then time
	// three batch dispatchers draining them with a no-op consumer.
	topic, inboxes, err := newTopic(pubsub.QueueOpts{})
	if err != nil {
		return err
	}
	const publishes = 2000
	t0 := now()
	for i := 0; i < publishes; i++ {
		topic.PublishBatch(evs)
	}
	t1 := now()
	l.span("pubsub.Topic.PublishBatch x3 inboxes", t0, t1, publishes*layerBatch)
	l.rep.set("pubsub.publish_ns_per_event", float64(t1-t0)/float64(publishes*layerBatch), "ns")
	var consumed atomic.Int64
	var ds []*pubsub.Dispatcher
	t0 = now()
	for _, in := range inboxes {
		ds = append(ds, pubsub.NewBatchDispatcher(in, func(run []*types.Event) { consumed.Add(int64(len(run))) }, pubsub.DispatcherConfig{}))
	}
	for consumed.Load() < subscribers*publishes*layerBatch {
		runtime.Gosched()
	}
	t1 = now()
	for _, d := range ds {
		d.Stop()
	}
	l.span("pubsub.BatchDispatcher drain x3", t0, t1, subscribers*publishes*layerBatch)
	l.rep.set("pubsub.dispatch_ns_per_event", float64(t1-t0)/float64(subscribers*publishes*layerBatch), "ns")

	// Live: a saturating publisher against three dispatchers on bounded
	// Block inboxes; the mean drained run length is what batch
	// activation gets to amortise over.
	topic, inboxes, err = newTopic(pubsub.QueueOpts{Capacity: inboxDepth, Policy: pubsub.Block})
	if err != nil {
		return err
	}
	var runs, inRuns atomic.Int64
	ds = ds[:0]
	for _, in := range inboxes {
		ds = append(ds, pubsub.NewBatchDispatcher(in, func(run []*types.Event) {
			runs.Add(1)
			inRuns.Add(int64(len(run)))
		}, pubsub.DispatcherConfig{}))
	}
	for t0 = now(); now()-t0 < int64(layerBudget); {
		topic.PublishBatch(evs)
	}
	for _, d := range ds {
		d.Stop()
	}
	l.rep.set("pubsub.run_length_mean", float64(inRuns.Load())/float64(max(1, runs.Load())), "count")
	return nil
}

func (l *layerBench) tenant() error {
	reg, err := tenant.NewRegistry(tenant.Spec{Name: "t1", Token: "tok-t1", Quota: tenant.Quota{MaxEventsPerSec: 1_000_000_000}})
	if err != nil {
		return err
	}
	t, _ := reg.Get("t1")
	refused := 0
	l.rep.set("tenant.admit_ns_per_batch", l.timed("tenant.AllowEvents+NoteCommitted", 1, func() {
		ts := types.Now()
		if t.AllowEvents(ts, layerBatch) != nil {
			refused++
		}
		t.NoteCommitted(ts, layerBatch)
	}), "ns")
	c := l.newCache(cache.Config{Tenants: reg})
	defer c.Close()
	sc := c.Scope(t)
	for _, ddl := range []string{ddlFlows, ddlStocks} {
		if _, err := sc.Exec(ddl); err != nil {
			return err
		}
	}
	rows := l.rows.rows(0, layerBatch)
	scoped := l.timed("cache.Scoped.CommitBatch b64", layerBatch, func() {
		if e := sc.CommitBatch(l.primary, rows); e != nil {
			err = e
			refused++
		}
	})
	l.rep.set("tenant.scoped_ns_per_event", scoped-l.cacheCommitNs[1], "ns")
	l.rep.set("tenant.refused", l.rep.metrics["tenant.refused"].Value+float64(refused), "count")
	return err
}

// mapHost is a vm.Host whose associations are Go maps.
type mapHost struct {
	tables map[string]map[string]types.Value
	sent   int
}

func (h *mapHost) Now() types.Timestamp                { return types.Now() }
func (h *mapHost) Publish(string, []types.Value) error { return nil }
func (h *mapHost) Send([]types.Value) error            { h.sent++; return nil }
func (h *mapHost) Print(string)                        {}
func (h *mapHost) AssocLookup(tbl, key string) (types.Value, bool, error) {
	v, ok := h.tables[tbl][key]
	return v, ok, nil
}
func (h *mapHost) AssocInsert(tbl, key string, v types.Value) error {
	h.tables[tbl][key] = v
	return nil
}
func (h *mapHost) AssocHas(tbl, key string) (bool, error) {
	_, ok := h.tables[tbl][key]
	return ok, nil
}
func (h *mapHost) AssocRemove(tbl, key string) (bool, error) {
	_, ok := h.tables[tbl][key]
	delete(h.tables[tbl], key)
	return ok, nil
}
func (h *mapHost) AssocSize(tbl string) (int, error) { return len(h.tables[tbl]), nil }

func (l *layerBench) newVM(src string, host vm.Host) (*vm.VM, error) {
	prog, err := gapl.Compile(src)
	if err != nil {
		return nil, err
	}
	if err := prog.Bind(l.schemas); err != nil {
		return nil, err
	}
	m, err := vm.New(prog, host)
	if err != nil {
		return nil, err
	}
	return m, m.RunInit()
}

func (l *layerBench) vm() error {
	host := &mapHost{tables: map[string]map[string]types.Value{"Allowances": {}, "BWUsage": {}}}
	for h := 1; h <= flowHosts; h++ {
		ip := fmt.Sprintf("192.168.1.%d", h)
		host.tables["Allowances"][ip] = types.SeqV(types.NewSequence(types.Str(ip), types.Int(allowance)))
	}
	var err error
	l.rep.set("vm.compile_us", l.timedEach("gapl.Compile+vm.New", func() {
		if _, e := l.newVM(progBandwidth, host); e != nil {
			err = e
		}
	}), "us")
	if err != nil {
		return err
	}
	flows := l.schemas["Flows"]
	evs := eventsOf("Flows", flows, tuplesOf(l.env.in.flows.rows(0, 4096), 1, types.Now()))
	per, err := l.newVM(progBandwidth, host)
	if err != nil {
		return err
	}
	at := 0
	l.rep.set("vm.deliver_ns_per_event", l.timed("vm.VM.Deliver bandwidth", 1, func() {
		if per.Deliver(evs[at%len(evs)]) != nil {
			l.runErrs++
		}
		at++
	}), "ns")
	batch, err := l.newVM(progWinAvg, host)
	if err != nil {
		return err
	}
	l.rep.set("vm.batch_ns_per_event", l.timed("vm.VM.DeliverBatch winavg", layerBatch, func() {
		lo := at % (len(evs) - layerBatch)
		if batch.DeliverBatch(evs[lo:lo+layerBatch]) != nil {
			l.runErrs++
		}
		at += layerBatch
	}), "ns")
	return nil
}

func (l *layerBench) cep() error {
	compile := func(src string) (*cep.Machine, error) {
		prog, err := gapl.Compile(src)
		if err != nil {
			return nil, err
		}
		pat, err := cep.CompilePattern(prog, l.schemas)
		if err != nil {
			return nil, err
		}
		return cep.NewMachine(pat), nil
	}
	var err error
	l.rep.set("cep.compile_us", l.timedEach("gapl.Compile+cep.CompilePattern", func() {
		if _, e := compile(progNoHalt(patternWithin)); e != nil {
			err = e
		}
	}), "us")
	if err != nil {
		return err
	}
	var machines []*cep.Machine
	for _, src := range []string{progRun(patternWithin), progNoHalt(patternWithin)} {
		m, err := compile(src)
		if err != nil {
			return err
		}
		m.OnMatch = func([]types.Value) error { return nil }
		m.OnError = func(error) { l.runErrs++ }
		machines = append(machines, m)
	}
	// The stream the paced phase offers, in application time: one call
	// every 1/pacedCalls seconds, haltEvery Stocks batches then one
	// Halts row, and a Timer punctuation every 10 ms.
	def, _ := findWorkload("pattern-seq")
	step := types.Timestamp(1e9 / def.pacedCalls)
	ts := types.Now()
	nextTick := ts + types.Timestamp(10*time.Millisecond)
	var stockSeq, haltSeq, timerSeq uint64
	stockAt, haltAt, calls, events, peak := 0, 0, 0, 0, 0
	start := now()
	var busy int64
	for busy < int64(layerBudget) {
		calls++
		ts += step
		var evs []*types.Event
		if calls%(haltEvery+1) == 0 {
			evs = eventsOf("Halts", l.schemas["Halts"], tuplesOf(l.env.in.halts.rows(haltAt, 1), haltSeq+1, ts))
			haltAt, haltSeq = haltAt+1, haltSeq+1
		} else {
			evs = eventsOf("Stocks", l.schemas["Stocks"], tuplesOf(l.env.in.stocks.rows(stockAt, patternBatch), stockSeq+1, ts))
			stockAt, stockSeq = stockAt+patternBatch, stockSeq+patternBatch
		}
		if ts >= nextTick {
			timerSeq++
			tick := &types.Tuple{Seq: timerSeq, TS: ts, Vals: []types.Value{types.Stamp(ts)}}
			evs = append(evs, eventsOf(types.TimerTopic, l.schemas[types.TimerTopic], []*types.Tuple{tick})...)
			nextTick += types.Timestamp(10 * time.Millisecond)
		}
		t0 := now()
		for _, m := range machines {
			m.ObserveBatch(evs)
		}
		busy += now() - t0
		events += len(evs)
		peak = max(peak, machines[0].Partials()+machines[1].Partials())
	}
	l.span("cep.Machine.ObserveBatch x2 patterns", start, start+busy, events)
	l.rep.set("cep.observe_ns_per_event", float64(busy)/float64(events), "ns")
	l.rep.set("cep.partials_peak", float64(peak), "count")
	l.rep.set("cep.matches", float64(machines[0].Matches()+machines[1].Matches()), "count")
	l.rep.set("cep.snapshot_us", l.timedEach("cep.Machine.Snapshot x2 patterns", func() {
		for _, m := range machines {
			if _, e := m.Snapshot(); e != nil {
				err = e
			}
		}
	}), "us")
	return err
}

func (l *layerBench) wal() error {
	dir, err := tempDir(l.env.tmpBase, "wal-*")
	if err != nil {
		return err
	}
	open := func() (*wal.Manager, error) {
		m, err := wal.Open(filepath.Join(dir, "data"), wal.Options{})
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	m, err := open()
	if err != nil {
		return err
	}
	noSink := func(string) (wal.Sink, error) { return func(any, bool) error { return nil }, nil }
	if err := m.Recover(noSink); err != nil {
		return err
	}
	schema := l.schemas[l.primary]
	d, err := m.CreateDomain(l.primary, schema)
	if err != nil {
		return err
	}
	tuples := tuplesOf(l.rows.rows(0, layerBatch), 1, types.Now())
	var payload []byte
	l.rep.set("wal.encode_ns_per_event", l.timed("wal.EncodeBatch", layerBatch, func() {
		payload, err = wal.EncodeBatch(1, types.Now(), tuples)
	}), "ns")
	if err != nil {
		return err
	}
	l.rep.set("wal.bytes_per_event", float64(len(payload))/layerBatch, "B")
	var off wal.Off
	appended := len(l.rep.spans)
	l.rep.set("wal.append_ns_per_event", l.timed("wal.Domain.Append", layerBatch, func() {
		off, err = d.Append(payload)
	}), "ns")
	if err != nil {
		return err
	}
	logged := l.rep.spans[appended].N
	// Commit = append + group-commit fsync, one committer.
	before := m.ManagerStats().Fsyncs
	commits := 0
	l.rep.set("wal.fsync_us_p50", l.timedEach("wal.Domain.Append+Sync", func() {
		if off, err = d.Append(payload); err == nil {
			err = d.Sync(off)
		}
		commits++
	}), "us")
	if err != nil {
		return err
	}
	l.rep.set("wal.fsyncs_per_commit", float64(m.ManagerStats().Fsyncs-before)/float64(commits), "count")
	logged += commits * layerBatch

	// Snapshot: rotate the log and write a full ring's rows.
	ring := tuplesOf(l.rows.rows(0, table.DefaultEphemeralCapacity), 1, types.Now())
	rowsRec, err := wal.EncodeRows(ring)
	if err != nil {
		return err
	}
	if err := m.Close(); err != nil {
		return err
	}

	// Replay: a fresh manager recovers the domain from the log.
	if m, err = open(); err != nil {
		return err
	}
	replayed := 0
	t0 := now()
	err = m.Recover(func(string) (wal.Sink, error) {
		return func(rec any, _ bool) error {
			if b, ok := rec.(*wal.BatchRec); ok {
				replayed += len(b.Rows)
			}
			return nil
		}, nil
	})
	t1 := now()
	if err != nil {
		return err
	}
	if replayed != logged {
		return fmt.Errorf("wal replay returned %d events, %d were logged", replayed, logged)
	}
	l.span("wal.Manager.Recover", t0, t1, replayed)
	l.rep.set("wal.replay_events_per_s", float64(replayed)/(float64(t1-t0)/1e9), "1/s")

	d = m.Domain(l.primary)
	t0 = now()
	if !d.BeginSnapshot() {
		return fmt.Errorf("wal: snapshot already claimed")
	}
	epoch, err := d.Rotate()
	if err != nil {
		d.AbortSnapshot()
		return err
	}
	if err := d.WriteSnapshot(epoch, [][]byte{wal.EncodeSchema(schema), wal.EncodeSeq(uint64(logged)), rowsRec}); err != nil {
		return err
	}
	t1 = now()
	l.span("wal.Domain.Rotate+WriteSnapshot", t0, t1, len(ring))
	l.rep.set("wal.snapshot_ms", float64(t1-t0)/1e6, "ms")
	return m.Close()
}

func (l *layerBench) sql() error {
	c := l.newCache(cache.Config{})
	defer c.Close()
	const window = `select dstip, sum(nbytes) from Flows [range 500 milliseconds] group by dstip`
	key, _ := l.env.in.hosts.rows(0, 1)[0][0].AsStr()
	lookup := `select nbytes from Hosts where ipaddr = '` + key + `'`
	var err error
	l.rep.set("sql.parse_us", l.timed("sql.Parse", 1, func() {
		if _, e := sql.Parse(window); e != nil {
			err = e
		}
	})/1e3, "us")
	if err != nil {
		return err
	}
	for i := 0; i < hostKeys*4; i += layerBatch {
		if err := c.CommitBatch("Hosts", l.env.in.hosts.rows(i, layerBatch)); err != nil {
			return err
		}
	}
	// Fill the Flows ring just now, so the window holds all of it.
	for i := 0; i < table.DefaultEphemeralCapacity; i += layerBatch {
		if err := c.CommitBatch("Flows", l.env.in.flows.rows(i, layerBatch)); err != nil {
			return err
		}
	}
	exec := func(name, q string) (float64, error) {
		st, err := sql.Parse(q)
		if err != nil {
			return 0, err
		}
		us := l.timedEach(name, func() {
			res, e := sql.Exec(c, st)
			if e == nil && len(res.Rows) == 0 {
				e = fmt.Errorf("%s: no rows", q)
			}
			if e != nil {
				err = e
			}
		})
		return us, err
	}
	us, err := exec("sql.Exec window select", window)
	if err != nil {
		return err
	}
	l.rep.set("sql.window_select_us_p50", us, "us")
	if us, err = exec("sql.Exec point lookup", lookup); err != nil {
		return err
	}
	l.rep.set("sql.lookup_us_p50", us, "us")
	return nil
}

// rpc times the client against a spawned in-memory cached on loopback
// with no subscribers, so the bench process holds only the client half.
func (l *layerBench) rpc() error {
	srv, err := startCached(l.env.cachedBin, "-timer", "0")
	if err != nil {
		return err
	}
	defer srv.kill()
	cl, err := rpc.Dial(srv.addr)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	ddl := ddlFlows
	if l.primary == "Stocks" {
		ddl = ddlStocks
	}
	if _, err := cl.Exec(ddl); err != nil {
		return err
	}
	insert := func(b int) func() {
		rows := l.rows.rows(0, b)
		return func() {
			if e := cl.InsertBatch(l.primary, rows); e != nil {
				err = e
			}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	at := len(l.rep.spans)
	rt := l.timedEach("rpc.Client.InsertBatch b1", insert(1))
	runtime.ReadMemStats(&ms1)
	l.rep.set("rpc.roundtrip_us_p50", rt, "us")
	l.rep.set("rpc.client_allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(l.rep.spans[at].N), "count")
	l.rep.set("rpc.self_ns_per_event_b1", l.timed("rpc.Client.InsertBatch b1 (mean)", 1, insert(1))-l.cacheCommitNs[0], "ns")
	l.rep.set("rpc.self_ns_per_event_b64", l.timed("rpc.Client.InsertBatch b64", layerBatch, insert(layerBatch))-l.cacheCommitNs[1], "ns")
	if err != nil {
		return err
	}

	// Push path on an idle server: commit stamp → watch callback.
	arrived := make(chan float64, 1)
	if _, err := cl.WatchWith(l.primary, func(ev *types.Event) {
		arrived <- float64(now()-int64(ev.Tuple.TS)) / 1e3
	}, rpc.WatchOptions{}); err != nil {
		return err
	}
	var push []float64
	one := insert(1)
	t0 := now()
	for now()-t0 < int64(layerBudget) {
		if one(); err != nil {
			return err
		}
		push = append(push, <-arrived)
	}
	l.span("rpc.Client.WatchWith push", t0, now(), len(push))
	l.rep.set("rpc.push_us_p50", median(push), "us")
	return err
}
