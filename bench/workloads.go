package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"unicache"
	"unicache/internal/types"
)

// workloadDef is one benchmark workload. pacedCalls is the open-loop
// call rate of the paced phase (all producers together), fixed once at
// about 40 % of the workload's measured closed-loop rate on the
// reference box and then frozen: a latency is only comparable across
// commits at the same offered load.
type workloadDef struct {
	name       string
	pacedCalls float64
	setup      func(env *env) (*sut, error)
	// verify, if set, is the workload's pre-phase verification pass; it
	// returns the failures it found.
	verify func(env *env) []string
}

// env is what a run hands its workload: the generated inputs and where
// to find the cached binary and scratch space.
type env struct {
	in        *inputs
	cachedBin string
	tmpBase   string // parent of every temp dir (tenants file, -data dir)
	breakIt   bool   // -break-check: the pattern verification expects one match too many
}

var workloads = []workloadDef{
	{name: "embedded-fanout", pacedCalls: 3200, setup: setupEmbeddedFanout},
	{name: "remote-single", pacedCalls: 4000, setup: setupRemoteSingle},
	{name: "pattern-seq", pacedCalls: 1200, setup: setupPatternSeq, verify: verifyPatterns},
	// 301, not 300: the reader's queries are due every 5 ms, and at 300
	// calls/s every third Flows batch would be due at the very instant of a
	// window query, the race between the two deciding a third of the
	// latencies. With no common divisor the writer's phase against the
	// reader's sweeps every alignment once a second.
	{name: "durable-readwrite", pacedCalls: 301, setup: setupDurableReadWrite},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Subscriber inboxes are bounded and Block, so the producer feels the
// slowest subscriber instead of queueing without limit.
const inboxDepth = 4096

func autoOpts() []unicache.AutomatonOption {
	return []unicache.AutomatonOption{
		unicache.InboxCapacity(inboxDepth), unicache.InboxPolicy(unicache.Block),
		unicache.EventBuffer(1 << 16),
	}
}

func execAll(e unicache.Engine, stmts ...string) error {
	for _, st := range stmts {
		if _, err := e.Exec(st); err != nil {
			return fmt.Errorf("%s: %w", st, err)
		}
	}
	return nil
}

// register starts a GAPL program and a goroutine receiving its sends.
func (s *sut) register(e unicache.Engine, name, src string) error {
	a, err := e.Register(src, autoOpts()...)
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	sub := &subscriber{name: name}
	sub.drainSends(a, &s.drainers)
	s.subs = append(s.subs, sub)
	return nil
}

// watch attaches a counting, order-checking tap.
func (s *sut) watch(e unicache.Engine, name, topic string, t0col int, sampleEvery uint64) (*subscriber, error) {
	sub := &subscriber{name: name}
	if _, err := e.Watch(topic, sub.onEvent(t0col, sampleEvery)); err != nil {
		return nil, fmt.Errorf("watch %s: %w", topic, err)
	}
	s.subs = append(s.subs, sub)
	return sub, nil
}

func newProducer(call func(t0 int64) (int, error)) *producer {
	return &producer{call: call, calls: make([]callRec, 0, 1<<18)}
}

// --- embedded-fanout -------------------------------------------------------

// progBandwidth is the paper's Fig. 4 bandwidth automaton: per event it
// joins the flow against the Allowances and BWUsage persistent tables
// and sends when a host's usage passes its allowance (then starts the
// host's count again, so trips keep coming at a steady rate).
const progBandwidth = `
subscribe f to Flows;
associate a with Allowances;
associate b with BWUsage;
int n, limit;
identifier ip;
behavior {
	ip = Identifier(f.dstip);
	if (hasEntry(a, ip)) {
		limit = seqElement(lookup(a, ip), 1);
		if (hasEntry(b, ip))
			n = seqElement(lookup(b, ip), 1);
		else
			n = 0;
		n += f.nbytes;
		if (n > limit) {
			send(f.t0, f.tstamp, f.dstip, n);
			n = 0;
		}
		insert(b, ip, Sequence(f.dstip, n));
	}
}
`

// progWinAvg is the batchable subscriber: one activation per drained
// run. winMax over the t0 window is the stamp of the last contributing
// event.
const progWinAvg = `
subscribe f to Flows;
window w, wt, wc;
initialization {
	w = Window(int, ROWS, 128);
	wt = Window(int, ROWS, 128);
	wc = Window(tstamp, ROWS, 128);
}
behavior {
	appendRun(w, f.nbytes);
	appendRun(wt, f.t0);
	appendRun(wc, f.tstamp);
	send(winMax(wt), winMax(wc), winAvg(w));
}
`

const fanoutBatch = 64

func setupEmbeddedFanout(env *env) (*sut, error) {
	s := &sut{}
	eng, err := unicache.NewEmbedded(unicache.Config{
		TimerPeriod:    -1,
		PrintWriter:    io.Discard,
		OnRuntimeError: func(int64, error) { s.rtErrs.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	s.engines = []unicache.Engine{eng}
	if err := execAll(eng, ddlFlows, ddlAllowances, ddlBWUsage); err != nil {
		return nil, err
	}
	var allow [][]types.Value
	for h := 1; h <= flowHosts; h++ {
		allow = append(allow, []types.Value{types.Str(fmt.Sprintf("192.168.1.%d", h)), types.Int(allowance)})
	}
	if err := eng.InsertBatch("Allowances", allow); err != nil {
		return nil, err
	}
	tap, err := s.watch(eng, "watch", "Flows", flowT0, fanoutBatch)
	if err != nil {
		return nil, err
	}
	if err := s.register(eng, "bandwidth", progBandwidth); err != nil {
		return nil, err
	}
	if err := s.register(eng, "winavg", progWinAvg); err != nil {
		return nil, err
	}
	src := newRowSource(env.in.flows)
	s.producers = []*producer{newProducer(func(t0 int64) (int, error) {
		if err := eng.InsertBatch("Flows", src.batch(fanoutBatch, t0)); err != nil {
			return 0, err
		}
		tap.want.Add(fanoutBatch)
		return fanoutBatch, nil
	})}
	s.check = func() []string { return checkBandwidth(env, s, src.next) }
	return s, nil
}

// checkBandwidth recomputes the Fig. 4 automaton's sends over the rows
// inserted: a per-event program on one totally ordered
// topic must have sent exactly that many.
func checkBandwidth(env *env, s *sut, sent int) []string {
	usage := make(map[string]int64)
	want := 0
	row := make([]types.Value, env.in.flows.width)
	for i := 0; i < sent; i++ {
		env.in.flows.row(row, i%env.in.flows.n)
		ip, _ := row[flowDstIP].AsStr()
		nb, _ := row[flowNBytes].AsInt()
		usage[ip] += nb
		if usage[ip] > allowance {
			want++
			usage[ip] = 0
		}
	}
	for _, sub := range s.subs {
		if sub.name == "bandwidth" {
			sub.mu.Lock()
			got := len(sub.notes)
			sub.mu.Unlock()
			if got != want {
				return []string{fmt.Sprintf("bandwidth automaton sent %d notifications, reference says %d", got, want)}
			}
		}
	}
	return nil
}

// --- remote-single ---------------------------------------------------------

const tenantsJSON = `{"tenants": [
  {"name": "t1", "token": "tok-t1", "quota": {"max_events_per_sec": 10000000}},
  {"name": "t2", "token": "tok-t2", "quota": {"max_events_per_sec": 10000000}}
]}`

func setupRemoteSingle(env *env) (*sut, error) {
	dir, err := tempDir(env.tmpBase, "tenants-*")
	if err != nil {
		return nil, err
	}
	file := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(file, []byte(tenantsJSON), 0o600); err != nil {
		return nil, err
	}
	srv, err := startCached(env.cachedBin, "-tenants", file, "-timer", "0")
	if err != nil {
		return nil, err
	}
	s := &sut{srv: srv}
	for i, token := range []string{"tok-t1", "tok-t2"} {
		eng, err := unicache.DialRemote(srv.addr, unicache.WithToken(token))
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, eng)
		if err := execAll(eng, ddlFlows); err != nil {
			return nil, err
		}
		tap, err := s.watch(eng, fmt.Sprintf("watch%d", i+1), "Flows", flowT0, 1)
		if err != nil {
			return nil, err
		}
		src := newRowSource(env.in.flows)
		src.next = i * env.in.flows.n / 2 // the two tenants send different rows
		s.producers = append(s.producers, newProducer(func(t0 int64) (int, error) {
			if err := eng.Insert("Flows", src.batch(1, t0)[0]...); err != nil {
				return 0, err
			}
			tap.want.Add(1)
			return 1, nil
		}))
	}
	s.check = func() []string { return checkTenants(s) }
	return s, nil
}

// checkTenants: admission ran on every commit and refused none.
func checkTenants(s *sut) []string {
	var bad []string
	for _, e := range s.engines {
		st, err := e.Stats()
		switch {
		case err != nil:
			bad = append(bad, "stats: "+err.Error())
		case st.Tenant == nil:
			bad = append(bad, "connection is not tenant-bound")
		case st.Tenant.Rejected != 0:
			bad = append(bad, fmt.Sprintf("tenant %s: %d refusals", st.Tenant.Name, st.Tenant.Rejected))
		}
	}
	return bad
}

// --- pattern-seq -----------------------------------------------------------

// The two patterns. Every predicate is on the symbol and on the volume
// column, which the generator draws independently for each row: a
// partial match then lives a geometrically distributed number of events
// whatever the seed. (Predicates on the random-walk price give lifetimes
// with so heavy a tail that the work per event doubles from one seed to
// the next.) The first step of each is selective (2 % of rows), which
// with these closing steps holds live partial matches near 150.
// progRun is single-topic: a big trade, then a run of above-median
// trades of that symbol, closed by a tiny one. progNoHalt crosses
// topics: a tiny trade followed by a big one of that symbol with no halt
// of the symbol between, so the reorder buffer and the Timer-driven
// watermark are on the path.
func progRun(within string) string {
	return `
subscribe a to Stocks;
subscribe b to Stocks;
subscribe c to Stocks;
pattern {
	match a then b+ then c within ` + within + `;
	where a.volume > 9900 && b.name == a.name && b.volume > 5000
		&& c.name == a.name && c.volume < 200;
	emit c.t0, c.tstamp, a.name, count(b);
}
`
}

func progNoHalt(within string) string {
	return `
subscribe s1 to Stocks;
subscribe h to Halts;
subscribe s2 to Stocks;
pattern {
	match s1 then !h then s2 within ` + within + `;
	where s1.volume < 300 && h.name == s1.name
		&& s2.name == s1.name && s2.volume > 9900;
	emit s2.t0, s2.tstamp, s1.name;
}
`
}

const (
	patternBatch = 16
	// haltEvery: one Halts row follows every haltEvery Stocks batches.
	haltEvery     = 4
	patternWithin = "500 MSECS"
)

// patternProducer alternates haltEvery Stocks batches with one Halts row.
func patternProducer(e unicache.Engine, in *inputs) *producer {
	stocks := newRowSource(in.stocks)
	halts := newRowSource(in.halts)
	calls := 0
	return newProducer(func(t0 int64) (int, error) {
		calls++
		if calls%(haltEvery+1) == 0 {
			return 1, e.Insert("Halts", halts.batch(1, t0)[0]...)
		}
		return patternBatch, e.InsertBatch("Stocks", stocks.batch(patternBatch, t0))
	})
}

func setupPatternSeq(env *env) (*sut, error) {
	s := &sut{}
	eng, err := unicache.NewEmbedded(unicache.Config{
		TimerPeriod:    10 * time.Millisecond,
		PrintWriter:    io.Discard,
		OnRuntimeError: func(int64, error) { s.rtErrs.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	s.engines = []unicache.Engine{eng}
	if err := execAll(eng, ddlStocks, ddlHalts); err != nil {
		return nil, err
	}
	if err := s.register(eng, "run", progRun(patternWithin)); err != nil {
		return nil, err
	}
	if err := s.register(eng, "nohalt", progNoHalt(patternWithin)); err != nil {
		return nil, err
	}
	s.producers = []*producer{patternProducer(eng, env.in)}
	s.cycle = haltEvery + 1
	return s, nil
}

// --- durable-readwrite -----------------------------------------------------

const durableBatch = 64

func setupDurableReadWrite(env *env) (*sut, error) {
	dir, err := tempDir(env.tmpBase, "data-*")
	if err != nil {
		return nil, err
	}
	srv, err := startCached(env.cachedBin, "-data", dir, "-timer", "0")
	if err != nil {
		return nil, err
	}
	s := &sut{srv: srv}
	writer, err := unicache.DialRemote(srv.addr)
	if err != nil {
		return nil, err
	}
	s.engines = append(s.engines, writer)
	reader, err := unicache.DialRemote(srv.addr)
	if err != nil {
		return nil, err
	}
	s.engines = append(s.engines, reader)
	if err := execAll(writer, ddlFlows, ddlHosts); err != nil {
		return nil, err
	}
	tap, err := s.watch(reader, "watch", "Flows", flowT0, durableBatch)
	if err != nil {
		return nil, err
	}
	flows := newRowSource(env.in.flows)
	hosts := newRowSource(env.in.hosts)
	calls := 0
	s.producers = []*producer{newProducer(func(t0 int64) (int, error) {
		calls++
		if calls%2 == 0 {
			return durableBatch, writer.InsertBatch("Hosts", hosts.batch(durableBatch, t0))
		}
		if err := writer.InsertBatch("Flows", flows.batch(durableBatch, t0)); err != nil {
			return 0, err
		}
		tap.want.Add(durableBatch)
		return durableBatch, nil
	})}
	// The reader alternates the windowed aggregate with a point lookup of
	// a key the set-up probe is known to have inserted.
	probed := env.in.hosts.rows(0, durableBatch)
	queries := 0
	s.reader = newProducer(func(int64) (int, error) {
		queries++
		q := `select dstip, sum(nbytes) from Flows [range 500 milliseconds] group by dstip`
		if queries%2 == 0 {
			key, _ := probed[queries/2%durableBatch][0].AsStr()
			q = `select nbytes from Hosts where ipaddr = '` + key + `'`
		}
		res, err := reader.Exec(q)
		if err == nil && len(res.Rows) == 0 {
			err = fmt.Errorf("%s: no rows", q)
		}
		return 0, err
	})
	s.cycle = 2
	return s, nil
}

// recoverDurable measures recover_s on a live durable-readwrite SUT:
// preload ledgerRows acked rows under distinct keys, SIGKILL the server,
// restart it on the same -data dir, and time spawn → `select count(*)`
// answers. The answer must equal the acked count.
const ledgerRows = 400_000

func recoverDurable(s *sut) (seconds float64, bad []string) {
	w := s.engines[0]
	if err := execAll(w, `create persistenttable Ledger (id integer primary key, nbytes integer)`); err != nil {
		return 0, []string{err.Error()}
	}
	const chunk = 4000
	acked := 0
	for base := 0; base < ledgerRows; base += chunk {
		vals := make([]types.Value, 2*chunk)
		rows := make([][]types.Value, chunk)
		for i := range rows {
			vals[2*i], vals[2*i+1] = types.Int(int64(base+i)), types.Int(int64(i))
			rows[i] = vals[2*i : 2*i+2]
		}
		if err := w.InsertBatch("Ledger", rows); err != nil {
			return 0, []string{"ledger preload: " + err.Error()}
		}
		acked += chunk
	}
	for _, e := range s.engines {
		_ = e.Close()
	}
	s.engines = nil
	s.srv.kill()
	start := time.Now()
	if err := s.srv.spawn(); err != nil {
		return 0, []string{"restart: " + err.Error()}
	}
	e, err := unicache.DialRemote(s.srv.addr)
	if err != nil {
		return 0, []string{"redial: " + err.Error()}
	}
	s.engines = []unicache.Engine{e}
	res, err := e.Exec(`select count(*) from Ledger`)
	seconds = time.Since(start).Seconds()
	if err != nil {
		return seconds, []string{"count after recovery: " + err.Error()}
	}
	if got, _ := res.Rows[0][0].NumAsInt(); got != int64(acked) {
		bad = append(bad, fmt.Sprintf("recovered %d ledger rows, %d were acked", got, acked))
	}
	return seconds, bad
}
