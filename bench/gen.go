package main

import (
	"fmt"
	"math/rand"

	"unicache/internal/types"
	"unicache/internal/wire"
	"unicache/internal/workload"
)

// Table definitions the workloads create. Every stream table carries a
// trailing integer column t0: the generator's creation stamp
// (time.Now().UnixNano(), or the due time in a paced phase), which
// notifications carry back so latency needs no hook inside the system.
const (
	ddlFlows = `create table Flows (protocol integer, srcip varchar(16), sport integer,
		dstip varchar(16), dport integer, npkts integer, nbytes integer, t0 integer)`
	ddlAllowances = `create persistenttable Allowances (ipaddr varchar(16) primary key, bytes integer)`
	ddlBWUsage    = `create persistenttable BWUsage (ipaddr varchar(16) primary key, bytes integer)`
	ddlHosts      = `create persistenttable Hosts (ipaddr varchar(16) primary key, nbytes integer, t0 integer)`
	ddlStocks     = `create table Stocks (name varchar(8), price real, volume integer, t0 integer)`
	ddlHalts      = `create table Halts (name varchar(8), t0 integer)`
)

// Column positions the harness and the reference computations read.
const (
	flowDstIP  = 3
	flowNBytes = 6
	flowT0     = 7
	hostT0     = 2
	stockName  = 0
	stockVol   = 2
	stockT0    = 3
	haltT0     = 1
)

const (
	// poolRows is how many distinct rows each generated pool holds;
	// producers cycle through a pool, so a run of any length is a pure
	// function of the seed. It is large so that what a run's cost depends
	// on (how many rows pass a pattern's 1 % and 2 % predicates, how
	// often a host trips its allowance) varies little from seed to seed.
	poolRows = 1 << 16
	// flowHosts is the number of distinct destination hosts in the flow
	// pool: the group count of the windowed query and the key count of
	// the Fig. 4 automaton's persistent tables.
	flowHosts = 64
	// hostKeys is the number of distinct primary keys the Hosts upserts
	// cycle over.
	hostKeys = 4096
	// stockSymbols is the number of distinct stock symbols.
	stockSymbols = 50
	// allowance is every host's byte allowance in the Fig. 4 automaton:
	// 64 mean-sized flows, so that with 64 hosts about one event in 64
	// trips a send.
	allowance = 64 * 75032
)

// pool is one table's generated rows. The rows are kept as integers and
// indexes into small string tables, not as []types.Value, so that the
// collector of the bench process (which is also the SUT's collector in
// the embedded workloads) has nothing to scan in them; row materialises
// one on demand.
type pool struct {
	n, width, t0col int
	// row writes row i into dst (width values, t0 zero).
	row func(dst []types.Value, i int)
}

// rows materialises n rows starting at row i (cyclically).
func (p *pool) rows(i, n int) [][]types.Value {
	vals := make([]types.Value, n*p.width)
	out := make([][]types.Value, n)
	for k := range out {
		out[k] = vals[k*p.width : (k+1)*p.width : (k+1)*p.width]
		p.row(out[k], (i+k)%p.n)
	}
	return out
}

// inputs is everything a run generates from its seed. The SUT sees only
// these rows (with t0 filled in at send time).
type inputs struct {
	flows, hosts, stocks, halts *pool
}

// strTable interns strings as types.Value cells.
type strTable struct {
	index map[string]uint16
	cells []types.Value
}

func (t *strTable) id(s string) uint16 {
	if id, ok := t.index[s]; ok {
		return id
	}
	if t.index == nil {
		t.index = make(map[string]uint16)
	}
	id := uint16(len(t.cells))
	t.index[s] = id
	t.cells = append(t.cells, types.Str(s))
	return id
}

func generate(seed int64) *inputs {
	return &inputs{
		flows:  genFlows(seed),
		hosts:  genHosts(seed),
		stocks: genStocks(seed),
		halts:  genHalts(seed),
	}
}

// genFlows: workload.FlowTrace rows in the paper's Fig. 3 Flows schema.
func genFlows(seed int64) *pool {
	type flow struct {
		proto, sport, dport, npkts, nbytes int64
		src, dst                           uint16
	}
	var ips strTable
	rows := make([]flow, poolRows)
	for i, f := range workload.FlowTrace(seed, poolRows, flowHosts) {
		rows[i] = flow{f.Protocol, f.SrcPort, f.DstPort, f.NPkts, f.NBytes, ips.id(f.SrcIP), ips.id(f.DstIP)}
	}
	return &pool{n: poolRows, width: 8, t0col: flowT0, row: func(dst []types.Value, i int) {
		f := &rows[i]
		dst[0], dst[1], dst[2] = types.Int(f.proto), ips.cells[f.src], types.Int(f.sport)
		dst[3], dst[4], dst[5] = ips.cells[f.dst], types.Int(f.dport), types.Int(f.npkts)
		dst[6], dst[7] = types.Int(f.nbytes), types.Int(0)
	}}
}

// genHosts: upserts into the persistent Hosts table over hostKeys keys.
func genHosts(seed int64) *pool {
	type host struct {
		key    uint16
		nbytes int64
	}
	var keys strTable
	for k := 0; k < hostKeys; k++ {
		keys.id(fmt.Sprintf("10.1.%d.%d", k/256, k%256))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rows := make([]host, poolRows)
	for i := range rows {
		rows[i] = host{uint16(rng.Intn(hostKeys)), int64(64 + rng.Intn(150_000))}
	}
	return &pool{n: poolRows, width: 3, t0col: hostT0, row: func(dst []types.Value, i int) {
		dst[0], dst[1], dst[2] = keys.cells[rows[i].key], types.Int(rows[i].nbytes), types.Int(0)
	}}
}

// genStocks: workload.StockTrace ticks (random-walk prices, volumes
// drawn independently per tick).
func genStocks(seed int64) *pool {
	type tick struct {
		price  float64
		volume int64
		name   uint16
	}
	var names strTable
	cfg := workload.StockConfig{Seed: seed, Events: poolRows, Symbols: stockSymbols, RunLength: 8, Runs: poolRows / 256}
	rows := make([]tick, poolRows)
	for i, s := range workload.StockTrace(cfg) {
		rows[i] = tick{s.Price, s.Volume, names.id(s.Name)}
	}
	return &pool{n: poolRows, width: 4, t0col: stockT0, row: func(dst []types.Value, i int) {
		t := &rows[i]
		dst[0], dst[1], dst[2], dst[3] = names.cells[t.name], types.Real(t.price), types.Int(t.volume), types.Int(0)
	}}
}

// genHalts: trading halts of random symbols.
func genHalts(seed int64) *pool {
	var names strTable
	for k := 0; k < stockSymbols; k++ {
		names.id(fmt.Sprintf("SYM%03d", k))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x4a17))
	rows := make([]uint16, poolRows/16)
	for i := range rows {
		rows[i] = uint16(rng.Intn(stockSymbols))
	}
	return &pool{n: len(rows), width: 2, t0col: haltT0, row: func(dst []types.Value, i int) {
		dst[0], dst[1] = names.cells[rows[i]], types.Int(0)
	}}
}

// encode serialises every pool with the system's own wire encoding; the
// determinism test compares these bytes across seeds.
func (in *inputs) encode() ([]byte, error) {
	enc := wire.NewEncoder(1 << 20)
	for _, p := range []*pool{in.flows, in.hosts, in.stocks, in.halts} {
		if err := enc.Rows(p.rows(0, p.n)); err != nil {
			return nil, err
		}
	}
	return enc.Bytes(), nil
}

// rowSource deals rows out of a pool in order, forever. Each batch gets
// a fresh backing array because the embedded commit path keeps the value
// slices it is handed (ownership of a row passes to the engine).
type rowSource struct {
	pool *pool
	next int // rows dealt so far; next%pool.n is the next row
	rows [][]types.Value
}

func newRowSource(p *pool) *rowSource { return &rowSource{pool: p} }

// batch returns the next n rows stamped with t0. The returned slice of
// rows is reused by the next call; the rows themselves are not.
func (s *rowSource) batch(n int, t0 int64) [][]types.Value {
	p := s.pool
	vals := make([]types.Value, n*p.width)
	s.rows = s.rows[:0]
	for i := 0; i < n; i++ {
		row := vals[i*p.width : (i+1)*p.width : (i+1)*p.width]
		p.row(row, s.next%p.n)
		row[p.t0col] = types.Int(t0)
		s.next++
		s.rows = append(s.rows, row)
	}
	return s.rows
}
