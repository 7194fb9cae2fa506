package cep

import (
	"fmt"
	"math"
	"sort"

	"unicache/internal/types"
	"unicache/internal/wire"
)

// Machine is the NFA runtime for one pattern automaton instance. It
// consumes events in arbitrary arrival order, buffers them until the
// watermark promises completeness, then runs them through the partial
// matches in canonical application-time order. See doc.go for the
// semantics and the concurrency contract.
type Machine struct {
	pat *Pattern

	// OnMatch receives each match tuple in completion order. OnError
	// receives emit-evaluation and sink errors. Neither may call back
	// into the Machine.
	OnMatch func(vals []types.Value) error
	OnError func(err error)

	wm        types.Timestamp            // watermark: all events ≤ wm processed
	heartbeat types.Timestamp            // latest Timer punctuation seen
	topicLast map[string]types.Timestamp // latest event time per step topic
	buf       []*types.Event             // fed but not yet released
	partials  []*partial                 // live partial matches, in creation order
	nextSeq   uint64
	nMatches  uint64
}

// partial is one partial match: the events bound so far and the position
// of the next positive step to satisfy. at == len(Steps) means all
// positive steps are bound and the match is pending its deadline behind
// trailing negation guards.
type partial struct {
	seq             uint64
	at              int
	open            bool // at is a Kleene step with ≥1 collected instance
	start, deadline types.Timestamp
	bind            []*types.Event
	insts           [][]*types.Event
}

type action uint8

const (
	keep action = iota
	kill
	complete
)

// NewMachine returns a Machine for the compiled pattern.
func NewMachine(pat *Pattern) *Machine {
	return &Machine{pat: pat, topicLast: make(map[string]types.Timestamp)}
}

// Pattern returns the compiled pattern the machine runs.
func (m *Machine) Pattern() *Pattern { return m.pat }

// Matches returns the number of matches emitted so far.
func (m *Machine) Matches() uint64 { return m.nMatches }

// Partials returns the number of live partial matches (buffered events
// not included).
func (m *Machine) Partials() int { return len(m.partials) }

// evLess is the canonical total order on events: application timestamp,
// then topic, then per-topic commit sequence. Every ordering decision in
// the machine — and in the reference oracle — uses this key.
func evLess(a, b *types.Event) bool {
	if a.Tuple.TS != b.Tuple.TS {
		return a.Tuple.TS < b.Tuple.TS
	}
	if a.Topic != b.Topic {
		return a.Topic < b.Topic
	}
	return a.Tuple.Seq < b.Tuple.Seq
}

// Feed hands the machine one event. Committed events are immutable, so the
// machine keeps the pointer; it is buffered until an AdvanceTo watermark
// releases it. An
// event at or before the current watermark is late: it is run through
// the partial matches immediately, best-effort. Events on topics no
// pattern step subscribes to are ignored — they can never bind.
func (m *Machine) Feed(ev *types.Event) {
	if _, ok := m.pat.schemaOf[ev.Topic]; !ok {
		return
	}
	if ev.Tuple.TS <= m.wm {
		m.process(ev)
		return
	}
	m.buf = append(m.buf, ev)
}

// AdvanceTo moves the watermark to t — a promise that no event with
// timestamp ≤ t will be fed later (Timer punctuation in-system). Buffered
// events up to t are released in canonical order and expired partial
// matches are retired: pending matches behind trailing negation or
// Kleene steps whose deadline has passed emit, everything else expired
// is dropped.
func (m *Machine) AdvanceTo(t types.Timestamp) {
	if t <= m.wm {
		return
	}
	m.wm = t
	sort.Slice(m.buf, func(i, j int) bool { return evLess(m.buf[i], m.buf[j]) })
	n := 0
	for n < len(m.buf) && m.buf[n].Tuple.TS <= t {
		m.retire(m.buf[n].Tuple.TS, false)
		m.process(m.buf[n])
		n++
	}
	m.buf = append(m.buf[:0:0], m.buf[n:]...)
	m.retire(t, true)
}

// ObserveBatch is the system entry point: one drained dispatcher run
// feeds the NFA in a single activation. Timer-topic events advance the
// heartbeat; everything else is fed and the per-topic watermark
// (min over step topics of max(last event time, heartbeat)) is advanced
// once at the end of the run.
func (m *Machine) ObserveBatch(evs []*types.Event) {
	for _, ev := range evs {
		ts := ev.Tuple.TS
		if ev.Topic == types.TimerTopic {
			if ts > m.heartbeat {
				m.heartbeat = ts
			}
			if _, subscribed := m.pat.schemaOf[types.TimerTopic]; !subscribed {
				continue
			}
		}
		if _, ok := m.pat.schemaOf[ev.Topic]; !ok {
			continue
		}
		if ts > m.topicLast[ev.Topic] {
			m.topicLast[ev.Topic] = ts
		}
		m.Feed(ev)
	}
	m.AdvanceTo(m.watermark())
}

// watermark computes the releasable horizon: an event at time t can only
// be ordered once every step topic has either shown an event ≥ t or the
// shared Timer heartbeat has passed t.
func (m *Machine) watermark() types.Timestamp {
	wm := types.Timestamp(math.MaxInt64)
	for _, topic := range m.pat.Topics() {
		last := m.topicLast[topic]
		if m.heartbeat > last {
			last = m.heartbeat
		}
		if last < wm {
			wm = last
		}
	}
	if wm == math.MaxInt64 {
		wm = m.heartbeat
	}
	return wm
}

// retire removes expired partial matches: deadline < t (or ≤ t when
// inclusive — the watermark itself proves no further event can reach the
// match). Completable matches — all positive steps bound, or an open
// trailing Kleene step — emit in (deadline, creation) order; the rest
// are dropped.
func (m *Machine) retire(t types.Timestamp, inclusive bool) {
	var done []*partial
	live := m.partials[:0]
	for _, pm := range m.partials {
		expired := pm.deadline < t || (inclusive && pm.deadline == t)
		if !expired {
			live = append(live, pm)
			continue
		}
		if pm.at == len(m.pat.Steps) || (pm.open && m.pat.nextPos[pm.at] < 0) {
			done = append(done, pm)
		}
	}
	m.partials = live
	sort.Slice(done, func(i, j int) bool {
		if done[i].deadline != done[j].deadline {
			return done[i].deadline < done[j].deadline
		}
		return done[i].seq < done[j].seq
	})
	for _, pm := range done {
		m.emit(pm)
	}
}

// process runs one released event through every live partial match in
// creation order (kill by negation guard, close/extend Kleene, bind the
// next step), then lets the event open a fresh partial match —
// skip-till-next-match: every qualifying first-step event starts its own
// match and irrelevant events are skipped, never consumed.
func (m *Machine) process(ev *types.Event) {
	live := m.partials[:0]
	for _, pm := range m.partials {
		switch m.step(pm, ev) {
		case keep:
			live = append(live, pm)
		case kill:
			// dropped
		case complete:
			m.emit(pm)
		}
	}
	m.partials = live
	m.tryStart(ev)
}

// step advances one partial match by one event.
func (m *Machine) step(pm *partial, ev *types.Event) action {
	lo, hi := m.guardRange(pm)
	for g := lo + 1; g < hi; g++ {
		st := &m.pat.Steps[g]
		if st.Negated && ev.Topic == st.Topic && m.pass(pm, g, ev) {
			return kill
		}
	}
	if pm.at >= len(m.pat.Steps) {
		return keep // pending behind trailing negation until the deadline
	}
	cur := &m.pat.Steps[pm.at]
	if pm.open {
		// Closing the Kleene run has priority over extending it.
		if np := m.pat.nextPos[pm.at]; np >= 0 {
			nst := &m.pat.Steps[np]
			if ev.Topic == nst.Topic && m.pass(pm, np, ev) {
				pm.bind[np] = ev
				return m.advance(pm, np)
			}
		}
		if ev.Topic == cur.Topic && m.pass(pm, pm.at, ev) {
			pm.insts[pm.at] = append(pm.insts[pm.at], ev)
		}
		return keep
	}
	if ev.Topic == cur.Topic && m.pass(pm, pm.at, ev) {
		if cur.Kleene {
			pm.insts[pm.at] = append(pm.insts[pm.at], ev)
			pm.open = true
			return keep
		}
		pm.bind[pm.at] = ev
		return m.advance(pm, pm.at)
	}
	return keep
}

// guardRange returns the exclusive step-index range (lo, hi) whose
// negated steps currently guard the partial match: the negations between
// the last bound positive step and the next expected one (an open Kleene
// step counts as bound).
func (m *Machine) guardRange(pm *partial) (lo, hi int) {
	if pm.at >= len(m.pat.Steps) {
		return m.pat.lastPos, len(m.pat.Steps)
	}
	if pm.open {
		hi = m.pat.nextPos[pm.at]
		if hi < 0 {
			hi = len(m.pat.Steps)
		}
		return pm.at, hi
	}
	return m.pat.prevPos[pm.at], pm.at
}

// advance moves past a freshly bound positive step: on to the next
// positive step, into the pending state behind trailing negations, or to
// completion.
func (m *Machine) advance(pm *partial, bound int) action {
	if np := m.pat.nextPos[bound]; np >= 0 {
		pm.at, pm.open = np, false
		return keep
	}
	if m.pat.trailing {
		pm.at, pm.open = len(m.pat.Steps), false
		return keep
	}
	return complete
}

// pass evaluates a step's filters with ev as the step's candidate
// binding.
func (m *Machine) pass(pm *partial, i int, ev *types.Event) bool {
	st := &m.pat.Steps[i]
	if len(st.Filters) == 0 {
		return true
	}
	old := pm.bind[i]
	pm.bind[i] = ev
	e := env{p: m.pat, bind: pm.bind, insts: pm.insts}
	ok := true
	for _, f := range st.Filters {
		if !e.evalBool(f) {
			ok = false
			break
		}
	}
	pm.bind[i] = old
	return ok
}

// tryStart opens a new partial match if ev qualifies for the first step.
func (m *Machine) tryStart(ev *types.Event) {
	st0 := &m.pat.Steps[0]
	if ev.Topic != st0.Topic {
		return
	}
	n := len(m.pat.Steps)
	pm := &partial{
		seq:   m.nextSeq,
		start: ev.Tuple.TS,
		bind:  make([]*types.Event, n),
		insts: make([][]*types.Event, n),
	}
	if !m.pass(pm, 0, ev) {
		return
	}
	m.nextSeq++
	pm.deadline = types.Timestamp(math.MaxInt64)
	if m.pat.Within > 0 {
		pm.deadline = pm.start + types.Timestamp(m.pat.Within)
	}
	if st0.Kleene {
		pm.insts[0] = append(pm.insts[0], ev)
		pm.open = true
		m.partials = append(m.partials, pm)
		return
	}
	pm.bind[0] = ev
	if m.advance(pm, 0) == complete {
		m.emit(pm)
		return
	}
	m.partials = append(m.partials, pm)
}

// emit evaluates the emit list over a completed match and hands the
// tuple to OnMatch. Evaluation errors skip the match and are reported
// through OnError — the oracle applies the identical rule.
func (m *Machine) emit(pm *partial) {
	e := env{p: m.pat, bind: pm.bind, insts: pm.insts}
	vals, err := e.evalEmit(m.pat.Emit)
	if err != nil {
		m.error(err)
		return
	}
	m.nMatches++
	if m.OnMatch != nil {
		if err := m.OnMatch(vals); err != nil {
			m.error(err)
		}
	}
}

func (m *Machine) error(err error) {
	if m.OnError != nil {
		m.OnError(err)
	}
}

// StateVar is the reserved variable name under which a pattern
// automaton's machine snapshot rides the WAL meta log. Pattern programs
// declare no variables, so the name cannot collide.
const StateVar = "__cep"

// snapshotVersion tags the wire layout of Snapshot/Restore.
const snapshotVersion = 1

// Snapshot serialises the machine's complete matching state — watermark,
// heartbeat, per-topic horizons, reorder buffer, partial matches and the
// match counter — into a string value that survives the WAL meta-log
// round trip (wal.EncodeAutomaton persists scalar variable values
// verbatim).
func (m *Machine) Snapshot() (types.Value, error) {
	enc := wire.NewEncoder(256)
	enc.U8(snapshotVersion)
	enc.I64(int64(m.wm))
	enc.I64(int64(m.heartbeat))
	topics := m.pat.Topics()
	enc.U32(uint32(len(topics)))
	for _, topic := range topics {
		enc.Str(topic)
		enc.I64(int64(m.topicLast[topic]))
	}
	buf := append([]*types.Event(nil), m.buf...)
	sort.Slice(buf, func(i, j int) bool { return evLess(buf[i], buf[j]) })
	enc.U32(uint32(len(buf)))
	for _, ev := range buf {
		if err := encodeEvent(enc, ev); err != nil {
			return types.Nil, err
		}
	}
	enc.U64(m.nextSeq)
	enc.U64(m.nMatches)
	enc.U32(uint32(len(m.partials)))
	for _, pm := range m.partials {
		enc.U64(pm.seq)
		enc.U32(uint32(pm.at))
		if pm.open {
			enc.U8(1)
		} else {
			enc.U8(0)
		}
		enc.I64(int64(pm.start))
		enc.I64(int64(pm.deadline))
		for i := range m.pat.Steps {
			if pm.bind[i] != nil {
				enc.U8(1)
				if err := encodeEvent(enc, pm.bind[i]); err != nil {
					return types.Nil, err
				}
			} else {
				enc.U8(0)
			}
			enc.U32(uint32(len(pm.insts[i])))
			for _, ev := range pm.insts[i] {
				if err := encodeEvent(enc, ev); err != nil {
					return types.Nil, err
				}
			}
		}
	}
	return types.Str(string(enc.Bytes())), nil
}

// Restore replaces the machine's state with a previously snapshotted
// one. The machine must be freshly created for the same pattern.
func (m *Machine) Restore(v types.Value) error {
	s, ok := v.AsStr()
	if !ok {
		return fmt.Errorf("cep: snapshot value has kind %s, want string", v.Kind())
	}
	d := wire.NewDecoder([]byte(s))
	ver, err := d.U8()
	if err != nil {
		return fmt.Errorf("cep: corrupt snapshot: %w", err)
	}
	if ver != snapshotVersion {
		return fmt.Errorf("cep: snapshot version %d not supported", ver)
	}
	wm, err := d.I64()
	if err != nil {
		return err
	}
	hb, err := d.I64()
	if err != nil {
		return err
	}
	m.wm, m.heartbeat = types.Timestamp(wm), types.Timestamp(hb)
	ntop, err := d.U32()
	if err != nil {
		return err
	}
	m.topicLast = make(map[string]types.Timestamp, ntop)
	for i := uint32(0); i < ntop; i++ {
		topic, err := d.Str()
		if err != nil {
			return err
		}
		ts, err := d.I64()
		if err != nil {
			return err
		}
		m.topicLast[topic] = types.Timestamp(ts)
	}
	nbuf, err := d.U32()
	if err != nil {
		return err
	}
	m.buf = m.buf[:0]
	for i := uint32(0); i < nbuf; i++ {
		ev, err := m.decodeEvent(d)
		if err != nil {
			return err
		}
		m.buf = append(m.buf, ev)
	}
	if m.nextSeq, err = d.U64(); err != nil {
		return err
	}
	if m.nMatches, err = d.U64(); err != nil {
		return err
	}
	npart, err := d.U32()
	if err != nil {
		return err
	}
	m.partials = m.partials[:0]
	for i := uint32(0); i < npart; i++ {
		pm := &partial{
			bind:  make([]*types.Event, len(m.pat.Steps)),
			insts: make([][]*types.Event, len(m.pat.Steps)),
		}
		if pm.seq, err = d.U64(); err != nil {
			return err
		}
		at, err := d.U32()
		if err != nil {
			return err
		}
		if int(at) > len(m.pat.Steps) {
			return fmt.Errorf("cep: snapshot partial position %d out of range", at)
		}
		pm.at = int(at)
		open, err := d.U8()
		if err != nil {
			return err
		}
		pm.open = open != 0
		start, err := d.I64()
		if err != nil {
			return err
		}
		deadline, err := d.I64()
		if err != nil {
			return err
		}
		pm.start, pm.deadline = types.Timestamp(start), types.Timestamp(deadline)
		for j := range m.pat.Steps {
			has, err := d.U8()
			if err != nil {
				return err
			}
			if has != 0 {
				if pm.bind[j], err = m.decodeEvent(d); err != nil {
					return err
				}
			}
			ninst, err := d.U32()
			if err != nil {
				return err
			}
			for k := uint32(0); k < ninst; k++ {
				ev, err := m.decodeEvent(d)
				if err != nil {
					return err
				}
				pm.insts[j] = append(pm.insts[j], ev)
			}
		}
		m.partials = append(m.partials, pm)
	}
	return nil
}

func encodeEvent(enc *wire.Encoder, ev *types.Event) error {
	enc.Str(ev.Topic)
	enc.U64(ev.Tuple.Seq)
	enc.I64(int64(ev.Tuple.TS))
	return enc.Values(ev.Tuple.Vals)
}

func (m *Machine) decodeEvent(d *wire.Decoder) (*types.Event, error) {
	topic, err := d.Str()
	if err != nil {
		return nil, err
	}
	schema := m.pat.schemaOf[topic]
	if schema == nil {
		return nil, fmt.Errorf("cep: snapshot references unknown topic %q", topic)
	}
	seq, err := d.U64()
	if err != nil {
		return nil, err
	}
	ts, err := d.I64()
	if err != nil {
		return nil, err
	}
	vals, err := d.Values()
	if err != nil {
		return nil, err
	}
	return &types.Event{
		Topic:  topic,
		Schema: schema,
		Tuple:  &types.Tuple{Seq: seq, TS: types.Timestamp(ts), Vals: vals},
	}, nil
}
