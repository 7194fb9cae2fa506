// Package vm implements the stack machine that animates compiled automata
// (§5 of the paper). Each automaton's initialization and behavior clauses
// are byte-code sequences bound to one VM instance; the automaton runtime
// calls RunInit once and Deliver for every event arriving on a subscribed
// topic.
package vm

import (
	"fmt"

	"unicache/internal/gapl"
	"unicache/internal/types"
)

// Host is the surface through which an automaton reaches the rest of the
// system: the cache clock, publish/send, and the persistent tables bound by
// associate headers. The automaton runtime implements it.
type Host interface {
	// Now returns the cache clock.
	Now() types.Timestamp
	// Publish inserts a tuple into another table/topic (the publish()
	// built-in); it flows through the cache commit path and may trigger
	// other automata.
	Publish(topic string, vals []types.Value) error
	// Send delivers values to the registering application over RPC (the
	// send() built-in).
	Send(vals []types.Value) error
	// Print emits a diagnostic line (the print() built-in).
	Print(s string)
	// AssocLookup returns the row for key as a sequence.
	AssocLookup(tbl, key string) (types.Value, bool, error)
	// AssocInsert upserts a row (a sequence, or a scalar for two-column
	// tables) under key.
	AssocInsert(tbl, key string, v types.Value) error
	// AssocHas reports whether a row exists for key.
	AssocHas(tbl, key string) (bool, error)
	// AssocRemove deletes the row for key, reporting whether it existed.
	AssocRemove(tbl, key string) (bool, error)
	// AssocSize returns the number of rows.
	AssocSize(tbl string) (int, error)
}

// VM executes one compiled automaton.
type VM struct {
	prog *gapl.Compiled
	host Host
	// MaxSteps bounds the number of instructions per clause execution;
	// 0 means unlimited. It protects tests against accidental infinite
	// loops in behaviour clauses.
	MaxSteps int

	slots     []types.Value
	stack     []types.Value
	topicSlot map[string]int
	curTopic  string

	// run is the batch of events bound to the current activation: the
	// whole drained run for a batchable behaviour under DeliverBatch, a
	// single event under Deliver. The run-aware builtins (appendRun,
	// runSize) read it; one holds the per-event case without allocating.
	run []*types.Event
	one [1]*types.Event
	// batchVals/batchTs are scratch buffers reused by OpAppendRun so a
	// batch append costs no per-activation allocation once warm.
	batchVals []types.Value
	batchTs   []types.Timestamp

	// Compiled closure chains for the two clauses, built
	// lazily on first execution; nil with the flag set means the clause
	// declined compilation and stays on the interpreter.
	initSteps    []step
	behSteps     []step
	initCompiled bool
	behCompiled  bool
}

// New binds a compiled-and-bound automaton to a host.
func New(prog *gapl.Compiled, host Host) (*VM, error) {
	if prog == nil || host == nil {
		return nil, fmt.Errorf("vm: nil program or host")
	}
	if !prog.Bound() {
		return nil, fmt.Errorf("vm: program must be bound against schemas before execution")
	}
	m := &VM{
		prog:      prog,
		host:      host,
		slots:     make([]types.Value, len(prog.Slots)),
		stack:     make([]types.Value, 0, 64),
		topicSlot: make(map[string]int),
	}
	for i, s := range prog.Slots {
		switch s.Role {
		case gapl.SlotSub:
			if _, dup := m.topicSlot[s.Topic]; dup {
				return nil, fmt.Errorf("vm: automaton subscribes to topic %q twice", s.Topic)
			}
			m.topicSlot[s.Topic] = i
		case gapl.SlotAssoc:
			m.slots[i] = types.AssocV(&types.Assoc{Table: s.Table})
		case gapl.SlotVar:
			m.slots[i] = zeroValue(s.Kind)
		}
	}
	return m, nil
}

// zeroValue gives declared scalars a C-like zero initialisation; aggregates
// stay nil until constructed.
func zeroValue(k types.Kind) types.Value {
	switch k {
	case types.KindInt:
		return types.Int(0)
	case types.KindReal:
		return types.Real(0)
	case types.KindBool:
		return types.Bool(false)
	case types.KindString:
		return types.Str("")
	case types.KindIdentifier:
		return types.Ident("")
	case types.KindTstamp:
		return types.Stamp(0)
	}
	return types.Nil
}

// RunInit executes the initialization clause (if any).
func (m *VM) RunInit() error {
	if m.prog.Init == nil {
		return nil
	}
	return m.exec(m.prog.Init)
}

// Deliver binds ev to its subscription variable and executes the behavior
// clause — one activation per event, the paper's semantics. The current
// run is the single event, so run-aware builtins degenerate correctly
// (runSize() == 1, appendRun appends one value).
func (m *VM) Deliver(ev *types.Event) error {
	slot, ok := m.topicSlot[ev.Topic]
	if !ok {
		return fmt.Errorf("vm: not subscribed to topic %q", ev.Topic)
	}
	// The subscription slot holds the event across activations: GAPL code
	// may read f.attr on a later activation of another subscription.
	m.slots[slot] = types.EventV(ev)
	m.curTopic = ev.Topic
	m.one[0] = ev
	m.run = m.one[:]
	return m.exec(m.prog.Behavior)
}

// DeliverBatch binds a whole drained run and executes the behavior clause
// ONCE for all of it — the batch activation that amortises interpreter
// dispatch over the run. It is only legal for programs the compiler
// classified batchable (Compiled.BatchableBehavior): such behaviours never
// observe an individual event, so executing once per run is their defined
// semantics. Events of several subscribed topics may interleave in one
// run; appendRun filters by its subscription's topic. The caller must not
// mutate evs until DeliverBatch returns; the VM does not retain the slice.
func (m *VM) DeliverBatch(evs []*types.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if !m.prog.BatchableBehavior {
		return fmt.Errorf("vm: behaviour is per-event, not batchable; use Deliver")
	}
	for _, ev := range evs {
		if _, ok := m.topicSlot[ev.Topic]; !ok {
			return fmt.Errorf("vm: not subscribed to topic %q", ev.Topic)
		}
	}
	// Subscription slots stay unbound on purpose: a batchable behaviour is
	// statically barred from reading them, and skipping the per-event slot
	// stores is part of the amortisation.
	m.curTopic = evs[0].Topic
	m.run = evs
	return m.exec(m.prog.Behavior)
}

// VisitVars calls fn with every declared variable slot (SlotVar) and its
// current value, in slot order. The automaton runtime uses it to cut a
// durable snapshot of automaton state; the caller must hold whatever lock
// serialises it against Deliver.
func (m *VM) VisitVars(fn func(name string, v types.Value)) {
	for i, s := range m.prog.Slots {
		if s.Role == gapl.SlotVar {
			fn(s.Name, m.slots[i])
		}
	}
}

// RestoreVar reinstates a snapshotted variable after RunInit. Scalars
// replace the slot value. A saved window merges into the window the init
// clause constructed — the snapshot carries contents (values and their
// append timestamps), the init clause carries the eviction policy — and
// the constraint is re-applied at now; if init built no window the saved
// row-constrained snapshot is installed as-is. Unknown names are ignored:
// the automaton source may have changed since the snapshot.
func (m *VM) RestoreVar(name string, v types.Value, now types.Timestamp) error {
	for i, s := range m.prog.Slots {
		if s.Role != gapl.SlotVar || s.Name != name {
			continue
		}
		if v.Kind() == types.KindWindow {
			if cur := m.slots[i].Win(); cur != nil {
				saved := v.Win()
				for j := 0; j < saved.Len(); j++ {
					if err := cur.Append(saved.At(j), saved.TsAt(j)); err != nil {
						return fmt.Errorf("vm: restoring window %q: %w", name, err)
					}
				}
				cur.ExpireAt(now)
				return nil
			}
		}
		if s.Kind != types.KindNil && v.Kind() != s.Kind {
			conv, err := types.ConvertAssign(s.Kind, v)
			if err != nil {
				return fmt.Errorf("vm: restoring %q: %w", name, err)
			}
			v = conv
		}
		m.slots[i] = v
		return nil
	}
	return nil
}

// Slot returns the current value of the named variable (test hook).
func (m *VM) Slot(name string) (types.Value, bool) {
	for i, s := range m.prog.Slots {
		if s.Name == name {
			return m.slots[i], true
		}
	}
	return types.Nil, false
}

// appendRun implements OpAppendRun: pop a window, then append attribute
// ins.B (-1 = tstamp pseudo-attribute, -2 = the whole event as a sequence)
// of every run event whose topic matches subscription slot ins.A. Values
// are stamped with their event's commit timestamp and the window's
// ROWS/SECS/MSECS constraint is enforced once for the whole run — the
// batch-append amortisation.
func (m *VM) appendRun(ins gapl.Instr) error {
	w := m.pop().Win()
	if w == nil {
		return fmt.Errorf("appendRun() needs a window first")
	}
	topic := m.prog.Slots[ins.A].Topic
	col := int(ins.B)
	vals := m.batchVals[:0]
	tss := m.batchTs[:0]
	for _, ev := range m.run {
		if ev.Topic != topic {
			continue
		}
		if col == -2 {
			vals = append(vals, types.SeqV(ev.AsSequence()))
		} else {
			vals = append(vals, ev.FieldAt(col))
		}
		tss = append(tss, ev.Tuple.TS)
	}
	var err error
	if len(vals) > 0 {
		err = w.AppendBatch(vals, tss, m.host.Now())
	}
	// Keep the grown backing arrays for the next run, but release the
	// values: a quiescent automaton must not pin the last run's data (the
	// same rule Queue.PopBatch applies to its reused buffer).
	for i := range vals {
		vals[i] = types.Nil
	}
	m.batchVals = vals[:0]
	m.batchTs = tss[:0]
	return err
}

func (m *VM) push(v types.Value) { m.stack = append(m.stack, v) }

func (m *VM) pop() types.Value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *VM) runtimeErr(ins gapl.Instr, err error) error {
	return fmt.Errorf("line %d: %w", ins.Line, err)
}

// exec routes a clause to its compiled closure chain, or to the switch
// interpreter when the closure compiler declined it.
func (m *VM) exec(code []gapl.Instr) error {
	if len(code) > 0 {
		if steps := m.stepsFor(code); steps != nil {
			return m.execSteps(steps)
		}
	}
	return m.execSwitch(code)
}

func (m *VM) execSwitch(code []gapl.Instr) error {
	m.stack = m.stack[:0]
	pc := 0
	steps := 0
	for {
		if m.MaxSteps > 0 {
			steps++
			if steps > m.MaxSteps {
				return fmt.Errorf("vm: exceeded %d steps (possible infinite loop)", m.MaxSteps)
			}
		}
		ins := code[pc]
		switch ins.Op {
		case gapl.OpNop:
			pc++
		case gapl.OpConst:
			m.push(m.prog.Consts[ins.A])
			pc++
		case gapl.OpLoad:
			m.push(m.slots[ins.A])
			pc++
		case gapl.OpStore:
			v := m.pop()
			spec := m.prog.Slots[ins.A]
			if spec.Kind != types.KindNil && v.Kind() != spec.Kind {
				conv, err := types.ConvertAssign(spec.Kind, v)
				if err != nil {
					return m.runtimeErr(ins, fmt.Errorf("assigning to %q: %w", spec.Name, err))
				}
				v = conv
			}
			m.slots[ins.A] = v
			pc++
		case gapl.OpField:
			ev := m.slots[ins.A].Event()
			if ev == nil {
				return m.runtimeErr(ins, fmt.Errorf(
					"no event received yet on subscription %q", m.prog.Slots[ins.A].Name))
			}
			m.push(ev.FieldAt(int(ins.B)))
			pc++
		case gapl.OpAdd, gapl.OpSub, gapl.OpMul, gapl.OpDiv, gapl.OpMod:
			b := m.pop()
			a := m.pop()
			var v types.Value
			var err error
			switch ins.Op {
			case gapl.OpAdd:
				v, err = types.Add(a, b)
			case gapl.OpSub:
				v, err = types.Sub(a, b)
			case gapl.OpMul:
				v, err = types.Mul(a, b)
			case gapl.OpDiv:
				v, err = types.Div(a, b)
			default:
				v, err = types.Mod(a, b)
			}
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(v)
			pc++
		case gapl.OpNeg:
			v, err := types.Neg(m.pop())
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(v)
			pc++
		case gapl.OpNot:
			v, err := types.Not(m.pop())
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(v)
			pc++
		case gapl.OpEq, gapl.OpNe, gapl.OpLt, gapl.OpLe, gapl.OpGt, gapl.OpGe:
			b := m.pop()
			a := m.pop()
			op := map[gapl.Op]string{
				gapl.OpEq: "==", gapl.OpNe: "!=", gapl.OpLt: "<",
				gapl.OpLe: "<=", gapl.OpGt: ">", gapl.OpGe: ">=",
			}[ins.Op]
			v, err := types.CompareOp(op, a, b)
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(v)
			pc++
		case gapl.OpJmp:
			pc = int(ins.A)
		case gapl.OpJz:
			v := m.pop()
			b, err := v.Truthy()
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			if !b {
				pc = int(ins.A)
			} else {
				pc++
			}
		case gapl.OpJzPeek, gapl.OpJnzPeek:
			v := m.stack[len(m.stack)-1]
			b, err := v.Truthy()
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			jump := (ins.Op == gapl.OpJzPeek && !b) || (ins.Op == gapl.OpJnzPeek && b)
			if jump {
				pc = int(ins.A)
			} else {
				pc++
			}
		case gapl.OpPop:
			m.pop()
			pc++
		case gapl.OpCall:
			argc := int(ins.B)
			base := len(m.stack) - argc
			// Builtins receive a view of the stack; none retains the
			// slice (values are copied into any structure that outlives
			// the call).
			v, err := m.callBuiltin(gapl.BuiltinID(ins.A), m.stack[base:])
			m.stack = m.stack[:base]
			if err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(v)
			pc++
		case gapl.OpAppendRun:
			if err := m.appendRun(ins); err != nil {
				return m.runtimeErr(ins, err)
			}
			m.push(types.Nil)
			pc++
		case gapl.OpHalt:
			return nil
		default:
			return m.runtimeErr(ins, fmt.Errorf("unknown opcode %v", ins.Op))
		}
	}
}
