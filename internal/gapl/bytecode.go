package gapl

import (
	"fmt"

	"unicache/internal/types"
)

// Op is a stack-machine opcode.
type Op uint8

// The instruction set of the automaton stack machine (§5).
const (
	OpNop   Op = iota
	OpConst    // push Consts[A]
	OpLoad     // push slot A
	OpStore    // slot A = pop (converted to the slot's declared kind)
	OpField    // push attribute B of the event in subscription slot A
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpJmp     // jump to A
	OpJz      // pop; jump to A if false
	OpJzPeek  // jump to A if peek is false (for &&)
	OpJnzPeek // jump to A if peek is true (for ||)
	OpPop
	OpCall // call builtin A with B args
	OpHalt
	// OpAppendRun pops a window and appends one value per event of the
	// current activation's run whose topic matches subscription slot A:
	// attribute B of each event (-1 = the tstamp pseudo-attribute, -2 = the
	// whole event as a sequence), stamped with the event's commit timestamp,
	// with constraint eviction run once for the whole run. It pushes nil
	// (appendRun is a statement). Before Bind, B indexes FieldNames.
	OpAppendRun
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpLoad: "load", OpStore: "store",
	OpField: "field", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpNeg: "neg", OpNot: "not", OpEq: "eq", OpNe: "ne",
	OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpJmp: "jmp", OpJz: "jz",
	OpJzPeek: "jzpeek", OpJnzPeek: "jnzpeek", OpPop: "pop", OpCall: "call",
	OpHalt: "halt", OpAppendRun: "appendrun",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. A and B are opcode-specific operands; Line maps
// back to source for runtime error reports.
type Instr struct {
	Op   Op
	A, B int32
	Line int32
}

// SlotKind describes what lives in a VM slot.
type SlotKind uint8

// Slot roles.
const (
	SlotVar   SlotKind = iota // declared local variable
	SlotSub                   // subscription variable (holds the last event)
	SlotAssoc                 // association variable (holds an Assoc handle)
)

// SlotSpec describes one VM slot.
type SlotSpec struct {
	Name string
	Role SlotKind
	Kind types.Kind // declared kind for SlotVar; KindEvent/KindAssoc otherwise
	// Topic is the subscribed topic for SlotSub; Table the associated
	// persistent table for SlotAssoc.
	Topic string
	Table string
}

// Compiled is an automaton lowered to bytecode, ready to Bind against the
// cache's schemas and then execute on the VM.
type Compiled struct {
	Source     string
	Slots      []SlotSpec
	Consts     []types.Value
	FieldNames []string // attribute-name pool for pre-bind OpField operands
	Init       []Instr
	Behavior   []Instr
	// BatchableBehavior reports the compiler's activation classification:
	// true when the behavior clause is run-aware (calls appendRun or
	// runSize) AND never observes an individual event (no attribute read,
	// no use of a subscription variable as a value, no currentTopic()).
	// Batchable behaviours execute ONCE per delivered run of events;
	// everything else keeps the per-event activation of the paper, with
	// output bit-identical to tuple-at-a-time delivery.
	BatchableBehavior bool
	// Pattern is the CEP pattern clause for declarative pattern automata.
	// When set, Init/Behavior are empty and the program is executed by the
	// NFA machine in internal/cep instead of the VM; Slots still carries
	// the subscription (and association) declarations.
	Pattern *PatternDecl

	bound bool
}

// Subscriptions returns the topic of every subscription slot, in
// declaration order, with the owning slot index.
func (c *Compiled) Subscriptions() []SlotSpec {
	var out []SlotSpec
	for _, s := range c.Slots {
		if s.Role == SlotSub {
			out = append(out, s)
		}
	}
	return out
}

// Associations returns every association slot in declaration order.
func (c *Compiled) Associations() []SlotSpec {
	var out []SlotSpec
	for _, s := range c.Slots {
		if s.Role == SlotAssoc {
			out = append(out, s)
		}
	}
	return out
}

// Bound reports whether Bind has completed successfully.
func (c *Compiled) Bound() bool { return c.bound }

// Bind resolves event attribute references against the topics' schemas,
// rewriting OpField operands from field-name-pool indices to column
// indices (-1 = the tstamp pseudo-attribute). It must be called once,
// before execution; unknown topics or attributes are reported as
// registration errors, exactly as the paper's cache reports compilation
// problems back to the registering application.
func (c *Compiled) Bind(schemas map[string]*types.Schema) error {
	if c.bound {
		return fmt.Errorf("automaton already bound")
	}
	for _, s := range c.Slots {
		if s.Role == SlotSub {
			if _, ok := schemas[s.Topic]; !ok {
				return fmt.Errorf("subscription %s: no such topic %q", s.Name, s.Topic)
			}
		}
	}
	rewrite := func(code []Instr) error {
		for i := range code {
			ins := &code[i]
			if ins.Op != OpField && ins.Op != OpAppendRun {
				continue
			}
			if ins.Op == OpAppendRun && ins.B == -2 {
				continue // whole-event form; nothing to resolve
			}
			slot := c.Slots[ins.A]
			schema := schemas[slot.Topic]
			name := c.FieldNames[ins.B]
			col := schema.ColIndex(name)
			if col < 0 {
				if eqFold(name, "tstamp") {
					ins.B = -1
					continue
				}
				return fmt.Errorf("line %d: topic %s has no attribute %q",
					ins.Line, slot.Topic, name)
			}
			ins.B = int32(col)
		}
		return nil
	}
	if err := rewrite(c.Init); err != nil {
		return err
	}
	if err := rewrite(c.Behavior); err != nil {
		return err
	}
	c.bound = true
	return nil
}

func eqFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
