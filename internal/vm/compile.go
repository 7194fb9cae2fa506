package vm

import (
	"fmt"

	"unicache/internal/gapl"
	"unicache/internal/types"
)

// Threaded dispatch: each clause is lowered once, at
// first execution, to a chain of Go closures — one per instruction, with
// operands (constants, slot specs, jump targets, builtin ids) decoded at
// compile time instead of on every activation. The driver loop then calls
// closures through a function pointer rather than re-decoding opcodes
// through the switch interpreter. A step returns the next pc, or stepHalt to
// finish the clause; outputs are bit-identical to the interpreter, pinned by
// the conformance suite and the differential test in compile_test.go.

// step executes one compiled instruction and returns the pc to run next.
type step func() (int32, error)

// stepHalt is the next-pc sentinel ending a clause.
const stepHalt int32 = -1

// stepsFor returns the compiled form of code, compiling and caching it on
// first use, or nil when the clause is not compilable (the caller then runs
// the switch interpreter). code is identified by its backing array: a VM
// only ever executes its own program's Init and Behavior clauses.
func (m *VM) stepsFor(code []gapl.Instr) []step {
	switch {
	case len(m.prog.Behavior) > 0 && &code[0] == &m.prog.Behavior[0]:
		if !m.behCompiled {
			m.behSteps = m.compileSteps(code)
			m.behCompiled = true
		}
		return m.behSteps
	case len(m.prog.Init) > 0 && &code[0] == &m.prog.Init[0]:
		if !m.initCompiled {
			m.initSteps = m.compileSteps(code)
			m.initCompiled = true
		}
		return m.initSteps
	}
	return nil
}

// execSteps drives a compiled clause, enforcing MaxSteps exactly as the
// interpreter does (one step per instruction executed).
func (m *VM) execSteps(steps []step) error {
	m.stack = m.stack[:0]
	pc := int32(0)
	count := 0
	for {
		if m.MaxSteps > 0 {
			count++
			if count > m.MaxSteps {
				return fmt.Errorf("vm: exceeded %d steps (possible infinite loop)", m.MaxSteps)
			}
		}
		next, err := steps[pc]()
		if err != nil {
			return err
		}
		if next == stepHalt {
			return nil
		}
		pc = next
	}
}

// compileSteps lowers one clause to closures. Returns nil if any
// instruction is not compilable, in which case the clause stays on the
// interpreter.
func (m *VM) compileSteps(code []gapl.Instr) []step {
	steps := make([]step, len(code))
	for i := range code {
		ins := code[i]
		next := int32(i + 1)
		switch ins.Op {
		case gapl.OpNop:
			steps[i] = func() (int32, error) { return next, nil }

		case gapl.OpConst:
			v := m.prog.Consts[ins.A]
			steps[i] = func() (int32, error) {
				m.push(v)
				return next, nil
			}

		case gapl.OpLoad:
			slot := ins.A
			steps[i] = func() (int32, error) {
				m.push(m.slots[slot])
				return next, nil
			}

		case gapl.OpStore:
			slot := ins.A
			spec := m.prog.Slots[ins.A]
			steps[i] = func() (int32, error) {
				v := m.pop()
				if spec.Kind != types.KindNil && v.Kind() != spec.Kind {
					conv, err := types.ConvertAssign(spec.Kind, v)
					if err != nil {
						return 0, m.runtimeErr(ins, fmt.Errorf("assigning to %q: %w", spec.Name, err))
					}
					v = conv
				}
				m.slots[slot] = v
				return next, nil
			}

		case gapl.OpField:
			slot := ins.A
			col := int(ins.B)
			name := m.prog.Slots[ins.A].Name
			steps[i] = func() (int32, error) {
				ev := m.slots[slot].Event()
				if ev == nil {
					return 0, m.runtimeErr(ins, fmt.Errorf(
						"no event received yet on subscription %q", name))
				}
				m.push(ev.FieldAt(col))
				return next, nil
			}

		case gapl.OpAdd, gapl.OpSub, gapl.OpMul, gapl.OpDiv, gapl.OpMod:
			var fn func(a, b types.Value) (types.Value, error)
			switch ins.Op {
			case gapl.OpAdd:
				fn = types.Add
			case gapl.OpSub:
				fn = types.Sub
			case gapl.OpMul:
				fn = types.Mul
			case gapl.OpDiv:
				fn = types.Div
			default:
				fn = types.Mod
			}
			steps[i] = func() (int32, error) {
				b := m.pop()
				a := m.pop()
				v, err := fn(a, b)
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(v)
				return next, nil
			}

		case gapl.OpNeg:
			steps[i] = func() (int32, error) {
				v, err := types.Neg(m.pop())
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(v)
				return next, nil
			}

		case gapl.OpNot:
			steps[i] = func() (int32, error) {
				v, err := types.Not(m.pop())
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(v)
				return next, nil
			}

		case gapl.OpEq, gapl.OpNe, gapl.OpLt, gapl.OpLe, gapl.OpGt, gapl.OpGe:
			op := map[gapl.Op]string{
				gapl.OpEq: "==", gapl.OpNe: "!=", gapl.OpLt: "<",
				gapl.OpLe: "<=", gapl.OpGt: ">", gapl.OpGe: ">=",
			}[ins.Op]
			steps[i] = func() (int32, error) {
				b := m.pop()
				a := m.pop()
				v, err := types.CompareOp(op, a, b)
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(v)
				return next, nil
			}

		case gapl.OpJmp:
			target := ins.A
			steps[i] = func() (int32, error) { return target, nil }

		case gapl.OpJz:
			target := ins.A
			steps[i] = func() (int32, error) {
				b, err := m.pop().Truthy()
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				if !b {
					return target, nil
				}
				return next, nil
			}

		case gapl.OpJzPeek, gapl.OpJnzPeek:
			target := ins.A
			onTrue := ins.Op == gapl.OpJnzPeek
			steps[i] = func() (int32, error) {
				b, err := m.stack[len(m.stack)-1].Truthy()
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				if b == onTrue {
					return target, nil
				}
				return next, nil
			}

		case gapl.OpPop:
			steps[i] = func() (int32, error) {
				m.pop()
				return next, nil
			}

		case gapl.OpCall:
			id := gapl.BuiltinID(ins.A)
			argc := int(ins.B)
			steps[i] = func() (int32, error) {
				base := len(m.stack) - argc
				v, err := m.callBuiltin(id, m.stack[base:])
				m.stack = m.stack[:base]
				if err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(v)
				return next, nil
			}

		case gapl.OpAppendRun:
			steps[i] = func() (int32, error) {
				if err := m.appendRun(ins); err != nil {
					return 0, m.runtimeErr(ins, err)
				}
				m.push(types.Nil)
				return next, nil
			}

		case gapl.OpHalt:
			steps[i] = func() (int32, error) { return stepHalt, nil }

		default:
			// Unknown opcode: decline the whole clause; the interpreter
			// reports it with its usual runtime error.
			return nil
		}
	}
	return steps
}
