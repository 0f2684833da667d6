// Package emu is the functional VLX emulator. It executes a generated
// workload's true control-flow path — conditional outcomes and indirect
// targets come from the workload's behaviour oracle, calls and returns
// from an architectural stack — and feeds the resulting dynamic
// instruction stream to the timing model (internal/cpu). The timing
// model's front-end runs *ahead* on its own predicted path; the emulator
// defines the ground truth it is checked against, which is what makes
// the simulation execution-driven in the sense the paper requires for
// modeling wrong-path effects.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/workload"
)

// Step is one executed instruction with its resolved control flow.
type Step struct {
	// Inst is the executed instruction.
	Inst isa.Inst
	// Taken reports whether a branch transferred control (always true
	// for unconditional classes; false for not-taken conditionals and
	// all sequential instructions).
	Taken bool
	// NextPC is the architecturally correct next instruction address.
	NextPC uint64
}

// Emulator executes one workload. It is not safe for concurrent use;
// create one per simulation run.
type Emulator struct {
	w     *workload.Workload
	pc    uint64
	stack []uint64
	// visits counts executions per branch site, indexed by the
	// workload's dense canonical-stream instruction index (a flat slice
	// beats a PC-keyed map: the lookup runs once per executed
	// conditional or indirect branch).
	visits []uint64
	count  uint64
	halted bool
}

// MaxStackDepth bounds the architectural call stack; exceeding it means
// the generator produced unexpected recursion.
const MaxStackDepth = 1 << 16

// New creates an emulator positioned at the workload entry point.
func New(w *workload.Workload) *Emulator {
	return &Emulator{
		w:      w,
		pc:     w.Prog.Entry,
		visits: make([]uint64, w.NumStaticInsts()),
	}
}

// Clone returns an independent deep copy of the emulator sharing only
// the immutable workload. Stepping either copy never affects the
// other, which is what makes post-warmup checkpointing sound: every
// sample interval derives from the same architectural state.
func (e *Emulator) Clone() *Emulator {
	c := &Emulator{
		w:      e.w,
		pc:     e.pc,
		stack:  make([]uint64, len(e.stack)),
		visits: make([]uint64, len(e.visits)),
		count:  e.count,
		halted: e.halted,
	}
	copy(c.stack, e.stack)
	copy(c.visits, e.visits)
	return c
}

// PC returns the address of the next instruction to execute.
func (e *Emulator) PC() uint64 { return e.pc }

// InstCount returns the number of instructions executed so far.
func (e *Emulator) InstCount() uint64 { return e.count }

// Halted reports whether a halt instruction was executed or the call
// stack underflowed (program finished).
func (e *Emulator) Halted() bool { return e.halted }

// StackDepth returns the current call-stack depth.
func (e *Emulator) StackDepth() int { return len(e.stack) }

// StackCopy returns a copy of the architectural call stack, oldest
// frame first. The front-end uses it to repair the speculative RAS
// after a re-steer.
func (e *Emulator) StackCopy() []uint64 {
	out := make([]uint64, len(e.stack))
	copy(out, e.stack)
	return out
}

// Stack returns the live architectural call stack, oldest frame first,
// without copying. The returned slice aliases emulator state and is
// invalidated by the next Step; callers that retain it must use
// StackCopy instead. Resteer paths that immediately copy the frames
// into the RAS use this to avoid an allocation per resteer.
func (e *Emulator) Stack() []uint64 { return e.stack }

// Step executes one instruction and returns its outcome. After a halt it
// returns an error.
func (e *Emulator) Step() (Step, error) {
	if e.halted {
		return Step{}, fmt.Errorf("emu: stepping a halted emulator")
	}
	in, ok := e.w.InstAt(e.pc)
	if !ok {
		return Step{}, fmt.Errorf("emu: pc %#x is not an instruction boundary", e.pc)
	}
	st := Step{Inst: in, NextPC: in.NextPC()}

	switch in.Class {
	case isa.ClassSeq:
		if in.Op == isa.OpHalt {
			e.halted = true
		}

	case isa.ClassDirectCond:
		b, ok := e.w.Cond[in.PC]
		if !ok {
			return Step{}, fmt.Errorf("emu: conditional at %#x has no behaviour", in.PC)
		}
		idx := e.w.InstIndex(in.PC)
		v := e.visits[idx]
		e.visits[idx] = v + 1
		if b.Taken(v) {
			st.Taken = true
			tgt, _ := in.BranchTarget()
			st.NextPC = tgt
		}

	case isa.ClassDirectUncond:
		st.Taken = true
		tgt, _ := in.BranchTarget()
		st.NextPC = tgt

	case isa.ClassCall:
		st.Taken = true
		tgt, _ := in.BranchTarget()
		if len(e.stack) >= MaxStackDepth {
			return Step{}, fmt.Errorf("emu: call stack overflow at %#x", in.PC)
		}
		e.stack = append(e.stack, in.NextPC())
		st.NextPC = tgt

	case isa.ClassReturn:
		st.Taken = true
		if len(e.stack) == 0 {
			// Returning from the entry function ends the program.
			e.halted = true
			st.NextPC = in.NextPC()
			break
		}
		st.NextPC = e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]

	case isa.ClassIndirect, isa.ClassIndirectCall:
		b, ok := e.w.Ind[in.PC]
		if !ok {
			return Step{}, fmt.Errorf("emu: indirect at %#x has no behaviour", in.PC)
		}
		idx := e.w.InstIndex(in.PC)
		v := e.visits[idx]
		e.visits[idx] = v + 1
		tgt := b.Target(v)
		if tgt == 0 {
			return Step{}, fmt.Errorf("emu: indirect at %#x produced a nil target", in.PC)
		}
		st.Taken = true
		st.NextPC = tgt
		if in.Class == isa.ClassIndirectCall {
			if len(e.stack) >= MaxStackDepth {
				return Step{}, fmt.Errorf("emu: call stack overflow at %#x", in.PC)
			}
			e.stack = append(e.stack, in.NextPC())
		}
	}

	e.pc = st.NextPC
	e.count++
	return st, nil
}
