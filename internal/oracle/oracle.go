// Package oracle is the reference interpreter of the internal/isa
// instruction set: architectural state only — general, floating, predicate
// and branch registers plus flat data memory. No pipeline, no ports, no
// scoreboard, no caches, no PMU, no cycle counting.
//
// Its single job is to be obviously correct, so that internal/cpu — whose
// interleaved issue model, stall accounting, and runtime patching make it
// easy to break silently — can be checked against it mechanically: run the
// same image through both, then compare isa.ArchState snapshots and final
// memories bit for bit (internal/harness/differential.go). Every semantic
// choice here deliberately mirrors cpu.execute: predicated-off instructions
// retire with no effect and no post-increment, loads write the target before
// the base-register update, stores read their source before it, writes to
// r0/f0/f1/p0 are discarded, and floating-point expressions use the exact
// shape of the cpu package so both compile to identical operation orders.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/program"
)

// Stats counts what the oracle executed. The fields are the subset of
// cpu.Stats that is architecturally determined — equal counts are part of
// the differential contract, unlike cycles or stalls which are timing.
type Stats struct {
	Retired    uint64
	Loads      uint64
	Stores     uint64
	Prefetches uint64
	Branches   uint64 // redirecting (taken) branches, as in cpu.Stats
}

// Machine is one oracle instance: register files, code, and data memory.
type Machine struct {
	GR [isa.NumGR]uint64
	FR [isa.NumFR]float64
	PR [isa.NumPR]bool
	BR [isa.NumBR]uint64

	Code *program.CodeSpace
	Mem  *memsys.Memory

	pc     uint64
	halted bool

	Stats Stats
}

// New wires an oracle to a code space and memory.
func New(code *program.CodeSpace, mem *memsys.Memory) *Machine {
	m := &Machine{Code: code, Mem: mem}
	m.FR[1] = 1.0
	return m
}

// FromImage builds a ready-to-run oracle for one program image: a private
// copy of the code segment (the caller may be patching its own copy), a
// fresh memory initialized by the image, and the PC at the entry point.
func FromImage(img *program.Image) (*Machine, error) {
	code := program.NewCodeSpace()
	seg := &program.Segment{
		Name:    img.Code.Name,
		Base:    img.Code.Base,
		Bundles: append([]isa.Bundle{}, img.Code.Bundles...),
	}
	if err := code.AddSegment(seg); err != nil {
		return nil, err
	}
	// Deliberately not img.NewMemory: the differential then compares runs
	// on forks of the sealed memory against independently initialized data.
	mem := memsys.NewMemory()
	if img.InitData != nil {
		img.InitData(mem)
	}
	m := New(code, mem)
	m.SetPC(img.Entry)
	return m, nil
}

// SetPC sets the next fetch address.
func (m *Machine) SetPC(pc uint64) { m.pc = pc }

// PC returns the current fetch address.
func (m *Machine) PC() uint64 { return m.pc }

// Halted reports whether the program has executed halt (or returned from
// its outermost frame).
func (m *Machine) Halted() bool { return m.halted }

// ArchState snapshots the architectural register state.
func (m *Machine) ArchState() isa.ArchState {
	return isa.ArchState{PC: m.pc, GR: m.GR, FR: m.FR, PR: m.PR, BR: m.BR}
}

// Run executes until halt or until maxInstructions retire (0 = unlimited).
func (m *Machine) Run(maxInstructions uint64) (Stats, error) {
	for !m.halted {
		if maxInstructions > 0 && m.Stats.Retired >= maxInstructions {
			break
		}
		if err := m.Step(); err != nil {
			return m.Stats, err
		}
	}
	return m.Stats, nil
}

// Step fetches and executes one bundle (or the tail of one, after a branch
// into a mid-bundle slot).
func (m *Machine) Step() error {
	bundleAddr := m.pc &^ uint64(isa.BundleBytes-1)
	slot := int(m.pc & uint64(isa.BundleBytes-1))
	if slot > 2 {
		return fmt.Errorf("oracle: bad slot in pc %#x", m.pc)
	}
	b, ok := m.Code.Fetch(bundleAddr)
	if !ok {
		return fmt.Errorf("oracle: fetch from unmapped address %#x", bundleAddr)
	}
	for s := slot; s < 3; s++ {
		redirect, err := m.execute(bundleAddr+uint64(s), &b.Slots[s])
		if err != nil {
			return err
		}
		if m.halted || redirect {
			return nil
		}
	}
	m.pc = bundleAddr + isa.BundleBytes
	return nil
}

func (m *Machine) writeGR(r isa.Reg, v uint64) {
	if r == 0 {
		return
	}
	m.GR[r] = v
}

func (m *Machine) writeFR(r isa.FReg, v float64) {
	if r <= 1 {
		return
	}
	m.FR[r] = v
}

func (m *Machine) postInc(in *isa.Inst) {
	if in.PostInc != 0 && in.R3 != 0 {
		m.GR[in.R3] += uint64(in.PostInc)
	}
}

func (m *Machine) setPred(p isa.PReg, v bool) {
	if p != 0 {
		m.PR[p] = v
	}
}

// execute runs one instruction at pc, returning whether control was
// redirected.
func (m *Machine) execute(pc uint64, in *isa.Inst) (bool, error) {
	if in.Op == isa.OpBrCond {
		// Conditional branches retire whether or not they are taken.
		m.Stats.Retired++
		taken := in.QP == 0 || m.PR[in.QP]
		if taken {
			m.Stats.Branches++
			m.pc = in.Target
			return true, nil
		}
		return false, nil
	}
	// Any other predicated-off instruction occupies its slot and retires
	// with no effect — in particular, no post-increment.
	if in.QP != 0 && !m.PR[in.QP] {
		m.Stats.Retired++
		return false, nil
	}

	switch in.Op {
	case isa.OpNop, isa.OpAlloc:
		// no effect

	case isa.OpAdd:
		m.writeGR(in.R1, m.GR[in.R2]+m.GR[in.R3])
	case isa.OpSub:
		m.writeGR(in.R1, m.GR[in.R2]-m.GR[in.R3])
	case isa.OpAddI:
		m.writeGR(in.R1, uint64(in.Imm)+m.GR[in.R3])
	case isa.OpAnd:
		m.writeGR(in.R1, m.GR[in.R2]&m.GR[in.R3])
	case isa.OpOr:
		m.writeGR(in.R1, m.GR[in.R2]|m.GR[in.R3])
	case isa.OpXor:
		m.writeGR(in.R1, m.GR[in.R2]^m.GR[in.R3])
	case isa.OpShlAdd:
		m.writeGR(in.R1, m.GR[in.R2]<<uint(in.Imm)+m.GR[in.R3])
	case isa.OpMov:
		m.writeGR(in.R1, m.GR[in.R3])
	case isa.OpMovI:
		m.writeGR(in.R1, uint64(in.Imm))
	case isa.OpShl:
		m.writeGR(in.R1, m.GR[in.R2]<<uint(in.Imm))
	case isa.OpShr:
		m.writeGR(in.R1, m.GR[in.R2]>>uint(in.Imm))
	case isa.OpSxt4:
		m.writeGR(in.R1, uint64(int64(int32(uint32(m.GR[in.R3])))))
	case isa.OpZxt4:
		m.writeGR(in.R1, uint64(uint32(m.GR[in.R3])))

	case isa.OpCmp:
		v := isa.Compare(in.Rel, m.GR[in.R2], m.GR[in.R3])
		m.setPred(in.P1, v)
		m.setPred(in.P2, !v)
	case isa.OpCmpI:
		v := isa.Compare(in.Rel, uint64(in.Imm), m.GR[in.R3])
		m.setPred(in.P1, v)
		m.setPred(in.P2, !v)

	case isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8, isa.OpLdS:
		v := m.Mem.ReadN(m.GR[in.R3], isa.AccessBytes(in.Op))
		m.writeGR(in.R1, v)
		m.postInc(in)
		m.Stats.Loads++

	case isa.OpLdF:
		v := m.Mem.ReadFloat(m.GR[in.R3])
		m.writeFR(in.F1, v)
		m.postInc(in)
		m.Stats.Loads++

	case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
		m.Mem.WriteN(m.GR[in.R3], isa.AccessBytes(in.Op), m.GR[in.R2])
		m.postInc(in)
		m.Stats.Stores++

	case isa.OpStF:
		m.Mem.WriteFloat(m.GR[in.R3], m.FR[in.F1])
		m.postInc(in)
		m.Stats.Stores++

	case isa.OpLfetch:
		// Architecturally a no-op apart from the base-register update.
		m.postInc(in)
		m.Stats.Prefetches++

	case isa.OpFma:
		m.writeFR(in.F1, m.FR[in.F2]*m.FR[in.F3]+m.FR[in.F4])
	case isa.OpFAdd:
		m.writeFR(in.F1, m.FR[in.F2]+m.FR[in.F3])
	case isa.OpFMul:
		m.writeFR(in.F1, m.FR[in.F2]*m.FR[in.F3])
	case isa.OpFSub:
		m.writeFR(in.F1, m.FR[in.F2]-m.FR[in.F3])
	case isa.OpFNeg:
		m.writeFR(in.F1, -m.FR[in.F2])

	case isa.OpGetF:
		m.writeGR(in.R1, math.Float64bits(m.FR[in.F2]))
	case isa.OpSetF:
		m.writeFR(in.F1, math.Float64frombits(m.GR[in.R2]))
	case isa.OpFCvtFX:
		m.writeGR(in.R1, uint64(int64(m.FR[in.F2])))
	case isa.OpFCvtXF:
		m.writeFR(in.F1, float64(int64(m.GR[in.R2])))

	case isa.OpBr:
		m.Stats.Retired++
		m.Stats.Branches++
		m.pc = in.Target
		return true, nil
	case isa.OpBrCall:
		m.BR[in.B] = (pc &^ uint64(isa.BundleBytes-1)) + isa.BundleBytes
		m.Stats.Retired++
		m.Stats.Branches++
		m.pc = in.Target
		return true, nil
	case isa.OpBrRet:
		target := m.BR[in.B]
		m.Stats.Retired++
		if target == 0 {
			m.halted = true
			return true, nil
		}
		m.Stats.Branches++
		m.pc = target
		return true, nil
	case isa.OpHalt:
		m.Stats.Retired++
		m.halted = true
		return true, nil

	default:
		return false, fmt.Errorf("oracle: unimplemented op %s at %#x", in.Op, pc)
	}

	m.Stats.Retired++
	return false, nil
}
