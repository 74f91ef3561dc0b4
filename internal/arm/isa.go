// Package arm implements the emulated 32-bit guest CPU that plays the role
// QEMU's ARM target plays in the paper: it executes the native halves of the
// synthetic apps, exposes per-instruction trace hooks (NDroid's instruction
// tracer), address hooks (the analog of TCG-insertion hooking, §V-G), and
// branch watching (the substrate of multilevel hooking, Fig. 5).
//
// The instruction set is ARM-*style* rather than bit-exact ARMv7 (see
// DESIGN.md §1): it keeps the register model (R0–R15 with SP/LR/PC), the
// AAPCS calling convention, NZCV condition flags, and — most importantly —
// exactly the instruction formats of the paper's Table V, in both a 32-bit
// ("ARM") and a 16-bit ("Thumb") encoding.
package arm

import "fmt"

// Op enumerates instruction operations shared by the ARM and Thumb encodings.
type Op uint8

// Operations. Grouped by the Table V format they belong to.
const (
	OpInvalid Op = iota

	// binary-op Rd, Rn, Rm  /  binary-op Rd, Rm, #imm
	OpADD
	OpSUB
	OpRSB
	OpADC
	OpSBC
	OpAND
	OpORR
	OpEOR
	OpBIC
	OpLSL
	OpLSR
	OpASR
	OpROR
	OpMUL
	OpSDIV
	OpUDIV

	// unary / mov forms
	OpMOV  // mov Rd, Rm  or  mov Rd, #imm
	OpMVN  // unary Rd, Rm (bitwise NOT), or mvn Rd, #imm
	OpMOVW // mov Rd, #imm16 (low half, clears high)
	OpMOVT // move #imm16 into the high half of Rd

	// compares (flag-setting only; no taint effect per Table V)
	OpCMP
	OpCMN
	OpTST
	OpTEQ

	// memory
	OpLDR
	OpLDRB
	OpLDRH
	OpSTR
	OpSTRB
	OpSTRH
	OpLDM // includes POP when Rn==SP && Writeback
	OpSTM // includes PUSH when Rn==SP && Writeback

	// control flow
	OpB
	OpBL
	OpBX
	OpBLX

	// system
	OpSVC
	OpNOP
	OpHLT

	// IEEE-754 single-precision on registers holding float32 bits
	OpFADDS
	OpFSUBS
	OpFMULS
	OpFDIVS

	// IEEE-754 double-precision on even/odd register pairs (lo in Rd, hi in Rd+1)
	OpFADDD
	OpFSUBD
	OpFMULD
	OpFDIVD

	// conversions
	OpSITOF // signed int -> float32 bits
	OpFTOSI // float32 bits -> signed int (truncate)
	OpSITOD // signed int (Rm) -> float64 pair (Rd,Rd+1)
	OpDTOSI // float64 pair (Rm,Rm+1) -> signed int

	opMax // sentinel
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpADD:     "ADD", OpSUB: "SUB", OpRSB: "RSB", OpADC: "ADC", OpSBC: "SBC",
	OpAND: "AND", OpORR: "ORR", OpEOR: "EOR", OpBIC: "BIC",
	OpLSL: "LSL", OpLSR: "LSR", OpASR: "ASR", OpROR: "ROR",
	OpMUL: "MUL", OpSDIV: "SDIV", OpUDIV: "UDIV",
	OpMOV: "MOV", OpMVN: "MVN", OpMOVW: "MOVW", OpMOVT: "MOVT",
	OpCMP: "CMP", OpCMN: "CMN", OpTST: "TST", OpTEQ: "TEQ",
	OpLDR: "LDR", OpLDRB: "LDRB", OpLDRH: "LDRH",
	OpSTR: "STR", OpSTRB: "STRB", OpSTRH: "STRH",
	OpLDM: "LDM", OpSTM: "STM",
	OpB: "B", OpBL: "BL", OpBX: "BX", OpBLX: "BLX",
	OpSVC: "SVC", OpNOP: "NOP", OpHLT: "HLT",
	OpFADDS: "FADDS", OpFSUBS: "FSUBS", OpFMULS: "FMULS", OpFDIVS: "FDIVS",
	OpFADDD: "FADDD", OpFSUBD: "FSUBD", OpFMULD: "FMULD", OpFDIVD: "FDIVD",
	OpSITOF: "SITOF", OpFTOSI: "FTOSI", OpSITOD: "SITOD", OpDTOSI: "DTOSI",
}

// String returns the canonical mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Cond is an ARM condition code; instructions execute only when it holds.
type Cond uint8

// Condition codes (ARM encoding order).
const (
	CondEQ Cond = iota // Z
	CondNE             // !Z
	CondCS             // C
	CondCC             // !C
	CondMI             // N
	CondPL             // !N
	CondVS             // V
	CondVC             // !V
	CondHI             // C && !Z
	CondLS             // !C || Z
	CondGE             // N == V
	CondLT             // N != V
	CondGT             // !Z && N == V
	CondLE             // Z || N != V
	CondAL             // always
)

var condNames = [...]string{"EQ", "NE", "CS", "CC", "MI", "PL", "VS", "VC", "HI", "LS", "GE", "LT", "GT", "LE", ""}

// String returns the condition suffix ("" for AL).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", uint8(c))
}

// Register aliases.
const (
	SP = 13
	LR = 14
	PC = 15
	// RegNone marks an unused register field in a decoded instruction.
	RegNone int8 = -1
)

// Insn is a decoded instruction. The same struct describes both ARM (Size 4)
// and Thumb (Size 2) instructions, which is what lets the taint handlers in
// the instruction tracer be shared across the two encodings, as the paper's
// Table V logic is.
type Insn struct {
	Op   Op
	Cond Cond

	Rd, Rn, Rm int8 // RegNone when absent

	// Imm is the immediate operand: the value for data-processing ops, the
	// signed byte offset for memory ops, the signed *byte* displacement
	// relative to the next instruction for B/BL, or the SVC number.
	Imm int32

	// HasImm distinguishes "op Rd, Rn, Rm" from "op Rd, Rn, #imm" when both
	// register and immediate forms exist.
	HasImm bool

	// RegOffset marks LDR/STR with a register offset ([Rn, Rm]).
	RegOffset bool

	// RegList is the bitmask for LDM/STM/PUSH/POP.
	RegList uint16

	// Writeback applies to LDM/STM (update Rn after transfer).
	Writeback bool

	// SetFlags marks the S suffix on data-processing instructions.
	SetFlags bool

	// Size is the encoded size in bytes: 4 for ARM, 2 for Thumb (4 for the
	// Thumb BL pair).
	Size uint32
}

// WriteRegs returns the bitmask of general registers the instruction can
// write (architecturally, ignoring the condition code). Flags are not
// included: callers that care about NZCV must save them separately. The mask
// is the substrate of the fused-bridge clobber-set save — a union over a
// program's instructions bounds what any execution of it can touch.
func (i Insn) WriteRegs() uint32 {
	var m uint32
	switch i.Op {
	case OpADD, OpSUB, OpRSB, OpADC, OpSBC, OpAND, OpORR, OpEOR, OpBIC,
		OpLSL, OpLSR, OpASR, OpROR, OpMUL, OpSDIV, OpUDIV,
		OpMOV, OpMVN, OpMOVW, OpMOVT,
		OpLDR, OpLDRB, OpLDRH,
		OpSITOF, OpFTOSI, OpDTOSI,
		OpFADDS, OpFSUBS, OpFMULS, OpFDIVS:
		if i.Rd != RegNone {
			m |= 1 << uint(i.Rd)
		}
	case OpFADDD, OpFSUBD, OpFMULD, OpFDIVD, OpSITOD:
		// Double-precision results land in the even/odd pair (Rd, Rd+1).
		if i.Rd != RegNone {
			m |= 1 << uint(i.Rd)
			m |= 1 << uint(i.Rd+1)
		}
	case OpLDM:
		m |= uint32(i.RegList)
		if i.Writeback && i.Rn != RegNone {
			m |= 1 << uint(i.Rn)
		}
	case OpSTM:
		if i.Writeback && i.Rn != RegNone {
			m |= 1 << uint(i.Rn)
		}
	case OpBL, OpBLX:
		m |= 1 << LR
	}
	// CMP/CMN/TST/TEQ, STR/STRB/STRH, B, BX, SVC, NOP, HLT write no GPRs.
	return m
}
