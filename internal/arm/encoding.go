package arm

import "fmt"

// 32-bit ("ARM") encoding
//
//	[31:28] cond   [27:24] class   rest per class:
//
//	class 0  DP reg      op[23:20] Rd[19:16] Rn[15:12] Rm[11:8] S[7]
//	class 1  DP imm      op[23:20] Rd[19:16] Rn[15:12] imm12[11:0]
//	class 2  MOV/MVN reg op[23:20] Rd[19:16] Rm[11:8] S[7]
//	class 3  MOVW/MOVT   Rd[23:20] T[16] imm16[15:0]
//	class 4  LDR/STR     L[23] sz[22:21] RO[20] Rd[19:16] Rn[15:12] Rm[11:8]|simm12[11:0]
//	class 5  LDM/STM     L[23] W[22] Rn[19:16] reglist[15:0]
//	class 6  B/BL        L[23] simm23[22:0] (words, relative to next insn)
//	class 7  BX/BLX      L[23] Rm[11:8]
//	class 8  CMP family  op[23:20] I[19] Rn[15:12] Rm[11:8]|imm12[11:0]
//	class 9  MUL/DIV     op[23:20] Rd[19:16] Rn[15:12] Rm[11:8]
//	class 10 SVC         imm24[23:0]
//	class 11 misc        op[23:20]: 0 NOP, 1 HLT
//	class 12 FP32        op[23:20] Rd[19:16] Rn[15:12] Rm[11:8]
//	class 13 FP64        op[23:20] Rd[19:16] Rn[15:12] Rm[11:8] (register pairs)
//	class 14 FCVT        op[23:20] Rd[19:16] Rm[11:8]
const (
	clsDPReg  = 0
	clsDPImm  = 1
	clsMovReg = 2
	clsMovHW  = 3
	clsMem    = 4
	clsBlock  = 5
	clsBranch = 6
	clsBX     = 7
	clsCmp    = 8
	clsMulDiv = 9
	clsSVC    = 10
	clsMisc   = 11
	clsFP32   = 12
	clsFP64   = 13
	clsFCVT   = 14
)

var dpOps = []Op{OpADD, OpSUB, OpRSB, OpADC, OpSBC, OpAND, OpORR, OpEOR, OpBIC, OpLSL, OpLSR, OpASR, OpROR}

func dpIndex(op Op) (uint32, bool) {
	for i, o := range dpOps {
		if o == op {
			return uint32(i), true
		}
	}
	return 0, false
}

var cmpOps = []Op{OpCMP, OpCMN, OpTST, OpTEQ}

func cmpIndex(op Op) (uint32, bool) {
	for i, o := range cmpOps {
		if o == op {
			return uint32(i), true
		}
	}
	return 0, false
}

var mulOps = []Op{OpMUL, OpSDIV, OpUDIV}
var fp32Ops = []Op{OpFADDS, OpFSUBS, OpFMULS, OpFDIVS}
var fp64Ops = []Op{OpFADDD, OpFSUBD, OpFMULD, OpFDIVD}
var fcvtOps = []Op{OpSITOF, OpFTOSI, OpSITOD, OpDTOSI}

func indexOf(ops []Op, op Op) (uint32, bool) {
	for i, o := range ops {
		if o == op {
			return uint32(i), true
		}
	}
	return 0, false
}

func reg4(r int8) uint32 { return uint32(r) & 0xf }

func boolBit(b bool, n uint) uint32 {
	if b {
		return 1 << n
	}
	return 0
}

// Encode produces the 32-bit ARM-mode encoding of insn.
func Encode(insn Insn) (uint32, error) {
	w := uint32(insn.Cond) << 28
	switch insn.Op {
	case OpADD, OpSUB, OpRSB, OpADC, OpSBC, OpAND, OpORR, OpEOR, OpBIC, OpLSL, OpLSR, OpASR, OpROR:
		idx, _ := dpIndex(insn.Op)
		if insn.HasImm {
			if insn.Imm < 0 || insn.Imm > 0xfff {
				return 0, fmt.Errorf("arm: %s immediate %d out of range [0,4095]", insn.Op, insn.Imm)
			}
			w |= clsDPImm<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12 | uint32(insn.Imm)
		} else {
			w |= clsDPReg<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12 | reg4(insn.Rm)<<8 | boolBit(insn.SetFlags, 7)
		}
	case OpMOV, OpMVN:
		opn := uint32(0)
		if insn.Op == OpMVN {
			opn = 1
		}
		if insn.HasImm {
			if insn.Imm < 0 || insn.Imm > 0xfff {
				return 0, fmt.Errorf("arm: %s immediate %d out of range [0,4095] (use MOVW/LDR=)", insn.Op, insn.Imm)
			}
			// Immediate MOV reuses the DP-imm class with Rn == Rd and a
			// dedicated op index (13 for MOV, 14 for MVN).
			w |= clsDPImm<<24 | (13+opn)<<20 | reg4(insn.Rd)<<16 | uint32(insn.Imm)
		} else {
			w |= clsMovReg<<24 | opn<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rm)<<8 | boolBit(insn.SetFlags, 7)
		}
	case OpMOVW, OpMOVT:
		if insn.Imm < 0 || insn.Imm > 0xffff {
			return 0, fmt.Errorf("arm: %s immediate %d out of range [0,65535]", insn.Op, insn.Imm)
		}
		t := uint32(0)
		if insn.Op == OpMOVT {
			t = 1
		}
		w |= clsMovHW<<24 | reg4(insn.Rd)<<20 | t<<16 | uint32(insn.Imm)
	case OpLDR, OpLDRB, OpLDRH, OpSTR, OpSTRB, OpSTRH:
		var l, sz uint32
		switch insn.Op {
		case OpLDR:
			l, sz = 1, 0
		case OpLDRB:
			l, sz = 1, 1
		case OpLDRH:
			l, sz = 1, 2
		case OpSTR:
			l, sz = 0, 0
		case OpSTRB:
			l, sz = 0, 1
		case OpSTRH:
			l, sz = 0, 2
		}
		w |= clsMem<<24 | l<<23 | sz<<21 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12
		if insn.RegOffset {
			w |= 1<<20 | reg4(insn.Rm)<<8
		} else {
			if insn.Imm < -2048 || insn.Imm > 2047 {
				return 0, fmt.Errorf("arm: %s offset %d out of range [-2048,2047]", insn.Op, insn.Imm)
			}
			w |= uint32(insn.Imm) & 0xfff
		}
	case OpLDM, OpSTM:
		l := uint32(0)
		if insn.Op == OpLDM {
			l = 1
		}
		w |= clsBlock<<24 | l<<23 | boolBit(insn.Writeback, 22) | reg4(insn.Rn)<<16 | uint32(insn.RegList)
	case OpB, OpBL:
		l := uint32(0)
		if insn.Op == OpBL {
			l = 1
		}
		if insn.Imm%4 != 0 {
			return 0, fmt.Errorf("arm: branch offset %d not word aligned", insn.Imm)
		}
		off := insn.Imm / 4
		if off < -(1<<22) || off >= 1<<22 {
			return 0, fmt.Errorf("arm: branch offset %d out of range", insn.Imm)
		}
		w |= clsBranch<<24 | l<<23 | uint32(off)&0x7fffff
	case OpBX, OpBLX:
		l := uint32(0)
		if insn.Op == OpBLX {
			l = 1
		}
		w |= clsBX<<24 | l<<23 | reg4(insn.Rm)<<8
	case OpCMP, OpCMN, OpTST, OpTEQ:
		idx, _ := cmpIndex(insn.Op)
		w |= clsCmp<<24 | idx<<20 | reg4(insn.Rn)<<12
		if insn.HasImm {
			if insn.Imm < 0 || insn.Imm > 0xfff {
				return 0, fmt.Errorf("arm: %s immediate %d out of range [0,4095]", insn.Op, insn.Imm)
			}
			w |= 1<<19 | uint32(insn.Imm)
		} else {
			w |= reg4(insn.Rm) << 8
		}
	case OpMUL, OpSDIV, OpUDIV:
		idx, _ := indexOf(mulOps, insn.Op)
		w |= clsMulDiv<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12 | reg4(insn.Rm)<<8
	case OpSVC:
		if insn.Imm < 0 || insn.Imm > 0xffffff {
			return 0, fmt.Errorf("arm: SVC number %d out of range", insn.Imm)
		}
		w |= clsSVC<<24 | uint32(insn.Imm)
	case OpNOP:
		w |= clsMisc << 24
	case OpHLT:
		w |= clsMisc<<24 | 1<<20
	case OpFADDS, OpFSUBS, OpFMULS, OpFDIVS:
		idx, _ := indexOf(fp32Ops, insn.Op)
		w |= clsFP32<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12 | reg4(insn.Rm)<<8
	case OpFADDD, OpFSUBD, OpFMULD, OpFDIVD:
		idx, _ := indexOf(fp64Ops, insn.Op)
		w |= clsFP64<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rn)<<12 | reg4(insn.Rm)<<8
	case OpSITOF, OpFTOSI, OpSITOD, OpDTOSI:
		idx, _ := indexOf(fcvtOps, insn.Op)
		w |= clsFCVT<<24 | idx<<20 | reg4(insn.Rd)<<16 | reg4(insn.Rm)<<8
	default:
		return 0, fmt.Errorf("arm: cannot encode op %s", insn.Op)
	}
	return w, nil
}

func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode interprets a 32-bit ARM-mode word. Unrecognized encodings yield an
// Insn with Op == OpInvalid; the CPU raises an error when executing those.
func Decode(w uint32) Insn {
	insn := Insn{
		Cond: Cond(w >> 28),
		Rd:   RegNone, Rn: RegNone, Rm: RegNone,
		Size: 4,
	}
	cls := (w >> 24) & 0xf
	op4 := (w >> 20) & 0xf
	switch cls {
	case clsDPReg:
		if int(op4) >= len(dpOps) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = dpOps[op4]
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rn = int8((w >> 12) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
		insn.SetFlags = w&(1<<7) != 0
	case clsDPImm:
		switch {
		case int(op4) < len(dpOps):
			insn.Op = dpOps[op4]
			insn.Rn = int8((w >> 12) & 0xf)
		case op4 == 13:
			insn.Op = OpMOV
		case op4 == 14:
			insn.Op = OpMVN
		default:
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Imm = int32(w & 0xfff)
		insn.HasImm = true
	case clsMovReg:
		if op4 == 0 {
			insn.Op = OpMOV
		} else {
			insn.Op = OpMVN
		}
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
		insn.SetFlags = w&(1<<7) != 0
	case clsMovHW:
		if w&(1<<16) != 0 {
			insn.Op = OpMOVT
		} else {
			insn.Op = OpMOVW
		}
		insn.Rd = int8((w >> 20) & 0xf)
		insn.Imm = int32(w & 0xffff)
		insn.HasImm = true
	case clsMem:
		l := w&(1<<23) != 0
		sz := (w >> 21) & 3
		switch {
		case l && sz == 0:
			insn.Op = OpLDR
		case l && sz == 1:
			insn.Op = OpLDRB
		case l && sz == 2:
			insn.Op = OpLDRH
		case !l && sz == 0:
			insn.Op = OpSTR
		case !l && sz == 1:
			insn.Op = OpSTRB
		case !l && sz == 2:
			insn.Op = OpSTRH
		default:
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rn = int8((w >> 12) & 0xf)
		if w&(1<<20) != 0 {
			insn.RegOffset = true
			insn.Rm = int8((w >> 8) & 0xf)
		} else {
			insn.Imm = signExtend(w&0xfff, 12)
		}
	case clsBlock:
		if w&(1<<23) != 0 {
			insn.Op = OpLDM
		} else {
			insn.Op = OpSTM
		}
		insn.Writeback = w&(1<<22) != 0
		insn.Rn = int8((w >> 16) & 0xf)
		insn.RegList = uint16(w & 0xffff)
	case clsBranch:
		if w&(1<<23) != 0 {
			insn.Op = OpBL
		} else {
			insn.Op = OpB
		}
		insn.Imm = signExtend(w&0x7fffff, 23) * 4
		insn.HasImm = true
	case clsBX:
		if w&(1<<23) != 0 {
			insn.Op = OpBLX
		} else {
			insn.Op = OpBX
		}
		insn.Rm = int8((w >> 8) & 0xf)
	case clsCmp:
		if int(op4) >= len(cmpOps) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = cmpOps[op4]
		insn.Rn = int8((w >> 12) & 0xf)
		if w&(1<<19) != 0 {
			insn.Imm = int32(w & 0xfff)
			insn.HasImm = true
		} else {
			insn.Rm = int8((w >> 8) & 0xf)
		}
	case clsMulDiv:
		if int(op4) >= len(mulOps) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = mulOps[op4]
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rn = int8((w >> 12) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
	case clsSVC:
		insn.Op = OpSVC
		insn.Imm = int32(w & 0xffffff)
		insn.HasImm = true
	case clsMisc:
		switch op4 {
		case 0:
			insn.Op = OpNOP
		case 1:
			insn.Op = OpHLT
		default:
			return Insn{Op: OpInvalid, Size: 4}
		}
	case clsFP32:
		if int(op4) >= len(fp32Ops) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = fp32Ops[op4]
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rn = int8((w >> 12) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
	case clsFP64:
		if int(op4) >= len(fp64Ops) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = fp64Ops[op4]
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rn = int8((w >> 12) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
		if insn.Rd == PC || insn.Rn == PC || insn.Rm == PC {
			// A register pair cannot start at R15 (there is no R16).
			return Insn{Op: OpInvalid, Size: 4}
		}
	case clsFCVT:
		if int(op4) >= len(fcvtOps) {
			return Insn{Op: OpInvalid, Size: 4}
		}
		insn.Op = fcvtOps[op4]
		insn.Rd = int8((w >> 16) & 0xf)
		insn.Rm = int8((w >> 8) & 0xf)
		if insn.Op == OpSITOD && insn.Rd == PC || insn.Op == OpDTOSI && insn.Rm == PC {
			return Insn{Op: OpInvalid, Size: 4}
		}
	default:
		return Insn{Op: OpInvalid, Size: 4}
	}
	return insn
}
