package arm

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/mem"
)

// fuzzBudget bounds every fuzzed run; fuzzMaxCode bounds the sequence.
const (
	fuzzBudget  = 300
	fuzzMaxCode = 4 * maxBlockOps
)

// fuzzRun is one engine's outcome on a fuzzed program.
type fuzzRun struct {
	c      *CPU
	err    string
	writes []string // every guest store, in order: address, size, bytes
}

// fuzzProgram lays out code at testBase, optionally closed by a back-edge to
// testBase, followed by a terminator so fall-through ends the run: HLT in
// ARM, and in Thumb (which has no HLT) an SVC that fails for want of a
// handler.
func fuzzProgram(code []byte, thumb, loop bool) []byte {
	if len(code) > fuzzMaxCode {
		code = code[:fuzzMaxCode]
	}
	size := 4
	if thumb {
		size = 2
	}
	prog := append([]byte(nil), code[:len(code)/size*size]...)
	var tail []Insn
	if loop {
		back := int32(-(len(prog) + size)) // relative to the next instruction
		tail = append(tail, Insn{Op: OpB, Cond: CondAL, Imm: back, HasImm: true})
	}
	if thumb {
		tail = append(tail, Insn{Op: OpSVC, Cond: CondAL, HasImm: true})
	} else {
		tail = append(tail, Insn{Op: OpHLT, Cond: CondAL})
	}
	for _, in := range tail {
		if thumb {
			hws, err := EncodeThumb(in)
			if err != nil {
				panic(err)
			}
			for _, hw := range hws {
				prog = binary.LittleEndian.AppendUint16(prog, hw)
			}
			continue
		}
		w, err := Encode(in)
		if err != nil {
			panic(err)
		}
		prog = binary.LittleEndian.AppendUint32(prog, w)
	}
	return prog
}

// runFuzzed runs prog on a fresh CPU under one engine. Registers start at
// addresses inside a data window (so loads and stores mostly land) or at
// seed-derived values (so arithmetic and flags vary); LR points back at the
// program, so BX LR loops too.
func runFuzzed(prog []byte, thumb, blk bool, seed uint32, budget uint64) fuzzRun {
	m := mem.New()
	m.WriteBytes(testBase, prog)
	c := New(m)
	c.UseDecodeCache = true
	c.UseBlockCache = blk
	for i := 0; i < 13; i++ {
		if i < 8 {
			c.R[i] = 0x40000 + uint32(i)*0x40
		} else {
			c.R[i] = seed ^ uint32(i)*0x9e3779b9
		}
	}
	c.R[SP] = 0x80000
	entry := uint32(testBase)
	if thumb {
		entry |= 1
	}
	c.R[LR] = entry
	c.SetThumbPC(entry)
	r := fuzzRun{c: c}
	m.AddWriteNotify(func(addr, n uint32) {
		r.writes = append(r.writes, fmt.Sprintf("%#x/%d:%x", addr, n, m.ReadBytes(addr, n)))
	})
	if err := c.Run(budget); err != nil {
		r.err = err.Error()
	}
	return r
}

// FuzzBlockEngine is the differential fuzz target of the block engine: a
// fuzzed ARM or Thumb instruction sequence, optionally closed by a back-edge
// (which makes the whole sequence one candidate in-place loop), runs on the
// interpreter and on the block engine under a small budget. Registers,
// flags, Thumb state, InsnCount, error text and every memory write must
// match. The engine settles the budget per block, so when it stops on the
// budget the interpreter is re-run to the same instruction count.
//
// The seeds under testdata/fuzz/FuzzBlockEngine include hostile-spin's
// loop, stores of PC, in-place loops with a conditional body op and with a
// load (one walking into the guard page), Thumb loops, a loop that rewrites
// its own code, and the inputs behind three fixed divergences: a double-
// precision pair at R15, BLX LR, and condition encoding 15.
func FuzzBlockEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, code []byte, thumb, loop bool, seed uint32) {
		prog := fuzzProgram(code, thumb, loop)
		blk := runFuzzed(prog, thumb, true, seed, fuzzBudget)
		budget := uint64(fuzzBudget)
		if blk.c.InsnCount > fuzzBudget {
			budget = blk.c.InsnCount - 1
		}
		in := runFuzzed(prog, thumb, false, seed, budget)
		a, b := in.c, blk.c
		if a.R != b.R {
			t.Errorf("registers diverge:\ninterp %x\nblock  %x", a.R, b.R)
		}
		if a.N != b.N || a.Z != b.Z || a.C != b.C || a.V != b.V || a.Thumb != b.Thumb || a.Halted != b.Halted {
			t.Errorf("NZCV/Thumb/Halted diverge: interp %v%v%v%v/%v/%v, block %v%v%v%v/%v/%v",
				a.N, a.Z, a.C, a.V, a.Thumb, a.Halted, b.N, b.Z, b.C, b.V, b.Thumb, b.Halted)
		}
		if a.InsnCount != b.InsnCount {
			t.Errorf("InsnCount diverges: interp %d, block %d", a.InsnCount, b.InsnCount)
		}
		if in.err != blk.err {
			t.Errorf("errors diverge:\ninterp %q\nblock  %q", in.err, blk.err)
		}
		if fmt.Sprint(in.writes) != fmt.Sprint(blk.writes) {
			t.Errorf("memory writes diverge:\ninterp %v\nblock  %v", in.writes, blk.writes)
		}
	})
}
