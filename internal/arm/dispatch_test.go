package arm

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
)

// Loop shapes for the dispatch-boundary tests. Each spins forever (or, for
// cond-exit, long enough that small budgets land inside the loop), so the
// budget or an injected fault is what stops it.
var dispatchLoops = []struct {
	name  string
	src   string
	thumb bool
}{
	// One two-instruction block that chains to itself: hostile-spin's shape.
	{"self-loop", `
_start:
	ADD R0, R0, #1
	B _start
`, false},
	// Four blocks per iteration (2+3+2+1 instructions), one of them a call.
	{"multi-block", `
_start:
	ADD R0, R0, #1
	B second
second:
	ADD R1, R1, #1
	ADD R2, R2, #1
	BL third
	B _start
third:
	ADD R3, R3, #1
	BX LR
`, false},
	{"thumb", `
	.thumb
_start:
	ADD R0, R0, #1
	SUB R1, R1, #1
	B _start
`, true},
	// A 3-instruction block ending in a conditional exit plus a 1-instruction
	// back edge; after 40 iterations it leaves through the HLT block.
	{"cond-exit", `
_start:
	ADD R0, R0, #1
	CMP R0, #40
	BEQ done
	B _start
done:
	HLT
`, false},
}

// newLoopCPU loads one of dispatchLoops onto a fresh CPU at testBase.
func newLoopCPU(t *testing.T, shape string, blk bool) (*CPU, *Program) {
	t.Helper()
	for _, l := range dispatchLoops {
		if l.name != shape {
			continue
		}
		prog := MustAssemble(l.src, testBase, nil)
		m := mem.New()
		m.WriteBytes(prog.Base, prog.Code)
		c := New(m)
		c.UseDecodeCache = true
		c.UseBlockCache = blk
		c.R[SP] = 0x80000
		entry := prog.Base
		if l.thumb {
			entry |= 1
		}
		c.SetThumbPC(entry)
		return c, prog
	}
	t.Fatalf("unknown loop shape %q", shape)
	return nil, nil
}

// TestInstructionBudget pins where the native budget stops each loop shape:
// a typed BudgetExceeded fault at the first dispatch boundary past the limit,
// with the exact PC, retired-instruction count and block-cache counters. The
// interpreter stops at instruction granularity; the block engine settles
// InsnCount per block, so a budget landing anywhere inside a block stops at
// that block's end. Budgets sweep every offset inside each loop's blocks.
// cond-exit's last rows cover a run whose final (HLT) block crosses the limit
// — the budget wins over the halt — and one that halts exactly at it.
func TestInstructionBudget(t *testing.T) {
	const none = fault.Kind(0)
	rows := []struct {
		shape        string
		blk          bool
		budget       uint64
		kind         fault.Kind
		pc           uint32
		insns        uint64
		hits, misses uint64
	}{
		{"self-loop", false, 100, fault.BudgetExceeded, 0x10004, 101, 0, 0},
		{"self-loop", false, 101, fault.BudgetExceeded, 0x10000, 102, 0, 0},
		{"self-loop", true, 100, fault.BudgetExceeded, 0x10000, 102, 50, 1},
		{"self-loop", true, 101, fault.BudgetExceeded, 0x10000, 102, 50, 1},
		{"multi-block", false, 100, fault.BudgetExceeded, 0x10018, 101, 0, 0},
		{"multi-block", false, 101, fault.BudgetExceeded, 0x1001c, 102, 0, 0},
		{"multi-block", false, 102, fault.BudgetExceeded, 0x10014, 103, 0, 0},
		{"multi-block", false, 103, fault.BudgetExceeded, 0x10000, 104, 0, 0},
		{"multi-block", false, 104, fault.BudgetExceeded, 0x10004, 105, 0, 0},
		{"multi-block", false, 105, fault.BudgetExceeded, 0x10008, 106, 0, 0},
		{"multi-block", false, 106, fault.BudgetExceeded, 0x1000c, 107, 0, 0},
		{"multi-block", false, 107, fault.BudgetExceeded, 0x10010, 108, 0, 0},
		{"multi-block", true, 100, fault.BudgetExceeded, 0x10018, 101, 46, 4},
		{"multi-block", true, 101, fault.BudgetExceeded, 0x10014, 103, 47, 4},
		{"multi-block", true, 102, fault.BudgetExceeded, 0x10014, 103, 47, 4},
		{"multi-block", true, 103, fault.BudgetExceeded, 0x10000, 104, 48, 4},
		{"multi-block", true, 104, fault.BudgetExceeded, 0x10008, 106, 49, 4},
		{"multi-block", true, 105, fault.BudgetExceeded, 0x10008, 106, 49, 4},
		{"multi-block", true, 106, fault.BudgetExceeded, 0x10018, 109, 50, 4},
		{"multi-block", true, 107, fault.BudgetExceeded, 0x10018, 109, 50, 4},
		{"thumb", false, 100, fault.BudgetExceeded, 0x10004, 101, 0, 0},
		{"thumb", false, 101, fault.BudgetExceeded, 0x10000, 102, 0, 0},
		{"thumb", false, 102, fault.BudgetExceeded, 0x10002, 103, 0, 0},
		{"thumb", true, 100, fault.BudgetExceeded, 0x10000, 102, 33, 1},
		{"thumb", true, 101, fault.BudgetExceeded, 0x10000, 102, 33, 1},
		{"thumb", true, 102, fault.BudgetExceeded, 0x10000, 105, 34, 1},
		{"cond-exit", false, 157, fault.BudgetExceeded, 0x10008, 158, 0, 0},
		{"cond-exit", false, 158, fault.BudgetExceeded, 0x10010, 159, 0, 0},
		{"cond-exit", false, 159, fault.BudgetExceeded, 0x10010, 160, 0, 0},
		{"cond-exit", false, 160, none, 0x10010, 160, 0, 0},
		{"cond-exit", true, 157, fault.BudgetExceeded, 0x10010, 159, 77, 2},
		{"cond-exit", true, 158, fault.BudgetExceeded, 0x10010, 159, 77, 2},
		{"cond-exit", true, 159, fault.BudgetExceeded, 0x10010, 160, 77, 3},
		{"cond-exit", true, 160, none, 0x10010, 160, 77, 3},
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/blk=%v/budget=%d", r.shape, r.blk, r.budget)
		c, _ := newLoopCPU(t, r.shape, r.blk)
		err := c.Run(r.budget)
		if r.kind == none {
			if err != nil || !c.Halted {
				t.Errorf("%s: err=%v halted=%v, want a clean halt", name, err, c.Halted)
			}
		} else if f, ok := fault.Of(err); !ok || f.Kind != r.kind || f.PC != r.pc {
			t.Errorf("%s: err=%v, want a %s fault at 0x%x", name, err, r.kind, r.pc)
		}
		if c.R[PC] != r.pc || c.InsnCount != r.insns || c.BlockHits != r.hits || c.BlockMisses != r.misses {
			t.Errorf("%s: pc=0x%x insns=%d hits=%d misses=%d, want 0x%x %d %d %d", name,
				c.R[PC], c.InsnCount, c.BlockHits, c.BlockMisses, r.pc, r.insns, r.hits, r.misses)
		}
	}
}

// injectionKinds is the fault-kind set the dispatch injection tests cross:
// one kind by default, the CI fault-inject job's representative set when
// NDROID_FAULT_INJECT is set.
func injectionKinds() []fault.Kind {
	if os.Getenv("NDROID_FAULT_INJECT") != "" {
		return []fault.Kind{fault.UnmappedAccess, fault.BudgetExceeded, fault.InternalError}
	}
	return []fault.Kind{fault.UnmappedAccess}
}

// TestDispatchInjectionParity arms the dispatch site for its n-th hit over
// the chained multi-block loop: the injected fault must surface at the n-th
// dispatch — per instruction on the interpreter, per block on the engine —
// with the exact PC and instruction count, so chained successors never skip
// a probe while a site is armed.
func TestDispatchInjectionParity(t *testing.T) {
	defer fault.Reset()
	rows := []struct {
		blk          bool
		n            int
		pc           uint32
		insns        uint64
		hits, misses uint64
	}{
		{false, 1, 0x10000, 0, 0, 0},
		{false, 2, 0x10004, 1, 0, 0},
		{false, 3, 0x10008, 2, 0, 0},
		{false, 4, 0x1000c, 3, 0, 0},
		{false, 5, 0x10010, 4, 0, 0},
		{false, 6, 0x10018, 5, 0, 0},
		{false, 7, 0x1001c, 6, 0, 0},
		{false, 8, 0x10014, 7, 0, 0},
		{false, 9, 0x10000, 8, 0, 0},
		{false, 12, 0x1000c, 11, 0, 0},
		{true, 1, 0x10000, 0, 0, 0},
		{true, 2, 0x10008, 2, 0, 1},
		{true, 3, 0x10018, 5, 0, 2},
		{true, 4, 0x10014, 7, 0, 3},
		{true, 5, 0x10000, 8, 0, 4},
		{true, 6, 0x10008, 10, 1, 4},
		{true, 7, 0x10018, 13, 2, 4},
		{true, 8, 0x10014, 15, 3, 4},
		{true, 9, 0x10000, 16, 4, 4},
		{true, 10, 0x10008, 18, 5, 4},
		{true, 11, 0x10018, 21, 6, 4},
		{true, 12, 0x10014, 23, 7, 4},
	}
	for _, k := range injectionKinds() {
		for _, r := range rows {
			name := fmt.Sprintf("%s/blk=%v/n=%d", k, r.blk, r.n)
			fault.Reset()
			c, _ := newLoopCPU(t, "multi-block", r.blk)
			if err := fault.ArmNth(SiteDispatch, k, r.n); err != nil {
				t.Fatal(err)
			}
			err := c.Run(1000)
			if f, ok := fault.Of(err); !ok || f.Kind != k || f.Site != SiteDispatch || f.PC != r.pc {
				t.Errorf("%s: err=%v, want an injected %s at 0x%x", name, err, k, r.pc)
			}
			if c.InsnCount != r.insns || c.BlockHits != r.hits || c.BlockMisses != r.misses {
				t.Errorf("%s: insns=%d hits=%d misses=%d, want %d %d %d", name,
					c.InsnCount, c.BlockHits, c.BlockMisses, r.insns, r.hits, r.misses)
			}
		}
	}
}

// TestDispatchInjectionFromHook arms the dispatch site from inside an address
// hook while the loop runs hot: the fault must fire at the very next dispatch
// — on the engine, the one after the hooked block, even though that block
// chains to a cached successor.
func TestDispatchInjectionFromHook(t *testing.T) {
	defer fault.Reset()
	for _, k := range injectionKinds() {
		for _, r := range []struct {
			blk   bool
			pc    uint32
			insns uint64
		}{{false, 0x1001c, 22}, {true, 0x10014, 23}} {
			fault.Reset()
			c, prog := newLoopCPU(t, "multi-block", r.blk)
			fired := 0
			c.Hook(prog.MustLabel("third"), func(c *CPU) HookAction {
				if fired++; fired == 3 {
					if err := fault.Arm(SiteDispatch, k); err != nil {
						t.Error(err)
					}
				}
				return ActionContinue
			})
			err := c.Run(1000)
			if f, ok := fault.Of(err); !ok || f.Kind != k || f.PC != r.pc || c.InsnCount != r.insns || fired != 3 {
				t.Errorf("%s/blk=%v: err=%v insns=%d fired=%d, want an injected %s at 0x%x after %d insns, 3 firings",
					k, r.blk, err, c.InsnCount, fired, k, r.pc, r.insns)
			}
		}
	}
}
