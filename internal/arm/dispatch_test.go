package arm

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/taint"
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
	// The shapes below are single-block loops: the block ends in a direct
	// branch back to its own start, so the engine iterates it in place.
	// counted is the bottom-tested loop compilers rotate loops into: a
	// prologue block falls into SUB/CMP/BNE, which after 60 passes leaves by
	// fall-through into the HLT block.
	{"counted", `
_start:
	MOV R5, #60
loop:
	ADD R0, R0, #1
	SUB R5, R5, #1
	CMP R5, #0
	BNE loop
	HLT
`, false},
	// A body op that executes on every other pass.
	{"cond-body", `
_start:
	ADD R0, R0, #1
	TST R0, #1
	ADDNE R1, R1, #1
	B _start
`, false},
	// A load walking down towards the guard page: pass 65 faults on its LDR.
	{"load", `
_start:
	MOVW R2, #0x1100
loop:
	LDR R1, [R2]
	ADD R0, R0, R1
	SUB R2, R2, #4
	B loop
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
// The single-block loops (counted, cond-body, load) iterate in place on the
// engine, which must stop at the same pass boundary chained dispatch did;
// counted's last rows leave the loop by fall-through, and load's last row
// ends in its LDR's guard-page fault with the exact PC and count.
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
		{"counted", false, 100, fault.BudgetExceeded, 0x10004, 101, 0, 0},
		{"counted", false, 101, fault.BudgetExceeded, 0x10008, 102, 0, 0},
		{"counted", false, 102, fault.BudgetExceeded, 0x1000c, 103, 0, 0},
		{"counted", false, 103, fault.BudgetExceeded, 0x10010, 104, 0, 0},
		{"counted", false, 241, fault.BudgetExceeded, 0x10014, 242, 0, 0},
		{"counted", false, 242, none, 0x10014, 242, 0, 0},
		{"counted", true, 100, fault.BudgetExceeded, 0x10004, 101, 23, 2},
		{"counted", true, 101, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"counted", true, 102, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"counted", true, 103, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"counted", true, 104, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"counted", true, 241, fault.BudgetExceeded, 0x10014, 242, 58, 3},
		{"counted", true, 242, none, 0x10014, 242, 58, 3},
		{"cond-body", false, 100, fault.BudgetExceeded, 0x10004, 101, 0, 0},
		{"cond-body", false, 101, fault.BudgetExceeded, 0x10008, 102, 0, 0},
		{"cond-body", false, 102, fault.BudgetExceeded, 0x1000c, 103, 0, 0},
		{"cond-body", false, 103, fault.BudgetExceeded, 0x10000, 104, 0, 0},
		{"cond-body", true, 100, fault.BudgetExceeded, 0x10000, 104, 25, 1},
		{"cond-body", true, 101, fault.BudgetExceeded, 0x10000, 104, 25, 1},
		{"cond-body", true, 102, fault.BudgetExceeded, 0x10000, 104, 25, 1},
		{"cond-body", true, 103, fault.BudgetExceeded, 0x10000, 104, 25, 1},
		{"cond-body", true, 104, fault.BudgetExceeded, 0x10000, 108, 26, 1},
		{"load", false, 100, fault.BudgetExceeded, 0x10004, 101, 0, 0},
		{"load", false, 101, fault.BudgetExceeded, 0x10008, 102, 0, 0},
		{"load", false, 102, fault.BudgetExceeded, 0x1000c, 103, 0, 0},
		{"load", false, 103, fault.BudgetExceeded, 0x10010, 104, 0, 0},
		{"load", false, 1000, fault.UnmappedAccess, 0x10004, 262, 0, 0},
		{"load", true, 100, fault.BudgetExceeded, 0x10004, 101, 23, 2},
		{"load", true, 101, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"load", true, 102, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"load", true, 103, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"load", true, 104, fault.BudgetExceeded, 0x10004, 105, 24, 2},
		{"load", true, 1000, fault.UnmappedAccess, 0x10004, 262, 64, 2},
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
// the chained multi-block loop and the counted single-block loop: the
// injected fault must surface at the n-th dispatch — per instruction on the
// interpreter, per block on the engine — with the exact PC and instruction
// count, so neither chained successors nor in-place loop passes skip a probe
// while a site is armed.
func TestDispatchInjectionParity(t *testing.T) {
	defer fault.Reset()
	rows := []struct {
		shape        string
		blk          bool
		n            int
		pc           uint32
		insns        uint64
		hits, misses uint64
	}{
		{"multi-block", false, 1, 0x10000, 0, 0, 0},
		{"multi-block", false, 2, 0x10004, 1, 0, 0},
		{"multi-block", false, 3, 0x10008, 2, 0, 0},
		{"multi-block", false, 4, 0x1000c, 3, 0, 0},
		{"multi-block", false, 5, 0x10010, 4, 0, 0},
		{"multi-block", false, 6, 0x10018, 5, 0, 0},
		{"multi-block", false, 7, 0x1001c, 6, 0, 0},
		{"multi-block", false, 8, 0x10014, 7, 0, 0},
		{"multi-block", false, 9, 0x10000, 8, 0, 0},
		{"multi-block", false, 12, 0x1000c, 11, 0, 0},
		{"multi-block", true, 1, 0x10000, 0, 0, 0},
		{"multi-block", true, 2, 0x10008, 2, 0, 1},
		{"multi-block", true, 3, 0x10018, 5, 0, 2},
		{"multi-block", true, 4, 0x10014, 7, 0, 3},
		{"multi-block", true, 5, 0x10000, 8, 0, 4},
		{"multi-block", true, 6, 0x10008, 10, 1, 4},
		{"multi-block", true, 7, 0x10018, 13, 2, 4},
		{"multi-block", true, 8, 0x10014, 15, 3, 4},
		{"multi-block", true, 9, 0x10000, 16, 4, 4},
		{"multi-block", true, 10, 0x10008, 18, 5, 4},
		{"multi-block", true, 11, 0x10018, 21, 6, 4},
		{"multi-block", true, 12, 0x10014, 23, 7, 4},
		{"counted", false, 1, 0x10000, 0, 0, 0},
		{"counted", false, 2, 0x10004, 1, 0, 0},
		{"counted", false, 6, 0x10004, 5, 0, 0},
		{"counted", false, 7, 0x10008, 6, 0, 0},
		{"counted", true, 1, 0x10000, 0, 0, 0},
		{"counted", true, 2, 0x10004, 5, 0, 1},
		{"counted", true, 3, 0x10004, 9, 0, 2},
		{"counted", true, 4, 0x10004, 13, 1, 2},
		{"counted", true, 5, 0x10004, 17, 2, 2},
		{"counted", true, 6, 0x10004, 21, 3, 2},
	}
	for _, k := range injectionKinds() {
		for _, r := range rows {
			name := fmt.Sprintf("%s/%s/blk=%v/n=%d", k, r.shape, r.blk, r.n)
			fault.Reset()
			c, _ := newLoopCPU(t, r.shape, r.blk)
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

// TestInPlaceLoopGivesWay runs the counted loop with each condition under
// which the engine must leave its in-place iteration and dispatch every pass
// through the slow path, and checks the result against the interpreter:
//   - a hook at the loop head fires on each of the 59 taken back-edges (the
//     first arrival is a fall-through and does not fire it);
//   - a BranchFn whose watch covers the head sees all 59 back-edge events,
//     and none once the watch is narrowed away from it;
//   - a run whose stop is the head returns at its first arrival at a dispatch
//     boundary, before any pass of the loop block: after the MOV on the
//     interpreter, after the prologue block (which runs the first pass by
//     fall-through) on the engine;
//   - with taint live the instrumented variant runs and each pass re-derives
//     liveness, so the tracer sees every instruction whose condition holds
//     (all but the last BNE) and every pass is a slow-gate block; with none,
//     the bare passes settle GateFastBlocks in bulk.
func TestInPlaceLoopGivesWay(t *testing.T) {
	for _, blk := range []bool{false, true} {
		c, prog := newLoopCPU(t, "counted", blk)
		head := prog.MustLabel("loop")
		fired := 0
		c.Hook(head, func(*CPU) HookAction { fired++; return ActionContinue })
		if err := c.Run(1000); err != nil || c.R[0] != 60 || c.InsnCount != 242 || fired != 59 {
			t.Errorf("hook/blk=%v: err=%v r0=%d insns=%d fired=%d, want 60 242 59", blk, err, c.R[0], c.InsnCount, fired)
		}

		for _, watch := range []bool{true, false} {
			c, _ = newLoopCPU(t, "counted", blk)
			events := 0
			c.BranchFn = func(_ *CPU, _, to uint32) {
				if to == head {
					events++
				}
			}
			want := 59
			if !watch {
				c.SetBranchWatch(head+4, head+4)
				want = 0
			}
			if err := c.Run(1000); err != nil || c.InsnCount != 242 || events != want {
				t.Errorf("branch/blk=%v/watch=%v: err=%v insns=%d events=%d, want 242 %d", blk, watch, err, c.InsnCount, events, want)
			}
		}

		c, _ = newLoopCPU(t, "counted", blk)
		wantInsns := uint64(1)
		if blk {
			wantInsns = 5
		}
		if err := c.RunUntil(head, 1000); err != nil || c.R[PC] != head || c.InsnCount != wantInsns {
			t.Errorf("stop/blk=%v: err=%v pc=0x%x insns=%d, want the head after %d", blk, err, c.R[PC], c.InsnCount, wantInsns)
		}

		for _, live := range []bool{true, false} {
			c, _ = newLoopCPU(t, "counted", blk)
			tr := &miniTracer{mt: taint.NewMemTaint()}
			c.Tracer = tr
			c.AttachLiveness(taint.NewLiveness())
			c.UseTaintGate = true
			if live {
				c.SetRegTaint(9, taint.IMEI)
			}
			// On the engine: the prologue block (with pass 1), 59 passes, HLT.
			wantTraced, wantFast, wantSlow := 241, uint64(0), uint64(0)
			switch {
			case blk && live:
				wantSlow = 61
			case blk:
				wantTraced, wantFast = 0, 61
			}
			if err := c.Run(1000); err != nil || c.InsnCount != 242 || tr.traced != wantTraced ||
				c.GateFastBlocks != wantFast || c.GateSlowBlocks != wantSlow {
				t.Errorf("gate/blk=%v/live=%v: err=%v insns=%d traced=%d fast=%d slow=%d, want 242 %d %d %d",
					blk, live, err, c.InsnCount, tr.traced, c.GateFastBlocks, c.GateSlowBlocks, wantTraced, wantFast, wantSlow)
			}
		}
	}
}

// TestInPlaceLoopSeesLateInjection arms the dispatch site from another
// goroutine while a single-block loop iterates in place under a large
// budget: the loop must leave at its next back-edge, so the run ends in the
// injected fault at the loop head rather than running out its budget.
func TestInPlaceLoopSeesLateInjection(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c, _ := newLoopCPU(t, "self-loop", true)
	done := make(chan error)
	go func() { done <- c.Run(1 << 28) }()
	time.Sleep(10 * time.Millisecond)
	if err := fault.Arm(SiteDispatch, fault.UnmappedAccess); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if f, ok := fault.Of(err); !ok || f.Site != SiteDispatch || f.PC != 0x10000 {
		t.Errorf("err=%v, want an injected fault at the loop head", err)
	}
}
