package arm

import (
	"encoding/binary"
	"testing"

	"repro/internal/mem"
)

// runConfigured assembles src at testBase and runs it to halt under the given
// cache configuration, returning the CPU for inspection.
func runConfigured(t *testing.T, src string, dec, blk bool, setup func(*CPU)) *CPU {
	t.Helper()
	prog, err := Assemble(src, testBase, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.UseDecodeCache = dec
	c.UseBlockCache = blk
	c.R[SP] = 0x80000
	entry := prog.Base
	if e, ok := prog.Labels["_start"]; ok {
		entry = e
	}
	c.SetThumbPC(entry)
	if setup != nil {
		setup(c)
	}
	if err := c.Run(1 << 20); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !c.Halted {
		t.Fatalf("program did not halt")
	}
	return c
}

// compareEngines runs src under the plain interpreter and the block engine
// and requires identical architectural state.
func compareEngines(t *testing.T, src string) (interp, block *CPU) {
	t.Helper()
	interp = runConfigured(t, src, true, false, nil)
	block = runConfigured(t, src, true, true, nil)
	if interp.R != block.R {
		t.Errorf("registers diverge:\ninterp %v\nblock  %v", interp.R, block.R)
	}
	if interp.N != block.N || interp.Z != block.Z || interp.C != block.C || interp.V != block.V {
		t.Errorf("flags diverge: interp NZCV=%v%v%v%v block NZCV=%v%v%v%v",
			interp.N, interp.Z, interp.C, interp.V, block.N, block.Z, block.C, block.V)
	}
	if interp.InsnCount != block.InsnCount {
		t.Errorf("InsnCount diverges: interp %d, block %d", interp.InsnCount, block.InsnCount)
	}
	if interp.Thumb != block.Thumb {
		t.Errorf("Thumb state diverges: interp %v, block %v", interp.Thumb, block.Thumb)
	}
	return interp, block
}

// A conditional branch terminating a block must take both edges correctly:
// the taken edge chains to the loop head, the cond-failed edge falls through
// past endPC. Counts and flags must match the interpreter exactly (including
// the count-then-check order for condition-failed instructions).
func TestBlockCondBranchAtBlockEnd(t *testing.T) {
	_, block := compareEngines(t, `
_start:
	MOV R0, #0
	MOV R2, #20
loop:
	ADD R0, R0, R2
	SUB R2, R2, #1
	CMP R2, #0
	BNE loop
	HLT
`)
	if block.R[0] != 210 {
		t.Errorf("R0 = %d, want 210", block.R[0])
	}
	if block.BlockHits == 0 {
		t.Error("loop never hit the block cache")
	}
}

// ARM<->Thumb interworking inside a chained pair: the loop body BLXes into a
// Thumb callee and returns, so the chain alternates instruction sets. Block
// keys carry the Thumb bit, so an ARM and a Thumb translation of the same
// address can never be confused.
func TestBlockInterworkingChain(t *testing.T) {
	_, block := compareEngines(t, `
	.arm
_start:
	MOV R0, #0
	MOV R5, #8
	LDR R4, =tadd
aloop:
	BLX R4
	SUB R5, R5, #1
	CMP R5, #0
	BNE aloop
	HLT
	.thumb
tadd:
	ADD R0, R0, #3
	BX LR
`)
	if block.R[0] != 24 {
		t.Errorf("R0 = %d, want 24", block.R[0])
	}
	if block.Thumb {
		t.Error("CPU should end in ARM state")
	}
	if block.BlockHits == 0 {
		t.Error("interworking loop never hit the block cache")
	}
}

// A hook registered on an already warm CPU must fire exactly where the
// interpreter's would: only on arrival through a control transfer. Each input
// runs once unhooked (warming and chaining its blocks), then again with hooks
// installed:
//   - mid-block: the hook sits in the middle of a cached block. Hook
//     invalidates the page's blocks, so retranslation stops at the hooked
//     boundary and records startHooked; the fall-through arrival must NOT
//     fire it, the explicit B mid must — exactly one firing.
//   - bl-loop: a loop BLs a hooked function whose block is the chained
//     successor of the call: one firing per iteration.
//   - hook-installs-hook: f1's hook installs a hook on f2 — a block already
//     chained in the running loop — on its third firing; f2's hook must be
//     honoured from the very next arrival (10 + 8 firings).
func TestBlockHookInsideCachedBlock(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		hook      func(c *CPU, prog *Program, fired *int)
		r0, fired uint32
	}{
		{"mid-block", `
_start:
	MOV R0, #0
	MOV R5, #0
	ADD R0, R0, #1
mid:
	ADD R0, R0, #2
	ADD R0, R0, #4
	CMP R5, #0
	BNE done
	MOV R5, #1
	B mid
done:
	HLT
`, func(c *CPU, prog *Program, fired *int) {
			c.Hook(prog.MustLabel("mid"), func(c *CPU) HookAction { *fired++; return ActionContinue })
		}, 13, 1},
		{"bl-loop", `
_start:
	MOV R0, #0
	MOV R5, #10
loop:
	BL fn
	SUB R5, R5, #1
	CMP R5, #0
	BNE loop
	HLT
fn:
	ADD R0, R0, #1
	BX LR
`, func(c *CPU, prog *Program, fired *int) {
			c.Hook(prog.MustLabel("fn"), func(c *CPU) HookAction { *fired++; return ActionContinue })
		}, 10, 10},
		{"hook-installs-hook", `
_start:
	MOV R0, #0
	MOV R5, #10
loop:
	BL f1
	BL f2
	SUB R5, R5, #1
	CMP R5, #0
	BNE loop
	HLT
f1:
	ADD R0, R0, #1
	BX LR
f2:
	ADD R0, R0, #2
	BX LR
`, func(c *CPU, prog *Program, fired *int) {
			f1 := 0
			c.Hook(prog.MustLabel("f1"), func(c *CPU) HookAction {
				*fired++
				if f1++; f1 == 3 {
					c.Hook(prog.MustLabel("f2"), func(c *CPU) HookAction { *fired++; return ActionContinue })
				}
				return ActionContinue
			})
		}, 30, 18},
	}
	for _, tc := range cases {
		for _, blk := range []bool{false, true} {
			prog := MustAssemble(tc.src, testBase, nil)
			m := mem.New()
			m.WriteBytes(prog.Base, prog.Code)
			c := New(m)
			c.UseDecodeCache = true
			c.UseBlockCache = blk
			c.R[SP] = 0x80000
			c.SetThumbPC(prog.Base)
			if err := c.Run(1 << 20); err != nil {
				t.Fatal(err)
			}
			if c.R[0] != tc.r0 {
				t.Fatalf("%s/blk=%v: first run R0 = %d, want %d", tc.name, blk, c.R[0], tc.r0)
			}

			// Second run on the same (now warm) CPU, with the hooks installed.
			fired := 0
			tc.hook(c, prog, &fired)
			c.Halted = false
			c.R = [16]uint32{SP: 0x80000}
			c.SetThumbPC(prog.Base)
			if err := c.Run(1 << 20); err != nil {
				t.Fatal(err)
			}
			if c.R[0] != tc.r0 {
				t.Errorf("%s/blk=%v: hooked run R0 = %d, want %d", tc.name, blk, c.R[0], tc.r0)
			}
			if uint32(fired) != tc.fired {
				t.Errorf("%s/blk=%v: hooks fired %d times, want %d", tc.name, blk, fired, tc.fired)
			}
		}
	}
}

// A block whose instructions straddle a 4 KiB page boundary must be
// registered on (and invalidated through) both pages: a write that only
// touches the second page still drops the whole translation.
func TestBlockSpansPageBoundary(t *testing.T) {
	const base = 0x10ff0 // last 16 bytes of a page; insns 5+ land on the next
	prog := MustAssemble(`
_start:
	MOV R0, #1
	ADD R0, R0, #2
	ADD R0, R0, #4
	ADD R0, R0, #8
	ADD R0, R0, #16
	HLT
`, base, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.UseDecodeCache = true
	c.UseBlockCache = true
	c.SetThumbPC(base)
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.R[0] != 31 {
		t.Fatalf("R0 = %d, want 31", c.R[0])
	}

	// Patch the ADD #16 — it lives on the second page (0x11000).
	patch := MustAssemble("ADD R0, R0, #32", 0x11000, nil)
	if 0x11000>>12 == base>>12 {
		t.Fatal("test bug: patch target is not on the second page")
	}
	m.WriteBytes(0x11000, patch.Code)
	misses := c.BlockMisses
	c.Halted = false
	c.SetThumbPC(base)
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.R[0] != 47 {
		t.Errorf("after second-page patch R0 = %d, want 47 (stale translation survived)", c.R[0])
	}
	if c.BlockMisses == misses {
		t.Error("expected a retranslation after the second-page write")
	}
}

// Regression test for the stale decode-cache bug: a host-side rewrite of
// already-executed (and therefore already-decoded) code must be visible on
// the next run under every cache configuration. Before write-notify existed,
// the decoded-instruction cache was never invalidated and replayed the old
// instruction.
func TestSelfModifyingCodeHostRewrite(t *testing.T) {
	const src = `
_start:
	MOV R0, #7
	HLT
`
	configs := []struct {
		name     string
		dec, blk bool
	}{
		{"uncached", false, false},
		{"insn-cache", true, false},
		{"block-cache", true, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			prog := MustAssemble(src, testBase, nil)
			m := mem.New()
			m.WriteBytes(prog.Base, prog.Code)
			c := New(m)
			c.UseDecodeCache = cfg.dec
			c.UseBlockCache = cfg.blk
			c.SetThumbPC(testBase)
			if err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
			if c.R[0] != 7 {
				t.Fatalf("first run R0 = %d, want 7", c.R[0])
			}
			m.WriteBytes(testBase, MustAssemble("MOV R0, #9", testBase, nil).Code)
			c.Halted = false
			c.SetThumbPC(testBase)
			if err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
			if c.R[0] != 9 {
				t.Errorf("rewritten run R0 = %d, want 9 (stale decode cache)", c.R[0])
			}
		})
	}
}

// Guest-driven self-modifying code: a store patches an instruction that the
// *currently executing* block already translated, so the block must bail out
// mid-run (the stepNext validity check) and the next loop iteration must
// execute the new encoding. Exercised under every cache configuration.
func TestSelfModifyingCodeInBlock(t *testing.T) {
	const src = `
_start:
	MOV R5, #2
target:
	MOV R0, #7
	STR R2, [R1]
	SUB R5, R5, #1
	CMP R5, #0
	BNE target
	HLT
`
	// The patch: MOV R0, #42 encoded by our own assembler.
	patch := MustAssemble("MOV R0, #42", 0, nil)
	enc := binary.LittleEndian.Uint32(patch.Code)

	configs := []struct {
		name     string
		dec, blk bool
	}{
		{"uncached", false, false},
		{"insn-cache", true, false},
		{"block-cache", true, true},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			prog := MustAssemble(src, testBase, nil)
			m := mem.New()
			m.WriteBytes(prog.Base, prog.Code)
			c := New(m)
			c.UseDecodeCache = cfg.dec
			c.UseBlockCache = cfg.blk
			c.R[1] = prog.MustLabel("target") // address to patch
			c.R[2] = enc                      // new encoding
			c.SetThumbPC(testBase)
			if err := c.Run(1000); err != nil {
				t.Fatal(err)
			}
			// Pass 1 executes the original MOV R0, #7, then patches it;
			// pass 2 must observe MOV R0, #42.
			if c.R[0] != 42 {
				t.Errorf("R0 = %d, want 42 (pass 2 executed a stale instruction)", c.R[0])
			}
			if c.R[5] != 0 {
				t.Errorf("R5 = %d, want 0", c.R[5])
			}
		})
	}
}

// STR/STRB/STRH of PC store the instruction's own address, as the
// interpreter keeps R15 at the executing instruction. The block engine must
// materialize R15 for a store's data register too, not only for operands and
// bases; before it did, a store of PC behind other instructions in its block
// wrote the block's start address (0x10000 for the STR at 0x1000c). A store
// of PC ends its block, so each narrower store sits behind a MOV.
func TestBlockStorePC(t *testing.T) {
	_, block := compareEngines(t, `
_start:
	MOVW R1, #0x4000
	MOV R2, #0
	MOV R3, #0
	STR PC, [R1]
	MOV R2, #1
	STRB PC, [R1, #4]
	MOV R3, #2
	STRH PC, [R1, #8]
	LDR R4, [R1]
	LDRB R5, [R1, #4]
	LDRH R6, [R1, #8]
	HLT
`)
	for r, want := range map[int]uint32{4: 0x1000c, 5: 0x14, 6: 0x1c} {
		if block.R[r] != want {
			t.Errorf("R%d = 0x%x, want 0x%x", r, block.R[r], want)
		}
	}
}
