package arm

import (
	"testing"

	"repro/internal/mem"
)

const testBase = 0x10000

func runProgram(t *testing.T, src string, setup func(*CPU)) *CPU {
	t.Helper()
	prog, err := Assemble(src, testBase, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
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

func TestArithmeticProgram(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #10
	MOV R1, #3
	ADD R2, R0, R1     ; 13
	SUB R3, R0, R1     ; 7
	MUL R4, R0, R1     ; 30
	SDIV R5, R0, R1    ; 3
	UDIV R6, R0, R1    ; 3
	RSB R7, R1, #20    ; 17
	AND R8, R0, R1     ; 2
	ORR R9, R0, R1     ; 11
	EOR R10, R0, R1    ; 9
	HLT
`, nil)
	want := map[int]uint32{2: 13, 3: 7, 4: 30, 5: 3, 6: 3, 7: 17, 8: 2, 9: 11, 10: 9}
	for r, v := range want {
		if c.R[r] != v {
			t.Errorf("R%d = %d, want %d", r, c.R[r], v)
		}
	}
}

func TestShiftsAndMoves(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #1
	LSL R1, R0, #8      ; 256
	LSR R2, R1, #4      ; 16
	MOV R3, #0x80
	LSL R3, R3, #24     ; 0x80000000
	ASR R4, R3, #31     ; 0xffffffff
	MVN R5, R0          ; ^1
	MOVW R6, #0xbeef
	MOVT R6, #0xdead    ; 0xdeadbeef
	LDR R7, =0x12345678
	MOV R8, #16
	ROR R9, R6, R8      ; rotate deadbeef by 16 -> beefdead
	HLT
`, nil)
	checks := map[int]uint32{
		1: 256, 2: 16, 4: 0xffffffff, 5: ^uint32(1),
		6: 0xdeadbeef, 7: 0x12345678, 9: 0xbeefdead,
	}
	for r, v := range checks {
		if c.R[r] != v {
			t.Errorf("R%d = 0x%x, want 0x%x", r, c.R[r], v)
		}
	}
}

func TestMemoryAccess(t *testing.T) {
	c := runProgram(t, `
_start:
	LDR R0, =buf
	MOVW R1, #0x3344
	MOVT R1, #0x1122
	STR R1, [R0]
	LDRB R2, [R0]        ; 0x44
	LDRB R3, [R0, #1]    ; 0x33
	LDRH R4, [R0, #2]    ; 0x1122
	MOV R5, #0xff
	STRB R5, [R0, #4]
	LDR R6, [R0, #4]     ; 0xff
	MOV R7, #2
	LDRH R8, [R0, R7]    ; 0x1122
	HLT
buf:
	.space 16
`, nil)
	checks := map[int]uint32{2: 0x44, 3: 0x33, 4: 0x1122, 6: 0xff, 8: 0x1122}
	for r, v := range checks {
		if c.R[r] != v {
			t.Errorf("R%d = 0x%x, want 0x%x", r, c.R[r], v)
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a conditional loop.
	c := runProgram(t, `
_start:
	MOV R0, #0          ; sum
	MOV R1, #10         ; counter
loop:
	ADD R0, R0, R1
	SUB R1, R1, #1
	CMP R1, #0
	BNE loop
	HLT
`, nil)
	if c.R[0] != 55 {
		t.Errorf("sum = %d, want 55", c.R[0])
	}
}

func TestFunctionCallAndStack(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #21
	BL double
	HLT
double:
	PUSH {R4, LR}
	MOV R4, R0
	ADD R0, R4, R4
	POP {R4, PC}
`, nil)
	if c.R[0] != 42 {
		t.Errorf("R0 = %d, want 42", c.R[0])
	}
	if c.R[SP] != 0x80000 {
		t.Errorf("SP = 0x%x, want 0x80000 (balanced)", c.R[SP])
	}
}

func TestConditionalExecution(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #5
	CMP R0, #5
	MOVEQ R1, #1
	MOVNE R2, #1
	CMP R0, #6
	MOVLT R3, #1
	MOVGE R4, #1
	CMP R0, #3
	MOVHI R5, #1
	HLT
`, nil)
	if c.R[1] != 1 || c.R[2] != 0 || c.R[3] != 1 || c.R[4] != 0 || c.R[5] != 1 {
		t.Errorf("conditional execution wrong: R1=%d R2=%d R3=%d R4=%d R5=%d",
			c.R[1], c.R[2], c.R[3], c.R[4], c.R[5])
	}
}

func TestFloat32Ops(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #7
	SITOF R1, R0       ; 7.0f
	MOV R2, #2
	SITOF R3, R2       ; 2.0f
	FADDS R4, R1, R3   ; 9.0
	FSUBS R5, R1, R3   ; 5.0
	FMULS R6, R1, R3   ; 14.0
	FDIVS R7, R6, R3   ; 7.0
	FTOSI R8, R4       ; 9
	HLT
`, nil)
	if c.R[8] != 9 {
		t.Errorf("FTOSI result = %d, want 9", c.R[8])
	}
}

func TestFloat64Ops(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #100
	SITOD R2, R0       ; (R2,R3) = 100.0
	MOV R1, #8
	SITOD R4, R1       ; (R4,R5) = 8.0
	FDIVD R6, R2, R4   ; 12.5
	FMULD R8, R6, R4   ; 100.0
	DTOSI R10, R8      ; 100
	HLT
`, nil)
	if c.R[10] != 100 {
		t.Errorf("DTOSI result = %d, want 100", c.R[10])
	}
}

func TestThumbProgram(t *testing.T) {
	c := runProgram(t, `
	.thumb
_start:
	MOV R0, #0
	MOV R1, #10
loop:
	ADD R0, R0, R1
	SUB R1, R1, #1
	CMP R1, #0
	BNE loop
	BL leaf
	SVC #99
leaf:
	PUSH {R4, LR}
	MOV R4, #2
	MUL R0, R0, R4
	POP {R4, PC}
`, func(c *CPU) {
		c.SVC = func(c *CPU, num uint32) error {
			if num == 99 {
				c.Halted = true
			}
			return nil
		}
	})
	if c.R[0] != 110 {
		t.Errorf("thumb sum*2 = %d, want 110", c.R[0])
	}
	if !c.Thumb {
		t.Error("CPU should still be in thumb state")
	}
}

func TestInterworkingARMToThumb(t *testing.T) {
	c := runProgram(t, `
	.arm
_start:
	MOV R0, #5
	LDR R4, =thumb_triple    ; label carries bit 0
	BLX R4
	HLT
	.thumb
thumb_triple:
	MOV R1, #3
	MUL R0, R0, R1
	BX LR
`, nil)
	if c.R[0] != 15 {
		t.Errorf("R0 = %d, want 15", c.R[0])
	}
	if c.Thumb {
		t.Error("CPU should be back in ARM state after return")
	}
}

func TestAddrHookReplacesFunction(t *testing.T) {
	prog := MustAssemble(`
_start:
	MOV R0, #3
	MOV R1, #4
	BL magic
	HLT
magic:
	MOV R0, #0
	BX LR
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.R[SP] = 0x80000
	c.R[PC] = testBase
	called := false
	c.Hook(prog.MustLabel("magic"), func(c *CPU) HookAction {
		called = true
		c.R[0] = c.R[0] * c.R[1] // 12
		return ActionReturn
	})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("hook not called")
	}
	if c.R[0] != 12 {
		t.Errorf("R0 = %d, want 12 (hook result, not body)", c.R[0])
	}
}

func TestAddrHookContinue(t *testing.T) {
	prog := MustAssemble(`
_start:
	MOV R0, #3
	BL magic
	HLT
magic:
	ADD R0, R0, #1
	BX LR
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.R[SP] = 0x80000
	c.R[PC] = testBase
	seen := uint32(0)
	c.Hook(prog.MustLabel("magic"), func(c *CPU) HookAction {
		seen = c.R[0]
		return ActionContinue
	})
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Errorf("hook saw R0=%d, want 3", seen)
	}
	if c.R[0] != 4 {
		t.Errorf("R0 = %d, want 4 (body still ran)", c.R[0])
	}
}

func TestBranchEvents(t *testing.T) {
	prog := MustAssemble(`
_start:
	BL f
	HLT
f:
	BX LR
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.R[SP] = 0x80000
	c.R[PC] = testBase
	var events [][2]uint32
	c.BranchFn = func(_ *CPU, from, to uint32) {
		events = append(events, [2]uint32{from, to})
	}
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	f := prog.MustLabel("f")
	if len(events) != 2 {
		t.Fatalf("got %d branch events, want 2: %v", len(events), events)
	}
	if events[0] != [2]uint32{testBase, f} {
		t.Errorf("call event = %v, want {0x%x, 0x%x}", events[0], testBase, f)
	}
	if events[1] != [2]uint32{f, testBase + 4} {
		t.Errorf("return event = %v, want {0x%x, 0x%x}", events[1], f, testBase+4)
	}
}

func TestDecodeCacheCounts(t *testing.T) {
	prog := MustAssemble(`
_start:
	MOV R0, #0
	MOV R1, #100
loop:
	ADD R0, R0, #1
	CMP R0, R1
	BNE loop
	HLT
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.R[PC] = testBase
	c.UseDecodeCache = true
	if err := c.Run(10000); err != nil {
		t.Fatal(err)
	}
	if c.CacheMisses == 0 || c.CacheHits == 0 {
		t.Fatalf("cache stats hits=%d misses=%d, want both nonzero", c.CacheHits, c.CacheMisses)
	}
	if c.CacheMisses > 10 {
		t.Errorf("cache misses = %d, want <= distinct instruction count", c.CacheMisses)
	}
	if c.CacheHits < 290 {
		t.Errorf("cache hits = %d, want ~3*100 loop re-executions", c.CacheHits)
	}
}

func TestSVCDispatch(t *testing.T) {
	var got []uint32
	runProgram(t, `
_start:
	MOV R0, #1
	SVC #7
	SVC #9
	HLT
`, func(c *CPU) {
		c.SVC = func(c *CPU, num uint32) error {
			got = append(got, num)
			return nil
		}
	})
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("SVC numbers = %v, want [7 9]", got)
	}
}

func TestRunUntilStops(t *testing.T) {
	prog := MustAssemble(`
_start:
	MOV R0, #1
	B spin
pad:
	NOP
spin:
	MOV R0, #2
	LDR R3, =pad
	BX R3
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.R[PC] = testBase
	pad := prog.MustLabel("pad")
	if err := c.RunUntil(pad, 1000); err != nil {
		t.Fatal(err)
	}
	if c.R[PC] != pad {
		t.Errorf("PC = 0x%x, want pad 0x%x", c.R[PC], pad)
	}
	if c.R[0] != 2 {
		t.Errorf("R0 = %d, want 2", c.R[0])
	}
}

func TestInvalidInstruction(t *testing.T) {
	m := mem.New()
	m.Write32(testBase, 0x0f000000) // class 15: unassigned
	c := New(m)
	c.R[PC] = testBase
	if err := c.Step(); err == nil {
		t.Fatal("expected invalid-instruction error")
	}
}

func TestDivideByZero(t *testing.T) {
	c := runProgram(t, `
_start:
	MOV R0, #10
	MOV R1, #0
	SDIV R2, R0, R1
	UDIV R3, R0, R1
	HLT
`, nil)
	if c.R[2] != 0 || c.R[3] != 0 {
		t.Errorf("divide by zero: R2=%d R3=%d, want 0,0 (ARM semantics)", c.R[2], c.R[3])
	}
}
