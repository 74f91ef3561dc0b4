// Package cfbench reproduces the paper's performance evaluation (§VI-E,
// Fig. 10): a CF-Bench-style suite of sixteen rows — native and Java MIPS,
// MSFLOPS, MDFLOPS, native MALLOCS, memory read/write in both contexts,
// native disk read/write, and the three aggregate scores — each run under
// the analysis modes, with overheads reported relative to the vanilla run.
package cfbench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dex"
)

// Workload is one CF-Bench row.
type Workload struct {
	Name string
	Java bool
	// Ops is the nominal operation count per run (scores are ops/second).
	Ops int
	// install prepares the app (classes + native lib) on a fresh system.
	install func(sys *core.System, scale int) error
	// entryClass invokes the workload.
	entryClass string
}

// benchNativeLib holds every native workload routine. Loop counts arrive in
// R2 from the Java wrapper.
const benchNativeLib = `
; int mips(JNIEnv*, jclass, int n) — integer ALU loop
Java_mips:
	MOV R0, #0
	MOV R1, #7
bm_loop:
	CMP R2, #0
	BEQ bm_done
	ADD R0, R0, R1
	EOR R0, R0, R2
	SUB R2, R2, #1
	B bm_loop
bm_done:
	BX LR

; int msflops(JNIEnv*, jclass, int n) — single-precision float loop
Java_msflops:
	MOV R0, #3
	SITOF R1, R0        ; 3.0f
	MOV R0, #1
	SITOF R3, R0        ; 1.0f
	MOV R0, #0
	SITOF R0, R0        ; acc = 0.0f
bs_loop:
	CMP R2, #0
	BEQ bs_done
	FADDS R0, R0, R3
	FMULS R12, R0, R1
	FSUBS R0, R12, R0
	SUB R2, R2, #1
	B bs_loop
bs_done:
	FTOSI R0, R0
	BX LR

; int mdflops(JNIEnv*, jclass, int n) — double-precision loop (reg pairs)
Java_mdflops:
	PUSH {R4, R5, R6, R7, LR}
	MOV R0, #2
	SITOD R4, R0        ; (R4,R5) = 2.0
	MOV R0, #0
	SITOD R6, R0        ; acc (R6,R7) = 0.0
bd_loop:
	CMP R2, #0
	BEQ bd_done
	FADDD R6, R6, R4
	FMULD R6, R6, R4
	FDIVD R6, R6, R4
	SUB R2, R2, #1
	B bd_loop
bd_done:
	DTOSI R0, R6
	POP {R4, R5, R6, R7, PC}

; int mallocs(JNIEnv*, jclass, int n) — malloc/free pairs
Java_mallocs:
	PUSH {R4, R5, LR}
	MOV R4, R2
ba_loop:
	CMP R4, #0
	BEQ ba_done
	MOV R0, #64
	BL malloc
	MOV R5, R0
	MOV R0, R5
	BL free
	SUB R4, R4, #1
	B ba_loop
ba_done:
	MOV R0, #0
	POP {R4, R5, PC}

; int memread(JNIEnv*, jclass, int n) — LDR sweep over a buffer
Java_memread:
	PUSH {R4, LR}
	MOV R0, #0
	LDR R3, =workbuf
br_loop:
	CMP R2, #0
	BEQ br_done
	AND R4, R2, #0xff
	LSL R4, R4, #2
	LDR R12, [R3, R4]
	ADD R0, R0, R12
	SUB R2, R2, #1
	B br_loop
br_done:
	POP {R4, PC}

; int memwrite(JNIEnv*, jclass, int n) — STR sweep over a buffer
Java_memwrite:
	PUSH {R4, LR}
	LDR R3, =workbuf
bw_loop:
	CMP R2, #0
	BEQ bw_done
	AND R4, R2, #0xff
	LSL R4, R4, #2
	STR R2, [R3, R4]
	SUB R2, R2, #1
	B bw_loop
bw_done:
	MOV R0, #0
	POP {R4, PC}

; int diskwrite(JNIEnv*, jclass, int n) — fwrite chunks to a file
Java_diskwrite:
	PUSH {R4, R5, LR}
	MOV R4, R2
	LDR R0, =dw_path
	LDR R1, =dw_mode_w
	BL fopen
	MOV R5, R0
dw_loop:
	CMP R4, #0
	BEQ dw_done
	LDR R0, =workbuf
	MOV R1, #1
	MOV R2, #1024
	MOV R3, R5
	BL fwrite
	SUB R4, R4, #1
	B dw_loop
dw_done:
	MOV R0, R5
	BL fclose
	MOV R0, #0
	POP {R4, R5, PC}

; int diskread(JNIEnv*, jclass, int n) — fread chunks from the file
Java_diskread:
	PUSH {R4, R5, LR}
	MOV R4, R2
	LDR R0, =dw_path
	LDR R1, =dw_mode_r
	BL fopen
	MOV R5, R0
dr_loop:
	CMP R4, #0
	BEQ dr_done
	LDR R0, =workbuf
	MOV R1, #1
	MOV R2, #1024
	MOV R3, R5
	BL fread
	SUB R4, R4, #1
	B dr_loop
dr_done:
	MOV R0, R5
	BL fclose
	MOV R0, #0
	POP {R4, R5, PC}

dw_path:
	.asciz "/data/cfbench.dat"
dw_mode_w:
	.asciz "w"
dw_mode_r:
	.asciz "r"
	.align 4
workbuf:
	.space 2048
`

// installNativeWorkload registers the shared bench lib plus a Java wrapper
// class invoking one native routine with the loop count.
func installNativeWorkload(routine string, ops int) func(sys *core.System, scale int) error {
	return func(sys *core.System, scale int) error {
		prog, err := sys.VM.LoadNativeLib("libcfbench.so", benchNativeLib)
		if err != nil {
			return err
		}
		const cls = "Lcom/cfbench/Native;"
		cb := dex.NewClass(cls)
		cb.NativeMethod("work", "II", dex.AccStatic, 0)
		cb.Method("run", "V", dex.AccStatic, 1).
			Const(0, int32(ops/scale)).
			InvokeStatic(cls, "work", "II", 0).
			ReturnVoid().
			Done()
		sys.VM.RegisterClass(cb.Build())
		return sys.VM.BindNative(cls, "work", prog, "Java_"+routine)
	}
}

// javaWorkloads are built from Dalvik bytecode loops.
func installJavaMIPS(sys *core.System, scale int) error {
	return installJavaLoop(sys, opsJavaMIPS/scale, func(mb *dex.MethodBuilder) {
		mb.Const(0, 0). // acc
				Label("loop").
				IfZ(2, dex.Le, "done").
				Bin(dex.Add, 0, 0, 2).
				Bin(dex.Xor, 0, 0, 2).
				BinLit(dex.Sub, 2, 2, 1).
				Goto("loop").
				Label("done").
				ReturnVoid()
	})
}

func installJavaMSFLOPS(sys *core.System, scale int) error {
	return installJavaLoop(sys, opsJavaFLOPS/scale, func(mb *dex.MethodBuilder) {
		mb.Const(0, 0).
			IntToFloat(0, 0). // acc = 0f
			Const(1, 3).
			IntToFloat(1, 1). // 3f
			Label("loop").
			IfZ(2, dex.Le, "done").
			BinFloat(dex.Add, 0, 0, 1).
			BinFloat(dex.Mul, 0, 0, 1).
			BinFloat(dex.Div, 0, 0, 1).
			BinLit(dex.Sub, 2, 2, 1).
			Goto("loop").
			Label("done").
			ReturnVoid()
	})
}

func installJavaMDFLOPS(sys *core.System, scale int) error {
	return installJavaLoop(sys, opsJavaFLOPS/scale, func(mb *dex.MethodBuilder) {
		// regs: 0-1 acc, 3-4 const, 2(arg reg index 5 after shift) counter.
		mb.Const(0, 0).
			IntToDouble(0, 0).
			Const(3, 2).
			IntToDouble(3, 3).
			Label("loop").
			IfZ(5, dex.Le, "done").
			BinDouble(dex.Add, 0, 0, 3).
			BinDouble(dex.Mul, 0, 0, 3).
			BinDouble(dex.Div, 0, 0, 3).
			BinLit(dex.Sub, 5, 5, 1).
			Goto("loop").
			Label("done").
			ReturnVoid()
	}, 5)
}

func installJavaMemRead(sys *core.System, scale int) error {
	return installJavaLoop(sys, opsJavaMem/scale, func(mb *dex.MethodBuilder) {
		// reg 4 is the loop-count argument (4 locals + 1 in).
		mb.Const(0, 256).
			NewArray(1, 0, "I"). // int[256]
			Const(0, 0).         // acc
			Label("loop").
			IfZ(4, dex.Le, "done").
			BinLit(dex.And, 3, 4, 255).
			Aget(3, 1, 3).
			Bin(dex.Add, 0, 0, 3).
			BinLit(dex.Sub, 4, 4, 1).
			Goto("loop").
			Label("done").
			ReturnVoid()
	}, 4)
}

func installJavaMemWrite(sys *core.System, scale int) error {
	return installJavaLoop(sys, opsJavaMem/scale, func(mb *dex.MethodBuilder) {
		// reg 4 is the loop-count argument (4 locals + 1 in).
		mb.Const(0, 256).
			NewArray(1, 0, "I").
			Label("loop").
			IfZ(4, dex.Le, "done").
			BinLit(dex.And, 3, 4, 255).
			Aput(4, 1, 3).
			BinLit(dex.Sub, 4, 4, 1).
			Goto("loop").
			Label("done").
			ReturnVoid()
	}, 4)
}

// installJavaLoop builds Lcom/cfbench/Java; with run()V -> work(n)V.
func installJavaLoop(sys *core.System, ops int, body func(*dex.MethodBuilder), locals ...int) error {
	nLocals := 2
	if len(locals) > 0 {
		nLocals = locals[0]
	}
	const cls = "Lcom/cfbench/Java;"
	cb := dex.NewClass(cls)
	mb := cb.Method("work", "VI", dex.AccStatic, nLocals)
	body(mb)
	mb.Done()
	cb.Method("run", "V", dex.AccStatic, 1).
		Const(0, int32(ops)).
		InvokeStatic(cls, "work", "VI", 0).
		ReturnVoid().
		Done()
	sys.VM.RegisterClass(cb.Build())
	return nil
}

// Nominal operation counts, tuned so each vanilla run takes a few
// milliseconds on a laptop. Scale divides them for quick runs.
const (
	opsNativeMIPS  = 200000
	opsNativeFLOPS = 120000
	opsMallocs     = 20000
	opsNativeMem   = 200000
	opsDisk        = 400
	opsJavaMIPS    = 200000
	opsJavaFLOPS   = 120000
	opsJavaMem     = 200000
)

// Workloads returns the thirteen measured rows in Fig. 10 order (the three
// score rows are computed from these).
func Workloads() []Workload {
	return []Workload{
		{Name: "Native MIPS", Ops: opsNativeMIPS, install: installNativeWorkload("mips", opsNativeMIPS), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Java MIPS", Java: true, Ops: opsJavaMIPS, install: installJavaMIPS, entryClass: "Lcom/cfbench/Java;"},
		{Name: "Native MSFLOPS", Ops: opsNativeFLOPS, install: installNativeWorkload("msflops", opsNativeFLOPS), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Java MSFLOPS", Java: true, Ops: opsJavaFLOPS, install: installJavaMSFLOPS, entryClass: "Lcom/cfbench/Java;"},
		{Name: "Native MDFLOPS", Ops: opsNativeFLOPS, install: installNativeWorkload("mdflops", opsNativeFLOPS), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Java MDFLOPS", Java: true, Ops: opsJavaFLOPS, install: installJavaMDFLOPS, entryClass: "Lcom/cfbench/Java;"},
		{Name: "Native MALLOCS", Ops: opsMallocs, install: installNativeWorkload("mallocs", opsMallocs), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Native Memory Read", Ops: opsNativeMem, install: installNativeWorkload("memread", opsNativeMem), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Java Memory Read", Java: true, Ops: opsJavaMem, install: installJavaMemRead, entryClass: "Lcom/cfbench/Java;"},
		{Name: "Native Memory Write", Ops: opsNativeMem, install: installNativeWorkload("memwrite", opsNativeMem), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Java Memory Write", Java: true, Ops: opsJavaMem, install: installJavaMemWrite, entryClass: "Lcom/cfbench/Java;"},
		{Name: "Native Disk Read", Ops: opsDisk, install: installNativeWorkload("diskread", opsDisk), entryClass: "Lcom/cfbench/Native;"},
		{Name: "Native Disk Write", Ops: opsDisk, install: installNativeWorkload("diskwrite", opsDisk), entryClass: "Lcom/cfbench/Native;"},
	}
}

// NewRunner prepares a workload on a fresh system under the given mode and
// returns a function that executes one full run — the testing.B-friendly
// entry point used by the root bench harness.
func (w Workload) NewRunner(mode core.Mode, scale int) (func() error, error) {
	a, err := w.prepare(mode, scale, true)
	if err != nil {
		return nil, err
	}
	return func() error { return w.invoke(a.Sys) }, nil
}

// prepare installs the workload on its own System and attaches the mode's
// analyzer (gated or always-instrumented). Each Fig. 10 cell is one such
// hand-built System, so a timed run holds the workload loop and nothing
// else: no service, snapshot restore or degradation ladder.
func (w Workload) prepare(mode core.Mode, scale int, gate bool) (*core.Analyzer, error) {
	sys, err := core.NewSystem()
	if err != nil {
		return nil, err
	}
	if err := w.install(sys, scale); err != nil {
		return nil, err
	}
	// The disk-read workload needs the data file to exist.
	sys.Kern.FS.WriteFile("/data/cfbench.dat", make([]byte, 1024*(opsDisk/scale)+1024))
	if gate {
		return core.NewAnalyzer(sys, mode), nil
	}
	return core.NewAnalyzerNoGate(sys, mode), nil
}

// invoke runs the workload's entry point once.
func (w Workload) invoke(sys *core.System) error {
	_, _, thrown, err := sys.VM.InvokeByName(w.entryClass, "run", nil, nil)
	if err != nil {
		return err
	}
	if thrown != nil {
		return fmt.Errorf("cfbench: %s threw", w.Name)
	}
	return nil
}

// GateStats captures the taint-presence gate's activity during one measured
// run: mode flips and how many translated blocks dispatched onto the bare
// fast path versus the instrumented slow path, the Dalvik executor's
// method decodes for the Java rows, and the work counts
// behind the overheads: native and Java instructions retired and
// instructions that went through a Table V taint handler (0 in modes
// without a tracer).
type GateStats struct {
	NativeInsns uint64 `json:"nativeInsns,omitempty"`
	JavaInsns   uint64 `json:"javaInsns,omitempty"`
	Traced      uint64 `json:"traced,omitempty"`

	Flips      uint64 `json:"flips"`
	FastBlocks uint64 `json:"fastBlocks"`
	SlowBlocks uint64 `json:"slowBlocks"`

	JavaTransMethods uint64 `json:"javaTransMethods,omitempty"`
}

// Measure runs one workload under one mode, returning the score (nominal
// ops per second, like CF-Bench's point scale) and the gate activity.
func Measure(w Workload, mode core.Mode, scale int) (float64, GateStats, error) {
	return measure(w, mode, scale, true)
}

func measure(w Workload, mode core.Mode, scale int, gate bool) (float64, GateStats, error) {
	a, err := w.prepare(mode, scale, gate)
	if err != nil {
		return 0, GateStats{}, err
	}
	sys := a.Sys
	startInsns := sys.CPU.InsnCount
	startJava := sys.VM.JavaInsnCount
	start := time.Now()
	if err := w.invoke(sys); err != nil {
		return 0, GateStats{}, err
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	gs := GateStats{
		NativeInsns: sys.CPU.InsnCount - startInsns,
		JavaInsns:   sys.VM.JavaInsnCount - startJava,

		Flips:      sys.CPU.GateFlips,
		FastBlocks: sys.CPU.GateFastBlocks,
		SlowBlocks: sys.CPU.GateSlowBlocks,

		JavaTransMethods: sys.VM.JavaTransMethods,
	}
	if a.Tracer != nil {
		gs.Traced = a.Tracer.Traced
	}
	return float64(w.Ops/scale) / elapsed.Seconds(), gs, nil
}
