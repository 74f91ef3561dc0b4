package apps

import (
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/taint"
)

// This file holds the hot-loop corpus: three benign apps whose native halves
// are pure-register ALU/FP loops, plus hostile-sumdodge, whose native taint
// behavior depends on the *value* of its argument.
//
// The benign three each push a tainted int (the IMEI string's length)
// through a hot native function from a constant-bound Java loop, so the bulk
// of the run's traced native instructions comes from register-to-register
// Table V handlers (ALU sources unioned into the destination shadow) running
// inside translated blocks with tainted registers live, and the repeated
// crossing reuses the JNI-entry binding its first crossing made.

// SummixApp: a 400-iteration pure integer ALU loop behind JNI, called 64
// times. Every instruction is register-to-register or immediate, so the
// tracer's taint flows from the argument register into R0 through the ALU
// handlers alone, with no memory shadow involved.
func SummixApp() *App {
	const cls = "Lcom/ndroid/summix/Main;"
	return &App{
		Name:                 "summix",
		Desc:                 "tainted int through a hot pure-ALU native loop",
		Case:                 "1",
		EntryClass:           cls,
		EntryMethod:          "run",
		ExpectTag:            taint.IMEI,
		ExpectSink:           "Network.send",
		DetectedByTaintDroid: true,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libsummix.so", `
; int mix(JNIEnv*, jclass, int x) — pure-register ALU loop, no memory access
Java_mix:
	MOV R0, R2
	MOV R12, #400
mix_loop:
	ADD R0, R0, #3
	EOR R0, R0, R2
	SUB R12, R12, #1
	CMP R12, #0
	BNE mix_loop
	BX LR
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("mix", "II", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 0).
				MoveResult(0).
				Const(1, 0).
				Const(2, 64).
				Label("loop").
				IfZ(2, dex.Le, "done").
				InvokeStatic(cls, "mix", "II", 0).
				MoveResult(3).
				Bin(dex.Add, 1, 1, 3).
				BinLit(dex.Sub, 2, 2, 1).
				Goto("loop").
				Label("done").
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 1).
				MoveResult(1).
				ConstString(2, "ad.tracker.example.com").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 1).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "mix", prog, "Java_mix")
		},
	}
}

// SumfoldApp: like summix but the hot native function delegates to a local
// helper via BL, so the tracer follows register taint across a native call
// and return inside one JNI crossing (the helper writes only caller-saved
// registers and the caller parks LR in R1, so nothing touches the stack).
func SumfoldApp() *App {
	const cls = "Lcom/ndroid/sumfold/Main;"
	return &App{
		Name:                 "sumfold",
		Desc:                 "hot native loop whose body is a local BL helper",
		Case:                 "1",
		EntryClass:           cls,
		EntryMethod:          "run",
		ExpectTag:            taint.IMEI,
		ExpectSink:           "Network.send",
		DetectedByTaintDroid: true,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libsumfold.so", `
; int fold(JNIEnv*, jclass, int x) — non-leaf, saves LR in a register (no
; stack) so the whole function stays memory-free
Java_fold:
	MOV R1, LR
	MOV R0, R2
	MOV R12, #100
fold_loop:
	BL fold_step
	SUB R12, R12, #1
	CMP R12, #0
	BNE fold_loop
	MOV LR, R1
	BX LR

; int fold_step(int acc) — acc in R0; clobbers only caller-saved R0/R3
fold_step:
	MOV R3, #10
fs_loop:
	ADD R0, R0, #7
	SUB R3, R3, #1
	CMP R3, #0
	BNE fs_loop
	BX LR
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("fold", "II", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 0).
				MoveResult(0).
				Const(1, 0).
				Const(2, 64).
				Label("loop").
				IfZ(2, dex.Le, "done").
				InvokeStatic(cls, "fold", "II", 0).
				MoveResult(3).
				Bin(dex.Add, 1, 1, 3).
				BinLit(dex.Sub, 2, 2, 1).
				Goto("loop").
				Label("done").
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 1).
				MoveResult(1).
				ConstString(2, "ad.tracker.example.com").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 1).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "fold", prog, "Java_fold")
		},
	}
}

// SumfloatApp: the hot native function runs a single-precision FP loop
// (SITOF/FADDS/FMULS/FSUBS/FTOSI). The tracer models these register-to-
// register, so the app exercises the VFP rows of the Table V handlers on a
// tainted operand.
func SumfloatApp() *App {
	const cls = "Lcom/ndroid/sumfloat/Main;"
	return &App{
		Name:                 "sumfloat",
		Desc:                 "FP-register-only native loop (SITOF/FADDS/FTOSI)",
		Case:                 "1",
		EntryClass:           cls,
		EntryMethod:          "run",
		ExpectTag:            taint.IMEI,
		ExpectSink:           "Network.send",
		DetectedByTaintDroid: true,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libsumfloat.so", `
; int fmix(JNIEnv*, jclass, int x) — FP-register-only loop
Java_fmix:
	SITOF R0, R2
	MOV R3, #3
	SITOF R1, R3
	MOV R12, #300
fm_loop:
	FADDS R0, R0, R1
	FMULS R3, R0, R1
	FSUBS R0, R3, R1
	SUB R12, R12, #1
	CMP R12, #0
	BNE fm_loop
	FTOSI R0, R0
	BX LR
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("fmix", "II", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 0).
				MoveResult(0).
				Const(1, 0).
				Const(2, 64).
				Label("loop").
				IfZ(2, dex.Le, "done").
				InvokeStatic(cls, "fmix", "II", 0).
				MoveResult(3).
				Bin(dex.Add, 1, 1, 3).
				BinLit(dex.Sub, 2, 2, 1).
				Goto("loop").
				Label("done").
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 1).
				MoveResult(1).
				ConstString(2, "ad.tracker.example.com").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 1).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "fmix", prog, "Java_fmix")
		},
	}
}

// HostileSumdodgeApp: the native gate() returns its argument when the
// argument value is nonzero and a constant 0 otherwise. Any input-insensitive
// shortcut ("ret depends on arg2") over-taints the tainted-zero call and
// would fire a spurious leak on the first sink. Instruction-level tracing
// follows the branch actually taken: the first sink is clean and the second
// leaks the IMEI-derived value.
func HostileSumdodgeApp() *App {
	const cls = "Lcom/hostile/sumdodge/Main;"
	return &App{
		Name:                 "hostile-sumdodge",
		Desc:                 "hostile: native taint that depends on the argument value",
		Case:                 "2",
		EntryClass:           cls,
		EntryMethod:          "run",
		Hostile:              true,
		ExpectTag:            taint.IMEI,
		ExpectSink:           "Network.send",
		DetectedByTaintDroid: true,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libsumdodge.so", `
; int gate(JNIEnv*, jclass, int x) — taint transfer depends on the VALUE of
; x: nonzero passes the argument through, zero returns a clean constant.
Java_gate:
	CMP R2, #0
	BEQ gate_zero
	MOV R0, R2
	BX LR
gate_zero:
	MOV R0, #0
	BX LR
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("gate", "II", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 4).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 0).
				MoveResult(0).
				// z = n - n: a *tainted zero*. gate(z) really returns a clean
				// constant, which only per-instruction tracing sees.
				Bin(dex.Sub, 1, 0, 0).
				Const(2, 1).
				// Warm-up crossing with an untainted nonzero argument.
				InvokeStatic(cls, "gate", "II", 2).
				MoveResult(3).
				InvokeStatic(cls, "gate", "II", 1).
				MoveResult(1).
				// Sink A: clean under full tracing (gate(z) took the zero
				// path); a value-blind transfer would over-taint it here.
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 1).
				MoveResult(1).
				ConstString(2, "sink.sumdodge.example").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 1).
				// Sink B: the real leak — gate(n) passes the tainted length.
				InvokeStatic(cls, "gate", "II", 0).
				MoveResult(0).
				InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 0).
				MoveResult(0).
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "gate", prog, "Java_gate")
		},
	}
}
