package dvm

import (
	"testing"

	"repro/internal/dex"
	"repro/internal/taint"
)

// jniCoverageLib exercises the remaining JNI families: typed calls with the
// V and A variants, field get/set including wide, array regions, and refs.
const jniCoverageLib = `
; int callIntA(JNIEnv*, jclass): CallStaticIntMethodA with a jvalue array
Java_callIntA:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	LDR R2, =m_twice
	LDR R3, =sig_twice
	BL GetStaticMethodID
	MOV R6, R0
	; jvalue array: one 8-byte slot holding 21
	LDR R12, =jvals
	MOV R2, #21
	STR R2, [R12]
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOV R3, R12
	BL CallStaticIntMethodA
	POP {R4, R5, R6, PC}

; int callIntV(JNIEnv*, jclass): CallStaticIntMethodV with a word buffer
Java_callIntV:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =cls_name
	BL FindClass
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	LDR R2, =m_twice
	LDR R3, =sig_twice
	BL GetStaticMethodID
	MOV R6, R0
	LDR R12, =jvals
	MOV R2, #5
	STR R2, [R12]
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOV R3, R12
	BL CallStaticIntMethodV
	POP {R4, R5, R6, PC}

; int fieldRoundTrip(JNIEnv*, jclass self): SetStaticIntField then Get
Java_fieldRoundTrip:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R1
	MOV R1, R5
	LDR R2, =f_slot
	LDR R3, =sig_int
	BL GetStaticFieldID
	MOV R6, R0
	; SetStaticIntField(env, cls, fid, 777)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	MOVW R3, #777
	BL SetStaticIntField
	; GetStaticIntField(env, cls, fid)
	MOV R0, R4
	MOV R1, R5
	MOV R2, R6
	BL GetStaticIntField
	POP {R4, R5, R6, PC}

; int arrayRegion(JNIEnv*, jclass, jintArray): read region, sum two elems
Java_arrayRegion:
	PUSH {R4, R5, LR}
	MOV R4, R0
	MOV R5, R2          ; array ref
	; GetIntArrayRegion(env, arr, 0, 2, buf)
	MOV R1, R5
	MOV R2, #0
	MOV R3, #2
	LDR R12, =jvals
	SUB SP, SP, #4
	STR R12, [SP]
	BL GetIntArrayRegion
	ADD SP, SP, #4
	LDR R0, =jvals
	LDR R1, [R0]
	LDR R2, [R0, #4]
	ADD R0, R1, R2
	; SetIntArrayRegion(env, arr, 0, 1, buf) writes the sum back
	LDR R12, =jvals
	STR R0, [R12]
	PUSH {R0}
	MOV R0, R4
	MOV R1, R5
	MOV R2, #0
	MOV R3, #1
	SUB SP, SP, #4
	STR R12, [SP]
	BL SetIntArrayRegion
	ADD SP, SP, #4
	POP {R0}
	POP {R4, R5, PC}

; int refs(JNIEnv*, jclass): NewStringUTF -> NewGlobalRef -> DeleteLocalRef,
; return global ref
Java_refs:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	LDR R1, =str_lit
	BL NewStringUTF
	MOV R5, R0
	MOV R0, R4
	MOV R1, R5
	BL NewGlobalRef
	MOV R6, R0
	MOV R0, R4
	MOV R1, R5
	BL DeleteLocalRef
	MOV R0, R6
	POP {R4, R5, R6, PC}

cls_name:
	.asciz "com/test/Cov"
m_twice:
	.asciz "twice"
sig_twice:
	.asciz "(I)I"
f_slot:
	.asciz "slot"
sig_int:
	.asciz "I"
str_lit:
	.asciz "kept-alive"
	.align 4
jvals:
	.space 32
`

func setupCoverageApp(t *testing.T, vm *VM) {
	t.Helper()
	prog, err := vm.LoadNativeLib("libcov.so", jniCoverageLib)
	if err != nil {
		t.Fatal(err)
	}
	cb := dex.NewClass("Lcom/test/Cov;")
	cb.StaticField("slot", false)
	cb.Method("twice", "II", dex.AccStatic, 1).
		Bin(dex.Add, 0, 1, 1).
		Return(0).
		Done()
	for _, m := range []struct{ name, shorty string }{
		{"callIntA", "I"}, {"callIntV", "I"}, {"fieldRoundTrip", "I"},
		{"arrayRegion", "IL"}, {"refs", "L"},
	} {
		cb.NativeMethod(m.name, m.shorty, dex.AccStatic, 0)
	}
	vm.RegisterClass(cb.Build())
	for _, m := range []string{"callIntA", "callIntV", "fieldRoundTrip", "arrayRegion", "refs"} {
		if err := vm.BindNative("Lcom/test/Cov;", m, prog, "Java_"+m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJNICallMethodAVariant(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "callIntA", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("CallStaticIntMethodA(twice, 21) = %d, want 42", ret)
	}
}

func TestJNICallMethodVVariant(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "callIntV", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 10 {
		t.Errorf("CallStaticIntMethodV(twice, 5) = %d, want 10", ret)
	}
}

func TestJNIStaticFieldRoundTrip(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "fieldRoundTrip", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 777 {
		t.Errorf("field round trip = %d, want 777", ret)
	}
	cls, _ := vm.Class("Lcom/test/Cov;")
	if cls.StaticData[0] != 777 {
		t.Errorf("static slot = %d", cls.StaticData[0])
	}
}

func TestJNIArrayRegions(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	arr := vm.NewArray('I', 4)
	arr.setElem(0, 30)
	arr.setElem(1, 12)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "arrayRegion", []uint32{arr.Addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Errorf("arrayRegion sum = %d, want 42", ret)
	}
	if arr.elem(0) != 42 {
		t.Errorf("SetIntArrayRegion wrote %d, want 42", arr.elem(0))
	}
}

func TestJNIGlobalRefSurvivesLocalFrame(t *testing.T) {
	vm := newVM(t)
	setupCoverageApp(t, vm)
	ret, _, _, err := vm.InvokeByName("Lcom/test/Cov;", "refs", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := vm.ObjectAt(uint32(ret))
	if !ok || o.Str != "kept-alive" {
		t.Fatalf("global-ref'd string lost: %#x -> %+v", ret, o)
	}
	// The local frame was popped after the JNI call; the object survives a
	// GC because the global ref roots it.
	vm.RunGC()
	if got, ok := vm.ObjectAt(o.Addr); !ok || got.Str != "kept-alive" {
		t.Error("object collected despite global ref")
	}
}

// TestSmaliEndToEnd: a class built the way the smali dialect reads (static
// invoke, move-result, const-string) runs on the VM and leaks through the
// framework sink.
func TestSmaliEndToEnd(t *testing.T) {
	vm := newVM(t)
	var leaks []JavaLeak
	vm.JavaLeakFn = func(l JavaLeak) { leaks = append(leaks, l) }

	cb := dex.NewClass("Lcom/smali/Spy;")
	cb.Method("run", "V", dex.AccPublic|dex.AccStatic, 2).
		InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
		MoveResult(0).
		ConstString(1, "smali.example.net").
		InvokeStatic("Landroid/net/Network;", "send", "VLL", 1, 0).
		ReturnVoid().
		Done()
	cls := cb.Build()
	vm.RegisterClass(cls)
	_, _, thrown, err := vm.InvokeByName("Lcom/smali/Spy;", "run", nil, nil)
	if err != nil || thrown != nil {
		t.Fatalf("run: err=%v thrown=%v", err, thrown)
	}
	if len(leaks) != 1 || !leaks[0].Tag.Has(taint.IMEI) {
		t.Fatalf("leaks = %v", leaks)
	}
	if leaks[0].Dest != "smali.example.net" {
		t.Errorf("dest = %q", leaks[0].Dest)
	}
}

// TestSmaliExceptionFlow: try/catch with a divide-by-zero.
func TestSmaliExceptionFlow(t *testing.T) {
	vm := newVM(t)
	cb := dex.NewClass("Lcom/smali/Catcher;")
	cb.Method("safeDiv", "III", dex.AccPublic|dex.AccStatic, 2).
		Label("try_start").
		Bin(dex.Div, 0, 2, 3).
		Label("try_end").
		Return(0).
		Label("handler").
		MoveException(1).
		Const(0, -1).
		Return(0).
		Try("try_start", "try_end", "handler", "Ljava/lang/ArithmeticException;").
		Done()
	cls := cb.Build()
	vm.RegisterClass(cls)
	ret, _ := invoke(t, vm, "Lcom/smali/Catcher;", "safeDiv", 10, 2)
	if int32(ret) != 5 {
		t.Errorf("safeDiv(10,2) = %d", int32(ret))
	}
	ret, _ = invoke(t, vm, "Lcom/smali/Catcher;", "safeDiv", 10, 0)
	if int32(ret) != -1 {
		t.Errorf("safeDiv(10,0) = %d, want -1", int32(ret))
	}
}

// TestLongArithmetic covers the BinOpWide/IntToLong/CmpLong paths.
func TestLongArithmetic(t *testing.T) {
	vm := newVM(t)
	cb := dex.NewClass("Lcom/smali/Longs;")
	cb.Method("big", "II", dex.AccPublic|dex.AccStatic, 6).
		IntToLong(0, 6).
		ConstWide(2, 1000000).
		BinWide(dex.Mul, 0, 0, 2).
		ConstWide(2, 1000000000000).
		CmpLongOp(4, 0, 2).
		Return(4).
		Done()
	cls := cb.Build()
	vm.RegisterClass(cls)
	ret, _ := invoke(t, vm, "Lcom/smali/Longs;", "big", 2000000)
	if int32(ret) != 1 { // 2e12 > 1e12
		t.Errorf("cmp-long = %d, want 1", int32(ret))
	}
	ret, _ = invoke(t, vm, "Lcom/smali/Longs;", "big", 1000000)
	if int32(ret) != 0 { // 1e12 == 1e12
		t.Errorf("cmp-long = %d, want 0", int32(ret))
	}
}
