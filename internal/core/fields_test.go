package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/taint"
)

// TestInheritedFieldSlots: Sub extends Base, and each declares one int
// field. Both number their field 0, so a Sub instance must lay Sub.y out
// after the inherited Base.x or the two alias. The executor's iget/iput, the
// JNI Set/GetIntField functions and NDroid's SetField taint hook must all
// address the same slot: a store to one field, and its taint, never reach
// the other.
func TestInheritedFieldSlots(t *testing.T) {
	const (
		base = "Lcom/inherit/Base;"
		sub  = "Lcom/inherit/Sub;"
		main = "Lcom/inherit/Main;"
	)
	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sys.VM.LoadNativeLib("libinherit.so", `
; void setY(JNIEnv*, jclass, Sub obj, int v): SetIntField(obj, Sub.y, v)
Java_setY:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R2
	MOV R6, R3
	LDR R1, =sub_name
	BL FindClass
	MOV R1, R0
	MOV R0, R4
	LDR R2, =f_y
	LDR R3, =sig_int
	BL GetFieldID
	MOV R2, R0
	MOV R0, R4
	MOV R1, R5
	MOV R3, R6
	BL SetIntField
	POP {R4, R5, R6, PC}

; int getX(JNIEnv*, jclass, Sub obj): GetIntField(obj, Base.x)
Java_getX:
	PUSH {R4, R5, R6, LR}
	MOV R4, R0
	MOV R5, R2
	LDR R1, =base_name
	BL FindClass
	MOV R1, R0
	MOV R0, R4
	LDR R2, =f_x
	LDR R3, =sig_int
	BL GetFieldID
	MOV R2, R0
	MOV R0, R4
	MOV R1, R5
	BL GetIntField
	POP {R4, R5, R6, PC}

sub_name:
	.asciz "com/inherit/Sub"
base_name:
	.asciz "com/inherit/Base"
f_y:
	.asciz "y"
f_x:
	.asciz "x"
sig_int:
	.asciz "I"
	.align 4
`)
	if err != nil {
		t.Fatal(err)
	}
	vm := sys.VM
	vm.RegisterClass(dex.NewClass(base).InstanceField("x", false).Build())
	vm.RegisterClass(dex.NewClass(sub).Super(base).InstanceField("y", false).Build())
	cb := dex.NewClass(main)
	cb.NativeMethod("setY", "VLI", dex.AccStatic, 0)
	cb.NativeMethod("getX", "IL", dex.AccStatic, 0)
	// probe(o): iput 5 -> Sub.y; iput 9 -> Base.x; return iget Sub.y.
	cb.Method("probe", "IL", dex.AccStatic, 2).
		Const(0, 5).
		Iput(0, 2, sub, "y").
		Const(0, 9).
		Iput(0, 2, base, "x").
		Iget(1, 2, sub, "y").
		Return(1).
		Done()
	cb.Method("getY", "IL", dex.AccStatic, 1).
		Iget(0, 1, sub, "y").
		Return(0).
		Done()
	vm.RegisterClass(cb.Build())
	for _, m := range []string{"setY", "getX"} {
		if err := vm.BindNative(main, m, prog, "Java_"+m); err != nil {
			t.Fatal(err)
		}
	}
	core.NewAnalyzer(sys, core.ModeNDroid)

	subCls, _ := vm.Class(sub)
	o := vm.NewInstance(subCls)
	if len(o.Fields) != 2 {
		t.Fatalf("a Sub instance has %d slots, want 2 (inherited x, own y)", len(o.Fields))
	}
	call := func(name string, args []uint32, taints []taint.Tag) (uint64, taint.Tag) {
		t.Helper()
		ret, rt, thrown, err := vm.InvokeByName(main, name, args, taints)
		if err != nil || thrown != nil {
			t.Fatalf("%s: %v, thrown %v", name, err, thrown)
		}
		return ret, rt
	}

	if y, _ := call("probe", []uint32{o.Addr}, nil); y != 5 {
		t.Fatalf("iget Sub.y after iput Base.x = %d, want 5", y)
	}
	call("setY", []uint32{o.Addr, 7}, []taint.Tag{0, taint.IMEI})
	if x, xt := call("getX", []uint32{o.Addr}, nil); x != 9 || xt.Has(taint.IMEI) {
		t.Errorf("GetIntField(Base.x) = %d (taint %v), want 9, untainted", x, xt)
	}
	y, yt := call("getY", []uint32{o.Addr}, nil)
	if y != 7 || !yt.Has(taint.IMEI) {
		t.Errorf("iget Sub.y after SetIntField = %d (taint %v), want 7 carrying the IMEI", y, yt)
	}
	if o.FieldTaints[0].Has(taint.IMEI) {
		t.Errorf("SetIntField's taint reached Base.x's slot: %v", o.FieldTaints)
	}
}
