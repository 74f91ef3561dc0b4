package dex

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func buildValid(t *testing.T) *Class {
	t.Helper()
	cb := NewClass("Lcom/test/V;")
	cb.Method("ok", "V", AccStatic, 1).
		ConstString(0, "x").
		ReturnVoid().
		Done()
	return cb.Build()
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := buildValid(t).Validate(); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
}

func TestValidateRejectsTruncatedBody(t *testing.T) {
	c := buildValid(t)
	m, _ := c.Method("ok")
	m.Insns = m.Insns[:len(m.Insns)-1] // drop the trailing return
	err := c.Validate()
	f, ok := fault.Of(err)
	if !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("err = %v, want malformed-dex fault", err)
	}
	if f.Method != "Lcom/test/V;.ok" {
		t.Errorf("fault method = %q", f.Method)
	}
}

func TestValidateRejectsWildBranch(t *testing.T) {
	c := buildValid(t)
	m, _ := c.Method("ok")
	m.Insns = append(m.Insns, Insn{Op: Goto, Tgt: 99})
	if f, ok := fault.Of(c.Validate()); !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("wild branch not rejected: %v", c.Validate())
	}
}

func TestValidateRejectsEmptyBody(t *testing.T) {
	c := buildValid(t)
	m, _ := c.Method("ok")
	m.Insns = nil
	if f, ok := fault.Of(c.Validate()); !ok || f.Kind != fault.MalformedDex {
		t.Fatal("empty body not rejected")
	}
}

func TestValidateRejectsUnreachableCode(t *testing.T) {
	cb := NewClass("Lcom/test/U;")
	cb.Method("dead", "V", AccStatic, 1).
		Goto("out").
		Const(0, 7). // skipped by the goto, no branch lands here
		Label("out").
		ReturnVoid().
		Done()
	f, ok := fault.Of(cb.Build().Validate())
	if !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("unreachable code not rejected: %v", f)
	}
	if want := "unreachable code at pc 1"; !strings.Contains(f.Detail, want) {
		t.Errorf("detail = %q, want %q", f.Detail, want)
	}
}

func TestValidateRejectsOrphanMoveResult(t *testing.T) {
	cb := NewClass("Lcom/test/MR;")
	cb.Method("orphan", "I", AccStatic, 1).
		Const(0, 1).
		MoveResult(0). // no invoke preceding it
		Return(0).
		Done()
	if f, ok := fault.Of(cb.Build().Validate()); !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("orphan move-result not rejected: %v", f)
	}
}

func TestValidateRejectsBranchIntoMoveResult(t *testing.T) {
	cb := NewClass("Lcom/test/BR;")
	cb.Method("mid", "I", AccStatic, 1).
		Const(0, 1).
		IfZ(0, Eq, "mid").
		InvokeStatic("Lcom/test/BR;", "mid", "I").
		Label("mid"). // branch target lands on the move-result
		MoveResult(0).
		Return(0).
		Done()
	f, ok := fault.Of(cb.Build().Validate())
	if !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("branch into move-result not rejected: %v", f)
	}
	if want := "lands mid-sequence"; !strings.Contains(f.Detail, want) {
		t.Errorf("detail = %q, want %q", f.Detail, want)
	}
}

func TestValidateRejectsStrayMoveException(t *testing.T) {
	cb := NewClass("Lcom/test/ME;")
	cb.Method("stray", "V", AccStatic, 1).
		MoveException(0). // pc 0 is not a registered handler
		ReturnVoid().
		Done()
	if f, ok := fault.Of(cb.Build().Validate()); !ok || f.Kind != fault.MalformedDex {
		t.Fatalf("stray move-exception not rejected: %v", f)
	}
}

func TestValidateAcceptsHandlerAndMoveResult(t *testing.T) {
	cb := NewClass("Lcom/test/OK;")
	cb.Method("callee", "I", AccStatic, 1).
		Const(0, 3).
		Return(0).
		Done()
	cb.Method("go", "I", AccStatic, 2).
		Label("tryStart").
		InvokeStatic("Lcom/test/OK;", "callee", "I").
		MoveResult(0).
		Label("tryEnd").
		Return(0).
		Label("catch").
		MoveException(1).
		Const(0, -1).
		Return(0).
		Try("tryStart", "tryEnd", "catch", "Ljava/lang/Throwable;").
		Done()
	if err := cb.Build().Validate(); err != nil {
		t.Fatalf("well-formed try/move-result rejected: %v", err)
	}
}

func TestValidateSkipsNative(t *testing.T) {
	cb := NewClass("Lcom/test/N;")
	cb.NativeMethod("nat", "V", AccStatic, 0)
	if err := cb.Build().Validate(); err != nil {
		t.Fatalf("native method should be skipped: %v", err)
	}
}

// TestValidateRejectsRegistersOutsideFrame: every register an instruction
// names, and both halves of every pair, must lie inside the frame. The
// executor indexes the frame unchecked, so `const v9` in a one-register frame
// used to pass validation and then panic the host.
func TestValidateRejectsRegistersOutsideFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		locals int
		build  func(mb *MethodBuilder) *MethodBuilder
		detail string
	}{
		{"const-past-frame", 1, func(mb *MethodBuilder) *MethodBuilder { return mb.Const(9, 7) }, "register v9 outside a 1-register frame"},
		{"negative-register", 1, func(mb *MethodBuilder) *MethodBuilder { return mb.Move(0, -1) }, "register v-1"},
		{"pair-straddles-end", 1, func(mb *MethodBuilder) *MethodBuilder { return mb.ConstWide(0, 7) }, "register pair v0 outside a 1-register frame"},
		{"wide-source-pair", 3, func(mb *MethodBuilder) *MethodBuilder { return mb.LongToInt(0, 2) }, "register pair v2"},
		{"aput-index", 2, func(mb *MethodBuilder) *MethodBuilder { return mb.Aput(0, 1, 2) }, "register v2"},
		{"invoke-argument", 1, func(mb *MethodBuilder) *MethodBuilder {
			return mb.InvokeStatic("Lcom/test/R;", "m", "VI", 4)
		}, "register v4"},
		{"invoke-virtual-no-receiver", 1, func(mb *MethodBuilder) *MethodBuilder {
			return mb.InvokeVirtual("Lcom/test/R;", "m", "V")
		}, "no receiver"},
		{"new-array-no-kind", 2, func(mb *MethodBuilder) *MethodBuilder { return mb.NewArray(0, 1, "") }, "no element kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cb := NewClass("Lcom/test/R;")
			tc.build(cb.Method("m", "V", AccStatic, tc.locals)).ReturnVoid().Done()
			f, ok := fault.Of(cb.Build().Validate())
			if !ok || f.Kind != fault.MalformedDex {
				t.Fatalf("err = %v, want a malformed-dex fault", f)
			}
			if !strings.Contains(f.Detail, tc.detail) {
				t.Errorf("detail = %q, want %q", f.Detail, tc.detail)
			}
		})
	}

	// The last register of the frame, and a pair ending on it, are fine.
	cb := NewClass("Lcom/test/R;")
	cb.Method("edge", "V", AccStatic, 3).Const(2, 1).ConstWide(1, 2).ReturnVoid().Done()
	if err := cb.Build().Validate(); err != nil {
		t.Fatalf("in-frame registers rejected: %v", err)
	}

	// A frame too small for the method's own arguments.
	m := NewMethod(&Class{Name: "Lcom/test/R;"}, "args", "VJI", AccStatic)
	m.NumRegs = 2
	m.Insns = []Insn{{Op: ReturnVoid}}
	if f, ok := fault.Of(m.Validate()); !ok || f.Kind != fault.MalformedDex || !strings.Contains(f.Detail, "3 argument words") {
		t.Fatalf("undersized frame: %v", f)
	}
}
