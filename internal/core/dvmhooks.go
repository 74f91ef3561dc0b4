package core

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/dvm"
	"repro/internal/taint"
)

// installDVMHooks wires the DVM Hook Engine (§V-B): instrumentation on the
// five groups of JNI-related functions — JNI entry, JNI exit, object
// creation, field access, and exception.
func (a *Analyzer) installDVMHooks() {
	vm := a.Sys.VM

	// ---- (1) JNI entry: dvmCallJNIMethod --------------------------------
	vm.HookInternal("dvmCallJNIMethod", dvm.InternalHook{
		Before: func(ctx *dvm.CallCtx) { a.onJNIEntry(ctx) },
		After:  func(ctx *dvm.CallCtx) { a.onJNIReturn(ctx) },
	})

	// ---- (2) JNI exit: dvmCallMethod* + dvmInterpret ---------------------
	for _, name := range []string{"dvmCallMethod", "dvmCallMethodV", "dvmCallMethodA"} {
		vm.HookInternal(name, dvm.InternalHook{
			Before: func(ctx *dvm.CallCtx) {
				if a.ML != nil && !a.ML.T2() {
					return
				}
				a.onCallMethod(ctx)
			},
			After: func(ctx *dvm.CallCtx) {
				if a.ML != nil && !a.ML.T2() {
					return
				}
				a.onCallMethodReturn(ctx)
			},
		})
	}
	vm.HookInternal("dvmInterpret", dvm.InternalHook{
		Before: func(ctx *dvm.CallCtx) {
			if a.ML != nil && !a.ML.T3() {
				return
			}
			a.onInterpret(ctx)
		},
	})

	// ---- (3) object creation: NOF/MAF pairs ------------------------------
	vm.HookInternal("NewStringUTF", dvm.InternalHook{
		Before: func(ctx *dvm.CallCtx) { a.Log.Addf("NewStringUTF Begin") },
		After:  func(ctx *dvm.CallCtx) { a.onNewString(ctx, true) },
	})
	vm.HookInternal("NewString", dvm.InternalHook{
		After: func(ctx *dvm.CallCtx) { a.onNewString(ctx, false) },
	})
	vm.HookInternal("dvmCreateStringFromCstr", dvm.InternalHook{
		Before: func(ctx *dvm.CallCtx) {
			a.Log.Addf("dvmCreateStringFromCstr Begin: %q", a.Sys.Mem.ReadCString(ctx.CStrAddr, 80))
		},
		After: func(ctx *dvm.CallCtx) {
			if ctx.ResultObj != nil {
				a.Log.Addf("dvmCreateStringFromCstr return 0x%x", ctx.ResultObj.Addr)
			}
		},
	})

	// ---- (4) field access ------------------------------------------------
	for _, t := range []string{"Object", "Boolean", "Byte", "Char", "Short", "Int", "Long", "Float", "Double"} {
		wide := t == "Long" || t == "Double"
		isObj := t == "Object"
		for _, prefix := range []string{"Get", "GetStatic"} {
			vm.HookInternal(prefix+t+"Field", dvm.InternalHook{
				After: func(ctx *dvm.CallCtx) { a.onGetField(ctx, isObj) },
			})
		}
		wideCopy := wide
		for _, prefix := range []string{"Set", "SetStatic"} {
			vm.HookInternal(prefix+t+"Field", dvm.InternalHook{
				After: func(ctx *dvm.CallCtx) { a.onSetField(ctx, wideCopy, isObj) },
			})
		}
	}

	// ---- (5) exception ----------------------------------------------------
	vm.HookInternal("initException", dvm.InternalHook{
		After: func(ctx *dvm.CallCtx) { a.onInitException(ctx) },
	})

	// ---- string and array access from native -----------------------------
	vm.HookInternal("GetStringUTFChars", dvm.InternalHook{
		Before: func(ctx *dvm.CallCtx) { a.Log.Addf("TrustCallHandler[GetStringUTFChars] begin") },
		After:  func(ctx *dvm.CallCtx) { a.onGetStringChars(ctx) },
	})
	for _, t := range []string{"Boolean", "Byte", "Char", "Short", "Int", "Long", "Float", "Double"} {
		vm.HookInternal("Get"+t+"ArrayRegion", dvm.InternalHook{
			After: func(ctx *dvm.CallCtx) { a.onArrayToNative(ctx) },
		})
		vm.HookInternal("Get"+t+"ArrayElements", dvm.InternalHook{
			After: func(ctx *dvm.CallCtx) { a.onArrayToNative(ctx) },
		})
		vm.HookInternal("Set"+t+"ArrayRegion", dvm.InternalHook{
			After: func(ctx *dvm.CallCtx) { a.onArrayFromNative(ctx) },
		})
	}
}

// jniEntry is onJNIEntry's binding of one native method for one attempt:
// the address it was bound at, the preformatted flow-log line, and the
// SourcePolicy every crossing refills. The policy can be shared because
// Put and Take are synchronous within a crossing: the entry hook takes it at
// the method's first instruction, before any nested crossing can refill it.
type jniEntry struct {
	addr   uint32
	line   string
	policy *SourcePolicy
}

// onJNIEntry builds and installs the SourcePolicy for a Java-to-native call
// (§V-B "JNI Entry", Fig. 6 step 1, Fig. 8 step 0). The first crossing of a
// method in an attempt binds it: the entry line is formatted, the policy
// allocated and the entry hook installed, once. Installing a hook
// invalidates the translated blocks of its page, so doing it per crossing
// would retranslate the method every call. A binding whose address differs
// from the method's current one (a RegisterNatives rebind) is rebuilt; the
// Analyzer is per attempt, so no binding outlives a snapshot restore.
func (a *Analyzer) onJNIEntry(ctx *dvm.CallCtx) {
	a.InstrumentationCalls++
	m := ctx.Method
	e := a.jniEntries[m]
	if e == nil || e.addr != m.NativeAddr {
		e = &jniEntry{
			addr: m.NativeAddr,
			line: fmt.Sprintf("dvmCallJNIMethod: name=%s shorty=%s class=%s insnAddr=0x%x",
				m.Name, m.Shorty, m.Class.Name, m.NativeAddr),
			policy: &SourcePolicy{
				MethodAddress: m.NativeAddr,
				MethodShorty:  m.Shorty,
				AccessFlags:   m.Flags,
			},
		}
		base := defaultHandler(a.Engine)
		e.policy.Handler = func(sp *SourcePolicy, c *arm.CPU) {
			base(sp, c)
			a.Log.Addf("SourceHandler @0x%x", sp.MethodAddress)
		}
		a.installMethodEntryHook(m.NativeAddr)
		if a.jniEntries == nil {
			a.jniEntries = make(map[*dex.Method]*jniEntry)
		}
		a.jniEntries[m] = e
	}
	a.Log.Add(e.line)

	p := e.policy
	taints := ctx.ArgTaints
	get := func(i int) taint.Tag {
		if i < len(taints) {
			return taints[i]
		}
		return 0
	}
	p.TR0, p.TR1, p.TR2, p.TR3 = get(0), get(1), get(2), get(3)
	p.StackArgsNum = 0
	p.StackArgsTaints = p.StackArgsTaints[:0]
	if len(taints) > 4 {
		p.StackArgsNum = len(taints) - 4
		p.StackArgsTaints = append(p.StackArgsTaints, taints[4:]...)
	}

	// Taint-map entries for object arguments at their direct addresses and
	// shadow entries keyed by the indirect refs native code receives. A
	// clean crossing skips the walk: with the latch off, every argument
	// taint and object tag is provably zero, so no entry would be written
	// and no line logged.
	if !a.crossingClean() {
		for i, o := range ctx.ArgObjs {
			t := get(i)
			if o == nil {
				continue
			}
			t |= o.Taint
			if t == 0 {
				continue
			}
			a.Engine.Mem.Set32(o.Addr, t)
			a.Engine.AddRefTaint(ctx.CPUArgs[i], t)
			a.Log.Addf("args[%d]@0x%x taint: %v", i, o.Addr, t)
		}
	}

	a.Policies.Put(p)
}

// installMethodEntryHook arranges for the SourcePolicy to be applied at the
// native method's first instruction.
func (a *Analyzer) installMethodEntryHook(addr uint32) {
	a.Sys.CPU.Hook(addr, func(c *arm.CPU) arm.HookAction {
		if p, ok := a.Policies.Take(c.R[arm.PC]); ok {
			p.Apply(c)
		}
		return arm.ActionContinue
	})
}

// onJNIReturn overrides the JNI return taint with the shadow state — the
// precise tracking that replaces TaintDroid's any-parameter policy.
func (a *Analyzer) onJNIReturn(ctx *dvm.CallCtx) {
	t := ctx.RetTaint // R0/R1 shadow captured by the bridge
	// The object walk is skipped only when the captured shadow is already
	// clear AND no counted taint exists anywhere (ObjectTaint would be 0).
	if ctx.Method.Shorty[0] == 'L' && (t != 0 || !a.crossingClean()) {
		ref := uint32(ctx.Ret)
		if o := a.Sys.VM.DecodeRef(ref); o != nil {
			t |= a.Engine.ObjectTaint(o, ref)
		}
	}
	ctx.RetTaint = t
	ctx.RetOverride = true
	if t != 0 {
		a.Log.Addf("JNIReturn %s taint=%v", ctx.Method.Name, t)
	}
}

// onCallMethod recovers the taints of a native-to-Java call's parameters from
// the shadow registers/memory (§V-B "JNI Exit", first challenge).
func (a *Analyzer) onCallMethod(ctx *dvm.CallCtx) {
	a.InstrumentationCalls++
	cpu := a.Sys.CPU
	if a.crossingClean() {
		// Shadow registers, taint map, and ref shadow are all provably
		// empty: every recovered taint would be zero, and JavaTaints
		// already is.
		if ctx.JavaMethod != nil {
			a.Log.Addf("%s Begin: method=%s shorty=%s", ctx.Name, ctx.JavaMethod.Name, ctx.JavaMethod.Shorty)
		}
		return
	}
	for i := range ctx.JavaTaints {
		var t taint.Tag
		if i < len(ctx.JavaArgSrc) {
			src := ctx.JavaArgSrc[i]
			if src.Reg >= 0 {
				t |= cpu.RegTaint[src.Reg]
			}
			if src.Addr != 0 {
				t |= a.Engine.Mem.Get32(src.Addr)
			}
		}
		if i < len(ctx.JavaArgRefs) && ctx.JavaArgRefs[i] != 0 {
			ref := ctx.JavaArgRefs[i]
			t |= a.Engine.ObjectTaint(a.Sys.VM.DecodeRef(ref), ref)
		}
		ctx.JavaTaints[i] = t
	}
	if ctx.JavaMethod != nil {
		a.Log.Addf("%s Begin: method=%s shorty=%s", ctx.Name, ctx.JavaMethod.Name, ctx.JavaMethod.Shorty)
	}
}

// onCallMethodReturn carries the Java callee's primitive return taint back
// to the native caller: R0's shadow, or R0/R1's for a wide return, becomes
// the callee's return taint, as R0/R1 become its return value. An object
// return reaches native code as a local reference, whose taint the shadow
// reference map already carries, so it is left alone. No flow-log line.
func (a *Analyzer) onCallMethodReturn(ctx *dvm.CallCtx) {
	m := ctx.JavaMethod
	if m == nil {
		return
	}
	t, cpu := ctx.Thread.RetTaint, a.Sys.CPU
	switch m.Shorty[0] {
	case 'V', 'L':
	case 'J', 'D':
		cpu.SetRegTaint(0, t)
		cpu.SetRegTaint(1, t)
	default:
		cpu.SetRegTaint(0, t)
	}
}

// onInterpret writes the recovered taints into the new Dalvik frame's
// argument slots (§V-B second challenge; Fig. 9 "t[44bf8c14] = 0x1602").
func (a *Analyzer) onInterpret(ctx *dvm.CallCtx) {
	if ctx.FrameAddr == 0 || ctx.JavaMethod == nil {
		return
	}
	a.InstrumentationCalls++
	m := ctx.JavaMethod
	first := m.NumRegs - m.InsSize()
	for i, t := range ctx.JavaTaints {
		if t == 0 {
			continue
		}
		// This raw write bypasses the interpreter's setRegTaint, so it must
		// flip the Java-side latch itself.
		a.Sys.VM.NoteTaint(t)
		slot := ctx.FrameAddr + uint32(8*(first+i)) + 4
		a.Sys.Mem.Write32(slot, uint32(t))
		a.Log.Addf("dvmInterpret: add taint to new method frame t[%x] = %v", slot, t)
	}
	a.Log.Addf("dvmInterpret Begin: name=%s shorty=%s curFrame@0x%x accessFlags=0x%x",
		m.Name, m.Shorty, ctx.FrameAddr, m.Flags)
}

// onNewString taints a native-created string object from the source buffer
// (Fig. 6 step 2.1: "add taint 514 to new string object@0x412a3320").
func (a *Analyzer) onNewString(ctx *dvm.CallCtx, utf bool) {
	o := ctx.ResultObj
	if o == nil {
		return
	}
	a.InstrumentationCalls++
	var t taint.Tag
	if !a.crossingClean() {
		if utf {
			n := uint32(len(o.Str)) + 1
			t = a.Engine.Mem.GetRange(ctx.CStrAddr, n)
		} else {
			t = a.Engine.Mem.GetRange(ctx.UTF16Addr, ctx.UTF16Len*2)
		}
	}
	if t == 0 {
		a.Log.Addf("%s End (untainted)", ctx.Name)
		return
	}
	o.Taint |= t
	a.Sys.VM.NoteTaint(t)
	a.Engine.Mem.Set32(o.Addr, t)
	a.Engine.AddRefTaint(ctx.ResultRef, t)
	a.Sys.CPU.SetRegTaint(0, t)
	a.Log.Addf("realStringAddr:0x%x", o.Addr)
	a.Log.Addf("add taint %v to new string object@0x%x", t, o.Addr)
	a.Log.Addf("t(%x) := %v", o.Addr, t)
	a.Log.Addf("%s return 0x%x", ctx.Name, ctx.ResultRef)
	a.Log.Addf("%s End", ctx.Name)
}

// onGetStringChars propagates a jstring's taint to the C buffer returned by
// GetStringUTFChars (Fig. 7 step 2; Fig. 8 steps 1-3).
func (a *Analyzer) onGetStringChars(ctx *dvm.CallCtx) {
	o := ctx.FieldObj
	if o == nil {
		return
	}
	a.InstrumentationCalls++
	ref := uint32(ctx.Value)
	var t taint.Tag
	if !a.crossingClean() {
		t = a.Engine.ObjectTaint(o, ref)
	}
	a.Log.Addf("jstring taint:%v", t)
	if t != 0 {
		buf := uint32(ctx.Ret)
		a.Engine.Mem.SetRange(buf, uint32(len(o.Str))+1, t)
		a.Sys.CPU.SetRegTaint(0, t)
		a.Log.Addf("t(%x) := %v", buf, t)
	}
	a.Log.Addf("TrustCallHandler[GetStringUTFChars] end")
}

// onArrayToNative propagates an array object's taint to the native buffer.
func (a *Analyzer) onArrayToNative(ctx *dvm.CallCtx) {
	o := ctx.FieldObj
	if o == nil {
		return
	}
	if a.crossingClean() {
		return // o.Taint is provably zero while the latch is off
	}
	t := o.Taint
	if t == 0 {
		return
	}
	a.Engine.Mem.SetRange(uint32(ctx.Ret), ctx.UTF16Len, t)
	a.Sys.CPU.SetRegTaint(0, a.Sys.CPU.RegTaint[0]|t)
	a.Log.Addf("%s: t(%x..+%d) := %v", ctx.Name, uint32(ctx.Ret), ctx.UTF16Len, t)
}

// onArrayFromNative taints an array object from the native source buffer.
func (a *Analyzer) onArrayFromNative(ctx *dvm.CallCtx) {
	o := ctx.FieldObj
	if o == nil {
		return
	}
	if a.crossingClean() {
		return // the taint map is empty, GetRange would be zero
	}
	t := a.Engine.Mem.GetRange(uint32(ctx.Ret), ctx.UTF16Len)
	if t == 0 {
		return
	}
	o.Taint |= t
	a.Sys.VM.NoteTaint(t)
	a.Log.Addf("%s: array@0x%x taint |= %v", ctx.Name, o.Addr, t)
}

// onGetField surfaces a field's TaintDroid tag into the native shadow state
// (Table IV, "get a field's taint after executing Get*Field").
func (a *Analyzer) onGetField(ctx *dvm.CallCtx, isObj bool) {
	a.InstrumentationCalls++
	if a.crossingClean() {
		return // field tags and object taints are provably zero
	}
	t := ctx.ValueTag
	if isObj {
		if o := a.Sys.VM.DecodeRef(ctx.ResultRef); o != nil {
			t |= o.Taint
		}
	}
	if t == 0 {
		return
	}
	a.Sys.CPU.SetRegTaint(0, t)
	if ctx.ResultRef != 0 {
		a.Engine.AddRefTaint(ctx.ResultRef, t)
	}
	a.Log.Addf("%s: field %s taint=%v", ctx.Name, fieldName(ctx), t)
}

// onSetField writes the native value's shadow taint into the field's
// TaintDroid slot ("add taints to the corresponding field before executing
// Set*Field functions").
func (a *Analyzer) onSetField(ctx *dvm.CallCtx, wide, isObj bool) {
	if ctx.Field == nil {
		return
	}
	a.InstrumentationCalls++
	if a.crossingClean() {
		return // shadow registers and taint map are provably clear
	}
	cpu := a.Sys.CPU
	t := cpu.RegTaint[3]
	if wide {
		t |= a.Engine.Mem.Get32(cpu.R[arm.SP]) // hi word is the first stack arg
	}
	if isObj {
		ref := cpu.R[3]
		t |= a.Engine.ObjectTaint(a.Sys.VM.DecodeRef(ref), ref)
	}
	if t == 0 {
		return
	}
	a.Sys.VM.NoteTaint(t)
	// Taint the slot Set<Type>Field wrote; it refuses one past the table.
	i := a.Sys.VM.FieldSlot(ctx.Field)
	if o := ctx.FieldObj; o != nil {
		if i < len(o.FieldTaints) {
			o.FieldTaints[i] |= t
		}
		if wide && i+1 < len(o.FieldTaints) {
			o.FieldTaints[i+1] |= t
		}
	} else if st := ctx.Field.Class.StaticTaints; i < len(st) {
		st[i] |= uint32(t)
		if wide && i+1 < len(st) {
			st[i+1] |= uint32(t)
		}
	}
	a.Log.Addf("%s: field %s taint=%v", ctx.Name, fieldName(ctx), t)
}

// onInitException adds the taint of ThrowNew's message to the string object
// inside the new exception object (§V-B "Exception").
func (a *Analyzer) onInitException(ctx *dvm.CallCtx) {
	a.InstrumentationCalls++
	msg := ctx.ResultObj
	exc := ctx.FieldObj
	if msg == nil || exc == nil {
		return
	}
	if a.crossingClean() {
		return // taint map and shadow registers are provably clear
	}
	n := uint32(len(msg.Str)) + 1
	t := a.Engine.Mem.GetRange(ctx.CStrAddr, n) | a.Sys.CPU.RegTaint[2]
	if t == 0 {
		return
	}
	msg.Taint |= t
	a.Sys.VM.NoteTaint(t)
	exc.Taint |= t
	if len(exc.FieldTaints) > 0 {
		exc.FieldTaints[0] |= t
	}
	a.Log.Addf("initException: exception message taint=%v", t)
}

func fieldName(ctx *dvm.CallCtx) string {
	if ctx.Field == nil {
		return "?"
	}
	return ctx.Field.Class.Name + "." + ctx.Field.Name
}
