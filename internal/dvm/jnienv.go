package dvm

import (
	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/taint"
)

// jniImpl is the host body of one JNI function. It reads AAPCS arguments from
// the CPU and leaves the result in R0 (R0/R1 for wide).
type jniImpl func(vm *VM, c *arm.CPU, ctx *CallCtx)

// jniTypes are the <Type> expansions of Table II / Table IV.
var jniTypes = []struct {
	name string
	kind byte
}{
	{"Void", 'V'}, {"Object", 'L'}, {"Boolean", 'Z'}, {"Byte", 'B'},
	{"Char", 'C'}, {"Short", 'S'}, {"Int", 'I'}, {"Long", 'J'},
	{"Float", 'F'}, {"Double", 'D'},
}

// installJNIEnv assigns guest addresses to every JNI function, registers the
// CPU trampolines, and writes the JNIEnv structure into guest memory.
func (vm *VM) installJNIEnv(cursor uint32) {
	type entry struct {
		name string
		impl jniImpl
	}
	var entries []entry
	add := func(name string, impl jniImpl) {
		entries = append(entries, entry{name, impl})
	}

	add("GetVersion", func(vm *VM, c *arm.CPU, ctx *CallCtx) { c.R[0] = 0x00010006 })
	add("FindClass", jniFindClass)
	add("GetMethodID", jniGetMethodID)
	add("GetStaticMethodID", jniGetMethodID)
	add("GetFieldID", jniGetFieldID)
	add("GetStaticFieldID", jniGetFieldID)

	// Call<Type>Method families (Table II).
	for _, t := range jniTypes {
		kind := t.kind
		for _, variant := range []byte{0, 'V', 'A'} {
			variant := variant
			suffix := ""
			if variant != 0 {
				suffix = string(variant)
			}
			add("Call"+t.name+"Method"+suffix, makeCallMethod(kind, variant, false, false))
			add("CallStatic"+t.name+"Method"+suffix, makeCallMethod(kind, variant, true, false))
			add("CallNonvirtual"+t.name+"Method"+suffix, makeCallMethod(kind, variant, false, true))
		}
	}

	// Object creation (Table III).
	add("NewObject", jniNewObject)
	add("NewObjectV", jniNewObject)
	add("NewObjectA", jniNewObject)
	add("NewString", jniNewString)
	add("NewStringUTF", jniNewStringUTF)
	add("NewObjectArray", jniNewObjectArray)
	for _, t := range jniTypes[2:] { // primitive arrays
		kind := t.kind
		add("New"+t.name+"Array", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
			jniNewPrimitiveArray(vm, c, ctx, kind)
		})
	}

	// Strings.
	add("GetStringUTFChars", jniGetStringUTFChars)
	add("ReleaseStringUTFChars", jniReleaseStringUTFChars)
	add("GetStringUTFLength", jniGetStringUTFLength)
	add("GetStringLength", jniGetStringUTFLength)

	// Arrays.
	add("GetArrayLength", jniGetArrayLength)
	for _, t := range jniTypes[2:] {
		kind := t.kind
		add("Get"+t.name+"ArrayRegion", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
			jniGetArrayRegion(vm, c, ctx, kind)
		})
		add("Set"+t.name+"ArrayRegion", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
			jniSetArrayRegion(vm, c, ctx, kind)
		})
		add("Get"+t.name+"ArrayElements", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
			jniGetArrayElements(vm, c, ctx, kind)
		})
	}

	// Field access (Table IV).
	for _, t := range jniTypes[1:] {
		kind := t.kind
		add("Get"+t.name+"Field", makeGetField(kind, false))
		add("Set"+t.name+"Field", makeSetField(kind, false))
		add("GetStatic"+t.name+"Field", makeGetField(kind, true))
		add("SetStatic"+t.name+"Field", makeSetField(kind, true))
	}

	// Exceptions.
	add("ThrowNew", jniThrowNew)
	add("ExceptionOccurred", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		c.R[0] = vm.AddLocalRef(vm.thread().Exception)
	})
	add("ExceptionClear", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		vm.thread().Exception = nil
	})

	// References.
	add("NewGlobalRef", func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		c.R[0] = vm.AddGlobalRef(vm.DecodeRef(c.R[1]))
	})
	add("DeleteGlobalRef", func(vm *VM, c *arm.CPU, ctx *CallCtx) { vm.DeleteRef(c.R[1]) })
	add("DeleteLocalRef", func(vm *VM, c *arm.CPU, ctx *CallCtx) { vm.DeleteRef(c.R[1]) })

	// Native-method (re-)registration. Appended last so every pre-existing
	// trampoline keeps its address across this table growing.
	add("RegisterNatives", jniRegisterNatives)

	// Lay out trampolines and write the env structure.
	tableAddr := kernel.JNIEnvBase + 16
	vm.Mem.Write32(kernel.JNIEnvBase, tableAddr)
	for i, e := range entries {
		addr := cursor
		cursor += 16
		vm.internalAddrs[e.name] = addr
		vm.internalNames[addr] = e.name
		vm.Mem.Write32(tableAddr+uint32(4*i), addr)
		name, impl := e.name, e.impl
		vm.CPU.Hook(addr, func(c *arm.CPU) arm.HookAction {
			ctx := vm.ctxAt(&vm.envCtxs)
			ctx.VM, ctx.Name, ctx.Thread = vm, name, vm.thread()
			for _, h := range vm.hooks[name] {
				if h.Before != nil {
					h.Before(ctx)
				}
			}
			impl(vm, c, ctx)
			for _, h := range vm.hooks[name] {
				if h.After != nil {
					h.After(ctx)
				}
			}
			return arm.ActionReturn
		})
	}
	vm.libdvmEnd = cursor
	if vm.Task != nil {
		vm.Kern.AddVMA(vm.Task, kernel.VMA{
			Start: kernel.LibdvmBase, End: cursor, Perms: "r-x", Name: "/system/lib/libdvm.so",
		})
	}
}

// --- class / ID lookups ----------------------------------------------------

func jniFindClass(vm *VM, c *arm.CPU, ctx *CallCtx) {
	name := vm.Mem.ReadCString(c.R[1], 0)
	if len(name) == 0 {
		c.R[0] = 0
		return
	}
	if name[0] != 'L' {
		name = "L" + name + ";"
	}
	cls, ok := vm.classes[name]
	if !ok {
		c.R[0] = 0
		return
	}
	obj := vm.classObject(cls)
	ctx.ResultObj = obj
	ctx.ResultRef = vm.AddLocalRef(obj)
	c.R[0] = ctx.ResultRef
}

func (vm *VM) newMethodID(m *dex.Method) uint32 {
	vm.methodIDs = append(vm.methodIDs, m)
	return 0x6d00_0000 | uint32(len(vm.methodIDs)-1)<<2
}

func (vm *VM) methodByID(id uint32) *dex.Method {
	idx := int(id&0x00ff_ffff) >> 2
	if id>>24 != 0x6d || idx >= len(vm.methodIDs) {
		return nil
	}
	return vm.methodIDs[idx]
}

func (vm *VM) newFieldID(f *dex.Field) uint32 {
	vm.fieldIDs = append(vm.fieldIDs, f)
	return 0x6600_0000 | uint32(len(vm.fieldIDs)-1)<<2
}

func (vm *VM) fieldByID(id uint32) *dex.Field {
	idx := int(id&0x00ff_ffff) >> 2
	if id>>24 != 0x66 || idx >= len(vm.fieldIDs) {
		return nil
	}
	return vm.fieldIDs[idx]
}

func jniGetMethodID(vm *VM, c *arm.CPU, ctx *CallCtx) {
	clsObj := vm.DecodeRef(c.R[1])
	name := vm.Mem.ReadCString(c.R[2], 0)
	if clsObj == nil || !clsObj.IsClass {
		c.R[0] = 0
		return
	}
	if m, ok := vm.lookupMethod(clsObj.ClassRef, name); ok {
		ctx.JavaMethod = m
		c.R[0] = vm.newMethodID(m)
		return
	}
	c.R[0] = 0
}

func jniGetFieldID(vm *VM, c *arm.CPU, ctx *CallCtx) {
	clsObj := vm.DecodeRef(c.R[1])
	name := vm.Mem.ReadCString(c.R[2], 0)
	if clsObj == nil || !clsObj.IsClass {
		c.R[0] = 0
		return
	}
	if f, ok := vm.lookupField(clsObj.ClassRef, name); ok {
		ctx.Field = f
		c.R[0] = vm.newFieldID(f)
		return
	}
	c.R[0] = 0
}

// jniRegisterNatives implements JNIEnv->RegisterNatives: it reads `count`
// guest JNINativeMethod records — three words each: {const char *name,
// const char *signature, void *fnPtr} — and (re)binds the named native
// methods to the given entry points. Rebinding a bound method to a different
// address is the classic hostile move against per-method instrumentation
// state: fused chains baked the old entry address in, so the rebind starts a
// new chain epoch and is surfaced to the analyzer via OnRegisterNatives.
func jniRegisterNatives(vm *VM, c *arm.CPU, ctx *CallCtx) {
	clsObj := vm.DecodeRef(c.R[1])
	tbl := c.R[2]
	n := int(int32(c.R[3]))
	if clsObj == nil || !clsObj.IsClass || n < 0 {
		c.R[0] = ^uint32(0) // JNI_ERR
		return
	}
	cls := clsObj.ClassRef
	for i := 0; i < n; i++ {
		rec := tbl + uint32(12*i)
		name := vm.Mem.ReadCString(vm.Mem.Read32(rec), 0)
		fn := vm.Mem.Read32(rec + 8)
		m, ok := cls.Method(name)
		if !ok || !m.IsNative() {
			c.R[0] = ^uint32(0)
			return
		}
		old := m.NativeAddr
		m.NativeAddr = fn
		if vm.OnNativeBind != nil {
			vm.OnNativeBind(m, old, fn, true)
		}
		if old != 0 && old != fn {
			vm.transEpoch++
			if vm.OnRegisterNatives != nil {
				vm.OnRegisterNatives(m, old, fn)
			}
		}
	}
	c.R[0] = 0
}

// --- Call<Type>Method ------------------------------------------------------

// jniArgReader yields successive argument words for the three JNI call
// variants: inline varargs (AAPCS), va_list ("V", word-packed), and jvalue
// array ("A", 8-byte slots).
type jniArgReader struct {
	vm      *VM
	c       *arm.CPU
	variant byte
	pos     int    // AAPCS index for inline varargs
	ptr     uint32 // buffer pointer for V/A
	slot    int
	half    int // second word of a wide jvalue slot
	srcs    []ArgSrc
}

func (r *jniArgReader) readWord() uint32 {
	switch r.variant {
	case 'A':
		base := r.ptr + uint32(8*r.slot) + uint32(4*r.half)
		r.srcs = append(r.srcs, ArgSrc{Reg: -1, Addr: base})
		return r.vm.Mem.Read32(base)
	case 'V':
		addr := r.ptr
		r.ptr += 4
		r.srcs = append(r.srcs, ArgSrc{Reg: -1, Addr: addr})
		return r.vm.Mem.Read32(addr)
	default:
		v := r.c.Arg(r.pos)
		src := ArgSrc{Reg: -1}
		if r.pos < 4 {
			src.Reg = r.pos
		} else {
			src.Addr = r.c.R[arm.SP] + uint32(4*(r.pos-4))
		}
		r.pos++
		r.srcs = append(r.srcs, src)
		return v
	}
}

// half tracks the second word of a wide jvalue slot.
func (r *jniArgReader) next(wide bool) (uint32, uint32) {
	if r.variant == 'A' {
		lo := r.readWord()
		var hi uint32
		if wide {
			r.half = 1
			hi = r.readWord()
			r.half = 0
		}
		r.slot++
		return lo, hi
	}
	lo := r.readWord()
	var hi uint32
	if wide {
		hi = r.readWord()
	}
	return lo, hi
}

func makeCallMethod(retKind byte, variant byte, static, nonvirtual bool) jniImpl {
	return func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		vm.jniCallMethod(c, ctx, retKind, variant, static, nonvirtual)
	}
}

// jniCallMethod implements all Call*Method* variants: it decodes the method
// ID and arguments, then funnels the invocation through dvmCallMethod[VA] and
// dvmInterpret so NDroid's JNI-exit hooks see the same chain as on Android
// (§V-B "JNI Exit", Fig. 5).
func (vm *VM) jniCallMethod(c *arm.CPU, ctx *CallCtx, retKind byte, variant byte, static, nonvirtual bool) {
	recvRef := c.R[1]
	argPos := 2
	if nonvirtual {
		argPos = 3 // skip the explicit clazz argument
	}
	mid := c.Arg(argPos)
	argPos++
	m := vm.methodByID(mid)
	if m == nil {
		c.R[0] = 0
		return
	}
	if vm.OnReflectCall != nil {
		vm.OnReflectCall(m)
	}

	reader := &jniArgReader{vm: vm, c: c, variant: variant, pos: argPos}
	if variant == 'V' || variant == 'A' {
		reader.ptr = c.Arg(argPos)
	}

	// Collect raw argument words; object args stay as indirect refs here.
	var rawArgs []uint32
	var rawRefs []uint32
	if !m.IsStatic() {
		rawArgs = append(rawArgs, recvRef)
		rawRefs = append(rawRefs, recvRef)
		reader.srcs = append(reader.srcs, ArgSrc{Reg: 1})
	}
	for i := 1; i < len(m.Shorty); i++ {
		switch m.Shorty[i] {
		case 'J', 'D':
			lo, hi := reader.next(true)
			rawArgs = append(rawArgs, lo, hi)
			rawRefs = append(rawRefs, 0, 0)
		case 'L':
			v, _ := reader.next(false)
			rawArgs = append(rawArgs, v)
			rawRefs = append(rawRefs, v)
		default:
			v, _ := reader.next(false)
			rawArgs = append(rawArgs, v)
			rawRefs = append(rawRefs, 0)
		}
	}

	dvmName := "dvmCallMethodV"
	if variant == 'A' {
		dvmName = "dvmCallMethodA"
	}

	// Pooled pair: decoded argument words plus the mutable taint slots the
	// JNI-exit hooks fill in. Both are dead once the outer call returns (all
	// their consumers are dvmCallMethod*/dvmInterpret hooks, which run inside
	// it), so they go back to the freelist below.
	decoded, javaTaints := vm.getScratch(len(rawArgs))

	ctx.JavaMethod = m
	ctx.JavaArgRefs = rawRefs
	ctx.JavaArgSrc = reader.srcs
	ctx.JavaTaints = javaTaints

	th := vm.thread()
	var ret uint64
	var thrown *Object

	vm.internalCall(dvmName, vm.callsiteOf(ctx.Name), ctx, func() {
		// Decode indirect references to direct pointers, as dvmCallMethod*
		// does through dvmDecodeIndirectRef.
		copy(decoded, rawArgs)
		for i, ref := range rawRefs {
			if ref == 0 {
				continue
			}
			dctx := &CallCtx{Thread: th, Value: uint64(ref)}
			vm.internalCall("dvmDecodeIndirectRef", vm.callsiteOf(dvmName), dctx, func() {
				if o := vm.DecodeRef(ref); o != nil {
					decoded[i] = o.Addr
				} else {
					decoded[i] = 0
				}
			})
		}
		ctx.JavaArgs = decoded

		if m.Builtin != nil || m.IsNative() {
			// Builtins and nested natives have no interpreter frame.
			r, rt, threw, err := vm.Invoke(th, m, decoded, ctx.JavaTaints)
			if err != nil {
				panic(err)
			}
			ret, thrown = r, threw
			th.RetVal, th.RetTaint = r, rt
			return
		}

		frame, ferr := th.pushFrame(m, decoded, ctx.JavaTaints)
		if ferr != nil {
			panic(ferr)
		}
		ctx.FrameAddr = frame.FP
		vm.internalCall("dvmInterpret", vm.callsiteOf(dvmName), ctx, func() {
			r, rt, threw, err := vm.run(th, frame)
			if err != nil {
				panic(err)
			}
			ret, thrown = r, threw
			th.RetVal = r
			if !vm.TaintJava {
				rt = 0
			}
			th.RetTaint = rt
		})
		th.popFrame()
	})

	vm.putScratch(decoded, javaTaints)
	ctx.JavaArgs, ctx.JavaTaints = nil, nil

	if thrown != nil {
		th.Exception = thrown
		c.R[0] = 0
		return
	}
	ctx.Ret = ret
	switch retKind {
	case 'V':
		c.R[0] = 0
	case 'L':
		if o, ok := vm.objects[uint32(ret)]; ok {
			ctx.ResultObj = o
			ctx.ResultRef = vm.AddLocalRef(o)
			c.R[0] = ctx.ResultRef
		} else {
			c.R[0] = 0
		}
	case 'J', 'D':
		c.R[0] = uint32(ret)
		c.R[1] = uint32(ret >> 32)
	default:
		c.R[0] = uint32(ret)
	}
}

// --- object creation -------------------------------------------------------

func jniNewStringUTF(vm *VM, c *arm.CPU, ctx *CallCtx) {
	ctx.CStrAddr = c.R[1]
	s := vm.Mem.ReadCString(c.R[1], 0)
	vm.internalCall("dvmCreateStringFromCstr", vm.callsiteOf("NewStringUTF"), ctx, func() {
		ctx.ResultObj = vm.NewString(s)
	})
	ctx.ResultRef = vm.AddLocalRef(ctx.ResultObj)
	c.R[0] = ctx.ResultRef
}

func jniNewString(vm *VM, c *arm.CPU, ctx *CallCtx) {
	ctx.UTF16Addr = c.R[1]
	ctx.UTF16Len = c.R[2]
	chars := make([]rune, ctx.UTF16Len)
	for i := range chars {
		chars[i] = rune(vm.Mem.Read16(ctx.UTF16Addr + uint32(2*i)))
	}
	vm.internalCall("dvmCreateStringFromUnicode", vm.callsiteOf("NewString"), ctx, func() {
		ctx.ResultObj = vm.NewString(string(chars))
	})
	ctx.ResultRef = vm.AddLocalRef(ctx.ResultObj)
	c.R[0] = ctx.ResultRef
}

func jniNewObject(vm *VM, c *arm.CPU, ctx *CallCtx) {
	clsObj := vm.DecodeRef(c.R[1])
	if clsObj == nil || !clsObj.IsClass {
		c.R[0] = 0
		return
	}
	vm.internalCall("dvmAllocObject", vm.callsiteOf("NewObject"), ctx, func() {
		ctx.ResultObj = vm.NewInstance(clsObj.ClassRef)
	})
	// Run the constructor if one was named.
	if m := vm.methodByID(c.Arg(2)); m != nil {
		args := []uint32{ctx.ResultObj.Addr}
		reader := &jniArgReader{vm: vm, c: c, variant: 0, pos: 3}
		for i := 1; i < len(m.Shorty); i++ {
			wide := m.Shorty[i] == 'J' || m.Shorty[i] == 'D'
			lo, hi := reader.next(wide)
			if v := lo; m.Shorty[i] == 'L' {
				if o := vm.DecodeRef(v); o != nil {
					lo = o.Addr
				}
			}
			args = append(args, lo)
			if wide {
				args = append(args, hi)
			}
		}
		cctx := &CallCtx{Thread: ctx.Thread, JavaMethod: m, JavaArgs: args,
			JavaTaints: make([]taint.Tag, len(args))}
		vm.internalCall("dvmCallMethod", vm.callsiteOf("NewObject"), cctx, func() {
			_, _, _, err := vm.Invoke(vm.thread(), m, args, cctx.JavaTaints)
			if err != nil {
				panic(err)
			}
		})
	}
	ctx.ResultRef = vm.AddLocalRef(ctx.ResultObj)
	c.R[0] = ctx.ResultRef
}

func jniNewPrimitiveArray(vm *VM, c *arm.CPU, ctx *CallCtx, kind byte) {
	n := int(int32(c.R[1]))
	vm.internalCall("dvmAllocPrimitiveArray", vm.callsiteOf(ctx.Name), ctx, func() {
		ctx.ResultObj = vm.NewArray(kind, n)
	})
	ctx.ResultRef = vm.AddLocalRef(ctx.ResultObj)
	c.R[0] = ctx.ResultRef
}

func jniNewObjectArray(vm *VM, c *arm.CPU, ctx *CallCtx) {
	n := int(int32(c.R[1]))
	vm.internalCall("dvmAllocArrayByClass", vm.callsiteOf("NewObjectArray"), ctx, func() {
		ctx.ResultObj = vm.NewArray('L', n)
	})
	ctx.ResultRef = vm.AddLocalRef(ctx.ResultObj)
	c.R[0] = ctx.ResultRef
}

// --- strings ----------------------------------------------------------------

func jniGetStringUTFChars(vm *VM, c *arm.CPU, ctx *CallCtx) {
	o := vm.DecodeRef(c.R[1])
	if o == nil {
		// NULL jstring: lenient, as on-device (returns NULL).
		c.R[0] = 0
		return
	}
	if !o.IsString {
		// A live non-string reference passed as jstring is undefined behavior
		// on a device (often a SIGSEGV inside libdvm); here it is a contained
		// guest fault. JNI table functions have no error return, so it panics
		// a typed fault to the containment boundary.
		panic(vm.faultf(fault.JNIMisuse, nil, "GetStringUTFChars on non-string reference %#x", c.R[1]))
	}
	ctx.FieldObj = o
	buf := vm.Libc.Malloc(uint32(len(o.Str)) + 1)
	vm.Mem.WriteCString(buf, o.Str)
	if isCopy := c.R[2]; isCopy != 0 {
		vm.Mem.Write8(isCopy, 1)
	}
	ctx.Ret = uint64(buf)
	ctx.Value = uint64(c.R[1]) // the jstring ref, for shadow lookups
	c.R[0] = buf
	// JNI functions are called from ARM code (an extern BL assembles to a
	// veneer ending in BLX IP), so the call is the word before the return
	// address.
	vm.utfOpen = append(vm.utfOpen, utfHandle{buf: buf, site: c.R[arm.LR]&^1 - 4})
}

func jniReleaseStringUTFChars(vm *VM, c *arm.CPU, ctx *CallCtx) {
	vm.releaseUTF(c.R[2])
	vm.Libc.Free(c.R[2])
	c.R[0] = 0
}

func jniGetStringUTFLength(vm *VM, c *arm.CPU, ctx *CallCtx) {
	o := vm.DecodeRef(c.R[1])
	if o == nil || !o.IsString {
		c.R[0] = 0
		return
	}
	c.R[0] = uint32(len(o.Str))
}

// --- arrays ------------------------------------------------------------------

func jniGetArrayLength(vm *VM, c *arm.CPU, ctx *CallCtx) {
	o := vm.DecodeRef(c.R[1])
	if o == nil || !o.IsArray {
		c.R[0] = 0
		return
	}
	c.R[0] = uint32(o.Len)
}

func jniGetArrayRegion(vm *VM, c *arm.CPU, ctx *CallCtx, kind byte) {
	o := vm.DecodeRef(c.R[1])
	if o == nil || !o.IsArray {
		c.R[0] = 0
		return
	}
	start, n, buf := int(c.R[2]), int(c.R[3]), c.Arg(4)
	if start < 0 || n < 0 || start+n > o.Len {
		c.R[0] = 0
		return
	}
	w := int(o.ElemWidth)
	vm.Mem.WriteBytes(buf, o.Data[start*w:(start+n)*w])
	ctx.FieldObj = o
	ctx.Ret = uint64(buf)
	ctx.UTF16Len = uint32(n * w) // byte count for taint models
	c.R[0] = 0
}

func jniSetArrayRegion(vm *VM, c *arm.CPU, ctx *CallCtx, kind byte) {
	o := vm.DecodeRef(c.R[1])
	if o == nil || !o.IsArray {
		c.R[0] = 0
		return
	}
	start, n, buf := int(c.R[2]), int(c.R[3]), c.Arg(4)
	if start < 0 || n < 0 || start+n > o.Len {
		c.R[0] = 0
		return
	}
	w := int(o.ElemWidth)
	copy(o.Data[start*w:(start+n)*w], vm.Mem.ReadBytes(buf, uint32(n*w)))
	ctx.FieldObj = o
	ctx.Ret = uint64(buf)
	ctx.UTF16Len = uint32(n * w)
	c.R[0] = 0
}

func jniGetArrayElements(vm *VM, c *arm.CPU, ctx *CallCtx, kind byte) {
	o := vm.DecodeRef(c.R[1])
	if o == nil || !o.IsArray {
		c.R[0] = 0
		return
	}
	buf := vm.Libc.Malloc(uint32(len(o.Data)))
	vm.Mem.WriteBytes(buf, o.Data)
	if isCopy := c.R[2]; isCopy != 0 {
		vm.Mem.Write8(isCopy, 1)
	}
	ctx.FieldObj = o
	ctx.Ret = uint64(buf)
	ctx.UTF16Len = uint32(len(o.Data))
	c.R[0] = buf
}

// --- field access (Table IV) -------------------------------------------------

func makeGetField(kind byte, static bool) jniImpl {
	return func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		fld := vm.fieldByID(c.R[2])
		if fld == nil {
			c.R[0] = 0
			return
		}
		ctx.Field = fld
		var data []uint32
		var taints []taint.Tag
		if static {
			cls := fld.Class
			data = cls.StaticData
			taints = make([]taint.Tag, len(cls.StaticTaints))
			for i, t := range cls.StaticTaints {
				taints[i] = taint.Tag(t)
			}
		} else {
			o := vm.DecodeRef(c.R[1])
			if o == nil {
				c.R[0] = 0
				return
			}
			ctx.FieldObj = o
			data = o.Fields
			taints = o.FieldTaints
		}
		i := vm.FieldSlot(fld)
		if i >= len(data) {
			c.R[0] = 0
			return
		}
		v := data[i]
		ctx.ValueTag = taints[i]
		switch kind {
		case 'L':
			if o, ok := vm.objects[v]; ok {
				ctx.ResultObj = o
				ctx.ResultRef = vm.AddLocalRef(o)
				c.R[0] = ctx.ResultRef
			} else {
				c.R[0] = 0
			}
			ctx.Value = uint64(v)
		case 'J', 'D':
			hi := uint32(0)
			if i+1 < len(data) {
				hi = data[i+1]
				ctx.ValueTag |= taints[i+1]
			}
			c.R[0], c.R[1] = v, hi
			ctx.Value = uint64(v) | uint64(hi)<<32
		default:
			c.R[0] = v
			ctx.Value = uint64(v)
		}
	}
}

func makeSetField(kind byte, static bool) jniImpl {
	return func(vm *VM, c *arm.CPU, ctx *CallCtx) {
		fld := vm.fieldByID(c.R[2])
		if fld == nil {
			return
		}
		ctx.Field = fld
		var data []uint32
		var o *Object
		if static {
			data = fld.Class.StaticData
		} else {
			o = vm.DecodeRef(c.R[1])
			if o == nil {
				return
			}
			ctx.FieldObj = o
			data = o.Fields
		}
		i := vm.FieldSlot(fld)
		if i >= len(data) {
			return
		}
		v := c.R[3]
		switch kind {
		case 'L':
			if target := vm.DecodeRef(v); target != nil {
				data[i] = target.Addr
				ctx.Value = uint64(target.Addr)
			} else {
				data[i] = 0
			}
		case 'J', 'D':
			hi := c.Arg(4)
			data[i] = v
			if i+1 < len(data) {
				data[i+1] = hi
			}
			ctx.Value = uint64(v) | uint64(hi)<<32
		default:
			data[i] = v
			ctx.Value = uint64(v)
		}
		// Plain TaintDroid does not see native writes: field taints stay
		// unchanged unless an NDroid hook updates them via ctx.
	}
}

// --- exceptions --------------------------------------------------------------

func jniThrowNew(vm *VM, c *arm.CPU, ctx *CallCtx) {
	clsObj := vm.DecodeRef(c.R[1])
	ctx.CStrAddr = c.R[2]
	msg := vm.Mem.ReadCString(c.R[2], 0)
	th := vm.thread()

	vm.internalCall("initException", vm.callsiteOf("ThrowNew"), ctx, func() {
		var msgObj *Object
		sctx := &CallCtx{Thread: th, CStrAddr: c.R[2]}
		vm.internalCall("dvmCreateStringFromCstr", vm.callsiteOf("initException"), sctx, func() {
			msgObj = vm.NewString(msg)
			sctx.ResultObj = msgObj
		})
		ctx.ResultObj = msgObj

		cls := vm.classes["Ljava/lang/Exception;"]
		if clsObj != nil && clsObj.IsClass {
			cls = clsObj.ClassRef
		}
		var exc *Object
		actx := &CallCtx{Thread: th}
		vm.internalCall("dvmAllocObject", vm.callsiteOf("initException"), actx, func() {
			exc = vm.NewInstance(cls)
			actx.ResultObj = exc
		})
		ctx.FieldObj = exc

		// Invoke the constructor through dvmCallMethod so the multilevel
		// chain of §V-B "Exception" is observable.
		if ctor, ok := cls.Method("<init>"); ok {
			args := []uint32{exc.Addr, msgObj.Addr}
			cctx := &CallCtx{Thread: th, JavaMethod: ctor, JavaArgs: args,
				JavaTaints: make([]taint.Tag, 2)}
			vm.internalCall("dvmCallMethod", vm.callsiteOf("initException"), cctx, func() {
				_, _, _, err := vm.Invoke(th, ctor, args, cctx.JavaTaints)
				if err != nil {
					panic(err)
				}
			})
		} else if len(exc.Fields) > 0 {
			exc.Fields[0] = msgObj.Addr
		}
		th.Exception = exc
	})
	c.R[0] = 0
}
