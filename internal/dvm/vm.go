// Package dvm implements the Dalvik virtual machine substrate with
// TaintDroid's modifications: interpreter stack frames holding taint tags
// interleaved with register values in guest memory (paper Fig. 1), taint
// storage on string/array objects and field slots (§II-B), the naive JNI
// taint policy (return tainted iff any parameter tainted), an indirect
// reference table kept current by a moving garbage collector (§II-A), the JNI
// call bridge (dvmCallJNIMethod), and the JNIEnv function table exposed to
// emulated native code.
//
// Every libdvm-internal function NDroid hooks in the paper (dvmCallJNIMethod,
// dvmCallMethod*, dvmInterpret, dvmCreateStringFromCstr, dvmAllocObject, ...)
// has a guest address inside an emulated libdvm.so region and fires
// before/after hooks plus branch events when "called", so the DVM Hook Engine
// and the multilevel hooking state machine (Fig. 5) observe the same call
// chains they would on the real system.
package dvm

import (
	"fmt"
	"sort"

	"repro/internal/arm"
	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/libc"
	"repro/internal/mem"
	"repro/internal/taint"
)

// Object is a heap object: a class instance, string, array, or class handle.
type Object struct {
	Addr  uint32 // current direct pointer; changes when the GC moves it
	Class *dex.Class

	Fields      []uint32
	FieldTaints []taint.Tag

	IsString bool
	Str      string

	IsArray   bool
	ElemKind  byte // shorty char
	ElemWidth uint32
	Len       int
	Data      []byte // little-endian elements

	IsClass  bool
	ClassRef *dex.Class

	// Taint is the object-level tag TaintDroid keeps for strings and arrays.
	Taint taint.Tag
}

// Ref kinds for indirect references (Android's IndirectRefKind).
const (
	refKindLocal  = 1
	refKindGlobal = 2
)

// objHeaderMagic marks object headers in guest memory.
const objHeaderMagic = 0x0b7ec70b

// JavaLeak reports tainted data reaching a Java-context sink.
type JavaLeak struct {
	Sink string
	Dest string
	Data string
	Tag  taint.Tag
}

// Builtin is a framework method implemented by the host. args includes the
// receiver for instance methods.
type Builtin func(vm *VM, th *Thread, args []uint32, taints []taint.Tag) (ret uint64, retTaint taint.Tag, thrown *Object)

// CallCtx is the context handed to internal-function hooks. Fields are
// populated according to which function is being hooked.
type CallCtx struct {
	VM     *VM
	Name   string
	Thread *Thread

	// JNI call bridge (dvmCallJNIMethod):
	Method    *dex.Method
	CPUArgs   []uint32    // AAPCS argument words (env, this/class, args...)
	ArgTaints []taint.Tag // taints aligned with CPUArgs
	ArgObjs   []*Object   // object per CPUArg position (nil for prims)

	// Native-to-Java calls (dvmCallMethod*/dvmInterpret):
	JavaMethod  *dex.Method
	JavaArgs    []uint32    // decoded argument words
	JavaArgRefs []uint32    // pre-decode indirect refs (0 for prims)
	JavaArgSrc  []ArgSrc    // native-context source of each argument word
	JavaTaints  []taint.Tag // mutable: hooks may taint arguments
	FrameAddr   uint32      // guest FP of the new frame (dvmInterpret)

	// Object/string creation:
	CStrAddr  uint32 // source C string for NewStringUTF
	UTF16Addr uint32 // source buffer for NewString
	UTF16Len  uint32
	ResultObj *Object
	ResultRef uint32

	// Field access:
	FieldObj *Object
	Field    *dex.Field
	Value    uint64
	ValueTag taint.Tag

	// Return-taint override (set by After hooks; JNI entry path).
	RetTaint    taint.Tag
	RetOverride bool

	// Raw return value for JNI exit paths.
	Ret uint64
}

// ArgSrc records where an argument word lived in the native context, so
// NDroid's shadow registers and shadow memory can be consulted (§V-B "JNI
// Exit": "NDroid creates shadow registers and memory to save the taints in
// the native context and refers to them when the taints are propagated to
// the Java context").
type ArgSrc struct {
	Reg  int    // AAPCS register index, or -1 when the word came from memory
	Addr uint32 // guest address for stack/va_list/jvalue words
}

// InternalHook observes one internal function.
type InternalHook struct {
	Before func(*CallCtx)
	After  func(*CallCtx)
}

// internalFn is one hookable libdvm-internal or JNIEnv function: its name,
// its guest entry address and the hooks registered on it.
type internalFn struct {
	name  string
	addr  uint32
	hooks []InternalHook
}

// VM is the Dalvik virtual machine instance. The embedded vmState is what
// Snapshot copies and Restore puts back in one assignment; every other field
// is either rewound by real work in Restore (the registry, the heap, the
// reference tables, hook lists and threads) or kept across a restore, as
// its comment says.
type VM struct {
	Mem  *mem.Memory
	CPU  *arm.CPU
	Kern *kernel.Kernel
	Task *kernel.Task
	Libc *libc.Libc

	vmState

	classes map[string]*dex.Class

	objects map[uint32]*Object

	irt    map[uint32]*Object
	locals [][]uint32 // per-JNI-call local ref frames

	methodIDs []*dex.Method
	fieldIDs  []*dex.Field

	// fns lists the internal functions in layout order, fn i at
	// kernel.LibdvmBase+16*i, and internals finds them by name; with
	// libdvmEnd they are the libdvm layout, fixed at New. Only the hook
	// lists change. jniBridge is dvmCallJNIMethod and jniFrom its call site
	// in dvmInterpret, resolved once for the JNI bridge.
	fns       []*internalFn
	internals map[string]*internalFn
	libdvmEnd uint32
	jniBridge *internalFn
	jniFrom   uint32

	// decodeEpoch is the validity token of method decodes (exec.go): class
	// registration and snapshot restore, the two things that can change a
	// decode-time resolution, bump it.
	decodeEpoch uint64

	// JavaDeopts is always 0: the one executor has nothing to fall back
	// to. The field stays for readers of the older per-layer metrics.
	JavaDeopts uint64

	// utfOpen lists the GetStringUTFChars buffers not yet released, oldest
	// first; utfBase is where the innermost native crossing's own entries
	// start (openUTF/closeUTF). The backing array is kept across crossings
	// and restores, so tracking allocates nothing in steady state.
	utfOpen []utfHandle
	utfBase int

	// classObjs memoizes classObject's answer per class. An entry is checked
	// against the object table on each use (the collector may free a class
	// object; it keeps a moved one's pointer) and the memo is cleared on
	// snapshot restore, which replaces the heap.
	classObjs map[*dex.Class]*Object
	// jniScratchPool recycles the argument/taint/object slices of the JNI
	// bridge; savedCPUStack recycles register-snapshot buffers by pad depth.
	jniScratchPool []*jniScratch
	savedCPUStack  []*savedCPU
	// bridgeCtxs and envCtxs recycle the CallCtx of the JNI bridge and of
	// the JNIEnv trampolines by pad depth (ctxAt).
	bridgeCtxs []*CallCtx
	envCtxs    []*CallCtx

	// internedStrings interns one string object per const-string site, so
	// loops stop allocating; entries are GC roots (frames hold them across
	// collections).
	internedStrings map[*dex.Insn]*Object

	// framePool recycles Frame structs; scratchPool recycles the arg/taint
	// word slices of the interpreted invoke path, keyed by register count.
	framePool   []*Frame
	scratchPool [maxPooledArgs + 1][]invokeScratch

	MainThread *Thread
	threads    []*Thread

	nativeLibs []LoadedLib

	// asmMemo caches assembled native-lib images by (source, base), at most
	// asmMemoCap of them, oldest first out (asmOrder, asmNext); it is
	// content-addressed warm state, deliberately outside VMSnapshot. externs
	// is the libc plus JNI symbol table native libraries link against, fixed
	// once the framework is up. AsmAssembles counts real assembler runs.
	asmMemo  map[asmKey]*arm.Program
	asmOrder []asmKey
	asmNext  int
	externs  map[string]uint32

	AsmAssembles uint64
}

// vmState is the VM's rewindable scalar state: the heap cursor and GC
// settings, the reference counters, the taint and gate switches, the
// analyzer's callbacks, the budgets and counters, and the current thread,
// pad depth and library cursor. Snapshot and Restore copy it whole.
type vmState struct {
	heapCursor uint32
	allocCount int
	// GCThreshold triggers a collection every N allocations (0 disables).
	GCThreshold int
	GCCount     int
	// OnGCMove is invoked for every object relocation (old, new address);
	// NDroid's taint engine subscribes to keep its maps coherent.
	OnGCMove func(old, new uint32, o *Object)

	nextLocal uint32
	nextGlob  uint32

	// TaintJava enables TaintDroid's in-DVM propagation. Off = stock Android.
	TaintJava bool
	// GateJava enables the demand-driven fast path: while no taint has ever
	// been introduced on the Java side (taintSeen latch off), the executor
	// skips tag merging and the JNI bridge skips taint marshalling. Sound
	// because all Java-side taint state is provably zero until the first
	// NoteTaint — frames are pushed with zeroed slots, and every skipped
	// write would have written zero.
	GateJava bool
	// Live, when attached, receives the SrcJava contribution of the latch.
	Live *taint.Liveness
	// taintSeen latches up on the first nonzero tag entering the Java world
	// and is released only by a snapshot restore (conservative but sound).
	taintSeen bool
	// InterpretHookAll fires the dvmInterpret hooks on *every* interpreted
	// invocation, not just native-originated ones — the costly baseline that
	// multilevel hooking exists to avoid (§V-B: "the overhead will be high
	// if we hook these two functions whenever they are called").
	InterpretHookAll bool
	// javaStepFn observes every executed Dalvik instruction (profiling and
	// the DroidScope semantic-reconstruction cost model); install it with
	// SetJavaStepFn.
	javaStepFn func(th *Thread, m *dex.Method, pc int, insn *dex.Insn)
	// JavaLeakFn receives Java-context sink reports (TaintDroid sinks).
	JavaLeakFn func(JavaLeak)

	// NativeBudget bounds the instruction count of each JNI native call
	// (0 = the 64M default). JavaBudget is an absolute ceiling on
	// JavaInsnCount for the whole run (0 = unlimited). Both are deterministic
	// step counts, never wall-clock: the analyzer's watchdog sets them so
	// runaway guest loops surface as BudgetExceeded faults (Timeout verdict)
	// at reproducible points.
	NativeBudget uint64
	JavaBudget   uint64

	// JavaInsnCount counts executed Dalvik instructions.
	JavaInsnCount uint64
	// JavaTransMethods counts method decodes (first invocations plus
	// re-decodes after a class registration or restore).
	JavaTransMethods uint64

	// JNICrossings counts Java→native JNI calls.
	JNICrossings uint64
	// JavaFusedCalls and JavaFuseDeopts are always 0: the JNI bridge has one
	// path. They stay for readers of the older per-layer metrics.
	JavaFusedCalls uint64
	JavaFuseDeopts uint64
	// OnRegisterNatives observes mid-run native-method re-registration
	// (JNIEnv->RegisterNatives rebinding a bound method to a new entry point).
	OnRegisterNatives func(m *dex.Method, old, new uint32)
	// OnJNICall observes every Java->native crossing at the top of the JNI
	// bridge. OnNativeBind observes every native-method binding:
	// dynamic=true for guest RegisterNatives (all of them, not just rebinds),
	// false for loader-time BindNative. OnReflectCall observes native->Java
	// reflection-style dispatch (CallStatic*Method resolving a jmethodID).
	// All three feed the JNI surface observer and must stay off the flow log.
	OnJNICall     func(m *dex.Method)
	OnNativeBind  func(m *dex.Method, old, new uint32, dynamic bool)
	OnReflectCall func(m *dex.Method)
	// OnUnreleased observes a native method returning with a buffer that
	// GetStringUTFChars handed it still unreleased: site is the call
	// instruction of that Get, once per such buffer. It must stay off the
	// flow log too.
	OnUnreleased func(m *dex.Method, site uint32)

	curThread   *Thread
	padDepth    int
	nextLibBase uint32
}

// internalFuncs lists every hookable libdvm-internal function, in a fixed
// order so addresses are deterministic.
var internalFuncs = []string{
	"dvmCallJNIMethod",
	"dvmCallMethod",
	"dvmCallMethodV",
	"dvmCallMethodA",
	"dvmInterpret",
	"dvmCreateStringFromCstr",
	"dvmCreateStringFromUnicode",
	"dvmAllocObject",
	"dvmAllocArrayByClass",
	"dvmAllocPrimitiveArray",
	"dvmDecodeIndirectRef",
	"initException",
}

// New creates a VM wired to the given CPU, kernel task, and libc.
func New(m *mem.Memory, c *arm.CPU, k *kernel.Kernel, t *kernel.Task, lc *libc.Libc) *VM {
	vm := &VM{
		Mem:       m,
		CPU:       c,
		Kern:      k,
		Task:      t,
		Libc:      lc,
		vmState:   vmState{heapCursor: kernel.DvmHeapBase, nextLocal: 1, nextGlob: 1},
		classes:   make(map[string]*dex.Class),
		objects:   make(map[uint32]*Object),
		irt:       make(map[uint32]*Object),
		internals: make(map[string]*internalFn),

		internedStrings: make(map[*dex.Insn]*Object),
	}

	// Assign libdvm addresses: 16 bytes per internal function.
	for _, name := range internalFuncs {
		vm.addInternal(name)
	}
	vm.installJNIEnv()
	vm.jniBridge = vm.internals["dvmCallJNIMethod"]
	vm.jniFrom = vm.callsiteOf("dvmInterpret")

	vm.MainThread = vm.NewThread("main")
	registerFramework(vm)
	return vm
}

// AttachLiveness wires the VM's Java-side taint latch into the process-wide
// liveness aggregate.
func (vm *VM) AttachLiveness(l *taint.Liveness) {
	vm.Live = l
	if vm.taintSeen {
		l.Adjust(taint.SrcJava, 1)
	}
}

// NoteTaint records that a nonzero tag became observable in the Java world
// (builtin source return, JNI return taint, argument taint, hook write).
// Every code path that can make Java-side taint state nonzero funnels
// through a NoteTaint call, which is what makes the GateJava fast path
// sound: while the latch is off, all frame slots, object tags, and field
// tags are zero.
func (vm *VM) NoteTaint(t taint.Tag) {
	if t == 0 || vm.taintSeen {
		return
	}
	vm.taintSeen = true
	if vm.Live != nil {
		vm.Live.Adjust(taint.SrcJava, 1)
	}
}

// TaintSeen reports whether the Java-side latch has fired.
func (vm *VM) TaintSeen() bool { return vm.taintSeen }

// NewThread allocates a Dalvik thread with a guest stack region.
func (vm *VM) NewThread(name string) *Thread {
	const stackSize = 1 << 20
	idx := uint32(0)
	if vm.MainThread != nil {
		idx = 1 // only two threads are ever used in the evaluation
	}
	base := kernel.DvmStackBase + idx*stackSize
	th := &Thread{
		VM:        vm,
		Name:      name,
		StackBase: base,
		StackTop:  base + stackSize,
		cur:       base + stackSize,
	}
	vm.threads = append(vm.threads, th)
	return th
}

// RegisterClass adds a class to the VM. Decodes bake class and method
// resolutions in, so registration invalidates them.
func (vm *VM) RegisterClass(c *dex.Class) {
	vm.classes[c.Name] = c
	vm.decodeEpoch++
}

// Class looks up a registered class.
func (vm *VM) Class(name string) (*dex.Class, bool) {
	c, ok := vm.classes[name]
	return c, ok
}

// Classes returns all registered class names, sorted.
func (vm *VM) Classes() []string { return vm.ClassesExcept(nil) }

// ClassesExcept returns the registered class names not in skip, sorted.
func (vm *VM) ClassesExcept(skip map[string]bool) []string {
	out := make([]string, 0, max(len(vm.classes)-len(skip), 0))
	for n := range vm.classes {
		if !skip[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// addInternal lays out the next internal function, 16 bytes after the last.
func (vm *VM) addInternal(name string) *internalFn {
	f := &internalFn{name: name, addr: kernel.LibdvmBase + uint32(16*len(vm.fns))}
	vm.fns = append(vm.fns, f)
	vm.internals[name] = f
	return f
}

// HookInternal registers a hook on a libdvm-internal or JNI function. Hooks
// are looked up per call, so they take effect from the next call on. A name
// that is no such function has no calls, so its hook is not kept.
func (vm *VM) HookInternal(name string, h InternalHook) {
	if f := vm.internals[name]; f != nil {
		f.hooks = append(f.hooks, h)
	}
}

// SetJavaStepFn installs (or, with nil, clears) the per-instruction observer.
// Frames read it at entry and after every invoke, so a frame running when
// it is installed observes from its next instruction on.
func (vm *VM) SetJavaStepFn(fn func(th *Thread, m *dex.Method, pc int, insn *dex.Insn)) {
	vm.javaStepFn = fn
}

// PadDepth reports how many native calls are in progress (test hook).
func (vm *VM) PadDepth() int { return vm.padDepth }

// --- frame and invoke-scratch pooling ------------------------------------

// maxPooledArgs bounds the per-count freelists for invoke argument slices;
// calls with more words fall back to plain allocation.
const maxPooledArgs = 16

// invokeScratch is one pooled pair of invoke argument arrays.
type invokeScratch struct {
	args   []uint32
	taints []taint.Tag
}

func (vm *VM) getFrame() *Frame {
	if n := len(vm.framePool); n > 0 {
		f := vm.framePool[n-1]
		vm.framePool = vm.framePool[:n-1]
		return f
	}
	return &Frame{}
}

func (vm *VM) putFrame(f *Frame) {
	f.Method = nil
	f.win = nil
	f.mem = nil
	vm.framePool = append(vm.framePool, f)
}

// getScratch hands out zeroed arg/taint slices of length n. Release with
// putScratch once the invoke has returned; pushFrame copies the words into
// guest memory, so nothing retains the slices past the call.
func (vm *VM) getScratch(n int) ([]uint32, []taint.Tag) {
	if n <= maxPooledArgs {
		if l := len(vm.scratchPool[n]); l > 0 {
			s := vm.scratchPool[n][l-1]
			vm.scratchPool[n] = vm.scratchPool[n][:l-1]
			for i := range s.taints {
				s.taints[i] = 0
			}
			return s.args, s.taints
		}
	}
	return make([]uint32, n), make([]taint.Tag, n)
}

func (vm *VM) putScratch(args []uint32, taints []taint.Tag) {
	n := len(args)
	if n > maxPooledArgs || len(taints) != n {
		return
	}
	vm.scratchPool[n] = append(vm.scratchPool[n], invokeScratch{args: args, taints: taints})
}

// internString returns the per-site interned string object for a const-string
// instruction, allocating it on first execution. Interned objects are GC
// roots (see RunGC) — the moving collector updates their addresses in place.
func (vm *VM) internString(insn *dex.Insn) *Object {
	if o, ok := vm.internedStrings[insn]; ok {
		return o
	}
	o := vm.NewString(insn.Str)
	vm.internedStrings[insn] = o
	return o
}

// InternalAddr returns the guest address of an internal/JNI function.
func (vm *VM) InternalAddr(name string) uint32 {
	if f := vm.internals[name]; f != nil {
		return f.addr
	}
	return 0
}

// InternalName resolves a libdvm entry address back to its function name.
func (vm *VM) InternalName(addr uint32) (string, bool) {
	off := addr - kernel.LibdvmBase
	if addr < kernel.LibdvmBase || off%16 != 0 || off/16 >= uint32(len(vm.fns)) {
		return "", false
	}
	return vm.fns[off/16].name, true
}

// callsiteOf returns the synthetic call-site address inside an internal
// function (the "A"/"B"/"C" addresses of Fig. 5).
func (vm *VM) callsiteOf(name string) uint32 { return vm.InternalAddr(name) + 8 }

// internalCall emits the branch events and hook invocations for a call into
// the named internal function. from is the caller's call-site address; body
// performs the actual work.
func (vm *VM) internalCall(name string, from uint32, ctx *CallCtx, body func()) {
	vm.callInternal(vm.internals[name], from, ctx, body)
}

// callInternal is internalCall on a resolved function. The hook list is read
// once: a hook registered while body runs fires from the next call on,
// Before and After alike.
func (vm *VM) callInternal(f *internalFn, from uint32, ctx *CallCtx, body func()) {
	hooks := f.hooks
	ctx.VM = vm
	ctx.Name = f.name
	vm.CPU.EmitBranch(from, f.addr)
	for _, h := range hooks {
		if h.Before != nil {
			h.Before(ctx)
		}
	}
	body()
	for _, h := range hooks {
		if h.After != nil {
			h.After(ctx)
		}
	}
	vm.CPU.EmitBranch(f.addr+4, from+4)
}

// --- heap ---------------------------------------------------------------

func (vm *VM) allocAddr(payload uint32) uint32 {
	// Allocation has no error return (it is called from deep inside the
	// executor, builtins, and JNI marshalling), so faults here — organic
	// heap exhaustion or an injected one — travel as panics carrying a typed
	// fault; the InvokeByName containment boundary converts them back.
	if f := fault.Hit(SiteHeapAlloc, 0); f != nil {
		panic(f)
	}
	vm.allocCount++
	if vm.GCThreshold > 0 && vm.allocCount >= vm.GCThreshold {
		vm.allocCount = 0
		vm.RunGC()
	}
	size := objFootprint(payload)
	addr := vm.heapCursor
	if addr+size >= kernel.DvmHeapLimit {
		vm.RunGC()
		addr = vm.heapCursor
		if addr+size >= kernel.DvmHeapLimit {
			// An allocation-hungry guest exhausting the fixed heap window is a
			// resource-budget condition, same verdict class as a loop budget.
			panic(vm.faultf(fault.BudgetExceeded, nil, "heap exhausted (%d-byte allocation)", size))
		}
	}
	vm.heapCursor += size
	return addr
}

func objFootprint(payload uint32) uint32 { return (16 + payload + 7) &^ 7 }

func (o *Object) payloadSize() uint32 {
	switch {
	case o.IsString:
		return uint32(len(o.Str))
	case o.IsArray:
		return uint32(len(o.Data))
	case o.IsClass:
		return 0
	default:
		return uint32(len(o.Fields)) * 8
	}
}

func (vm *VM) registerObject(o *Object) *Object {
	vm.objects[o.Addr] = o
	// A small header in guest memory makes the object visible to raw-memory
	// consumers (VMI, logs): word0 = magic, word1 = payload length.
	vm.Mem.Write32(o.Addr, objHeaderMagic)
	vm.Mem.Write32(o.Addr+4, uint32(o.Len))
	return o
}

// NewString allocates a StringObject.
func (vm *VM) NewString(s string) *Object {
	addr := vm.allocAddr(uint32(len(s)))
	o := &Object{Addr: addr, IsString: true, Str: s, Len: len(s)}
	if c, ok := vm.classes["Ljava/lang/String;"]; ok {
		o.Class = c
	}
	return vm.registerObject(o)
}

// NewArray allocates an ArrayObject with elements of the given shorty kind.
func (vm *VM) NewArray(kind byte, n int) *Object {
	w := uint32(dex.ShortyWidth(kind)) * 4
	if kind == 'B' || kind == 'Z' {
		w = 1
	}
	if kind == 'S' || kind == 'C' {
		w = 2
	}
	if n < 0 || uint64(n)*uint64(w) > uint64(kernel.DvmHeapLimit-kernel.DvmHeapBase) {
		// Larger than the whole heap window, where the payload size would
		// also wrap the 32-bit allocator arithmetic: exhaustion, as in
		// allocAddr.
		panic(vm.faultf(fault.BudgetExceeded, nil, "heap exhausted (%d-element array)", n))
	}
	addr := vm.allocAddr(uint32(n) * w)
	o := &Object{
		Addr: addr, IsArray: true, ElemKind: kind, ElemWidth: w,
		Len: n, Data: make([]byte, uint32(n)*w),
	}
	return vm.registerObject(o)
}

// NewInstance allocates a class instance.
func (vm *VM) NewInstance(c *dex.Class) *Object {
	return vm.newInstance(c, vm.instanceSlots(c))
}

// instanceSlots is how many slots an instance of c holds: every class
// numbers its own instance fields from 0 (dex.Field.Index), and an instance
// lays out its superclasses' fields before its class's, so an inherited
// field keeps its slot in every subclass. The walk stops at the first
// unregistered class, and a cyclic hierarchy (which no verifier admits)
// after one lap of the registered classes.
func (vm *VM) instanceSlots(c *dex.Class) int {
	n := 0
	for i := 0; c != nil && i <= len(vm.classes); i++ {
		n += c.InstanceSlots()
		c = vm.classes[c.Super]
	}
	return n
}

// FieldSlot is the slot f occupies: its index in its class's static table,
// or, for an instance field, in the object's fields. The executor, the JNI
// field functions and the taint hooks on them all address a field by it.
func (vm *VM) FieldSlot(f *dex.Field) int {
	if f.Static {
		return f.Index
	}
	return vm.instanceSlots(vm.classes[f.Class.Super]) + f.Index
}

// lookupField resolves a field by name on cls or, as Dalvik's field
// resolution does, on its nearest superclass declaring it.
func (vm *VM) lookupField(cls *dex.Class, name string) (*dex.Field, bool) {
	for i := 0; cls != nil && i <= len(vm.classes); i++ {
		if f, ok := cls.FieldByName(name); ok {
			return f, true
		}
		cls = vm.classes[cls.Super]
	}
	return nil, false
}

// lookupMethod resolves a method by name on cls or its nearest superclass
// declaring it, within the same one-lap bound as lookupField.
func (vm *VM) lookupMethod(cls *dex.Class, name string) (*dex.Method, bool) {
	for i := 0; cls != nil && i <= len(vm.classes); i++ {
		if m, ok := cls.Method(name); ok {
			return m, true
		}
		cls = vm.classes[cls.Super]
	}
	return nil, false
}

func (vm *VM) newInstance(c *dex.Class, slots int) *Object {
	addr := vm.allocAddr(uint32(slots) * 8)
	o := &Object{
		Addr: addr, Class: c,
		Fields:      make([]uint32, slots),
		FieldTaints: make([]taint.Tag, slots),
	}
	return vm.registerObject(o)
}

// classObject returns (allocating on demand) the pseudo-object for a class.
// The memo answers while its object is still the one the table holds at that
// address; otherwise the heap is scanned as before and the memo refilled.
func (vm *VM) classObject(c *dex.Class) *Object {
	if o := vm.classObjs[c]; o != nil && vm.objects[o.Addr] == o {
		return o
	}
	var found *Object
	for _, o := range vm.objects {
		if o.IsClass && o.ClassRef == c {
			found = o
			break
		}
	}
	if found == nil {
		found = vm.registerObject(&Object{Addr: vm.allocAddr(0), IsClass: true, ClassRef: c})
	}
	if vm.classObjs == nil {
		vm.classObjs = make(map[*dex.Class]*Object)
	}
	vm.classObjs[c] = found
	return found
}

// ObjectAt resolves a direct pointer to its object.
func (vm *VM) ObjectAt(addr uint32) (*Object, bool) {
	o, ok := vm.objects[addr]
	return o, ok
}

// HeapObjects reports the number of live objects.
func (vm *VM) HeapObjects() int { return len(vm.objects) }

// --- indirect references --------------------------------------------------

// AddLocalRef creates a local indirect reference (current JNI frame).
func (vm *VM) AddLocalRef(o *Object) uint32 {
	if o == nil {
		return 0
	}
	ref := 0xa000_0000 | vm.nextLocal<<2 | refKindLocal
	vm.nextLocal++
	vm.irt[ref] = o
	if n := len(vm.locals); n > 0 {
		vm.locals[n-1] = append(vm.locals[n-1], ref)
	}
	return ref
}

// AddGlobalRef creates a global indirect reference.
func (vm *VM) AddGlobalRef(o *Object) uint32 {
	if o == nil {
		return 0
	}
	ref := 0xb000_0000 | vm.nextGlob<<2 | refKindGlobal
	vm.nextGlob++
	vm.irt[ref] = o
	return ref
}

// DeleteRef drops an indirect reference.
func (vm *VM) DeleteRef(ref uint32) { delete(vm.irt, ref) }

// DecodeRef resolves an indirect reference — or a direct pointer, which
// pre-ICS code may still pass (§II-A requires handling both) — to an object.
func (vm *VM) DecodeRef(ref uint32) *Object {
	if ref == 0 {
		return nil
	}
	if o, ok := vm.irt[ref]; ok {
		return o
	}
	if o, ok := vm.objects[ref]; ok {
		return o
	}
	return nil
}

// IsIndirectRef reports whether ref is table-based (vs a direct pointer).
func (vm *VM) IsIndirectRef(ref uint32) bool {
	_, ok := vm.irt[ref]
	return ok
}

func (vm *VM) pushLocalFrame() { vm.locals = append(vm.locals, nil) }

func (vm *VM) popLocalFrame() {
	n := len(vm.locals)
	if n == 0 {
		return
	}
	for _, ref := range vm.locals[n-1] {
		delete(vm.irt, ref)
	}
	vm.locals = vm.locals[:n-1]
}

func (vm *VM) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("dvm: "+format, args...)
}
