package dex

import "fmt"

// ClassBuilder assembles a Class programmatically. The synthetic apps in
// internal/apps and the corpus generator build their Dalvik code through it.
type ClassBuilder struct {
	cls *Class
}

// NewClass starts a builder for the class with the given descriptor.
func NewClass(name string) *ClassBuilder {
	return &ClassBuilder{cls: &Class{Name: name, Super: "Ljava/lang/Object;"}}
}

// Super sets the superclass descriptor.
func (b *ClassBuilder) Super(name string) *ClassBuilder {
	b.cls.Super = name
	return b
}

// InstanceField declares an instance field.
func (b *ClassBuilder) InstanceField(name string, wide bool) *ClassBuilder {
	idx := 0
	for _, f := range b.cls.InstanceFields {
		idx++
		if f.Wide {
			idx++
		}
	}
	b.cls.InstanceFields = append(b.cls.InstanceFields, &Field{
		Class: b.cls, Name: name, Wide: wide, Index: idx,
	})
	return b
}

// StaticField declares a static field.
func (b *ClassBuilder) StaticField(name string, wide bool) *ClassBuilder {
	idx := len(b.cls.StaticData)
	b.cls.StaticFields = append(b.cls.StaticFields, &Field{
		Class: b.cls, Name: name, Wide: wide, Static: true, Index: idx,
	})
	n := 1
	if wide {
		n = 2
	}
	b.cls.StaticData = append(b.cls.StaticData, make([]uint32, n)...)
	b.cls.StaticTaints = append(b.cls.StaticTaints, make([]uint32, n)...)
	return b
}

// NativeMethod declares a JNI-bridged native method; addr is bound later by
// the app loader (or immediately if known).
func (b *ClassBuilder) NativeMethod(name, shorty string, flags uint32, addr uint32) *ClassBuilder {
	m := NewMethod(b.cls, name, shorty, flags|AccNative)
	m.NativeAddr = addr
	b.cls.Methods = append(b.cls.Methods, m)
	return b
}

// Method starts building an interpreted method. numLocals is the count of
// non-argument registers; argument registers follow them (Dalvik layout).
func (b *ClassBuilder) Method(name, shorty string, flags uint32, numLocals int) *MethodBuilder {
	m := NewMethod(b.cls, name, shorty, flags)
	m.NumRegs = numLocals + m.InsSize()
	b.cls.Methods = append(b.cls.Methods, m)
	return &MethodBuilder{m: m, labels: map[string]int{}}
}

// Build finalizes and returns the class.
func (b *ClassBuilder) Build() *Class { return b.cls }

// MethodBuilder accumulates instructions with label-based branching.
type MethodBuilder struct {
	m         *Method
	labels    map[string]int
	fixups    []fixup
	tryFixups []tryFixup
}

type fixup struct {
	insn  int
	label string
}

// ArgReg returns the register index of the i-th argument register slot
// (0-based; `this` is slot 0 for instance methods, wide args occupy two).
func (mb *MethodBuilder) ArgReg(i int) int {
	return mb.m.NumRegs - mb.m.InsSize() + i
}

func (mb *MethodBuilder) add(i Insn) *MethodBuilder {
	mb.m.Insns = append(mb.m.Insns, i)
	return mb
}

// Label marks the next instruction index with a name.
func (mb *MethodBuilder) Label(name string) *MethodBuilder {
	mb.labels[name] = len(mb.m.Insns)
	return mb
}

// Nop appends a nop.
func (mb *MethodBuilder) Nop() *MethodBuilder { return mb.add(Insn{Op: Nop}) }

// Const loads a 32-bit literal.
func (mb *MethodBuilder) Const(a int, v int32) *MethodBuilder {
	return mb.add(Insn{Op: Const, A: a, Lit: int64(v)})
}

// ConstWide loads a 64-bit literal into the pair (a, a+1).
func (mb *MethodBuilder) ConstWide(a int, v int64) *MethodBuilder {
	return mb.add(Insn{Op: ConstWide, A: a, Lit: v})
}

// ConstString allocates a string object from a literal.
func (mb *MethodBuilder) ConstString(a int, s string) *MethodBuilder {
	return mb.add(Insn{Op: ConstString, A: a, Str: s})
}

// Move copies a register.
func (mb *MethodBuilder) Move(a, br int) *MethodBuilder {
	return mb.add(Insn{Op: Move, A: a, B: br})
}

// MoveWide copies a register pair.
func (mb *MethodBuilder) MoveWide(a, br int) *MethodBuilder {
	return mb.add(Insn{Op: MoveWide, A: a, B: br})
}

// MoveResult captures the last invoke's return value.
func (mb *MethodBuilder) MoveResult(a int) *MethodBuilder {
	return mb.add(Insn{Op: MoveResult, A: a})
}

// MoveResultWide captures a wide return value.
func (mb *MethodBuilder) MoveResultWide(a int) *MethodBuilder {
	return mb.add(Insn{Op: MoveResultWide, A: a})
}

// MoveException captures the pending exception at a handler.
func (mb *MethodBuilder) MoveException(a int) *MethodBuilder {
	return mb.add(Insn{Op: MoveException, A: a})
}

// ReturnVoid returns with no value.
func (mb *MethodBuilder) ReturnVoid() *MethodBuilder { return mb.add(Insn{Op: ReturnVoid}) }

// Return returns vA.
func (mb *MethodBuilder) Return(a int) *MethodBuilder { return mb.add(Insn{Op: Return, A: a}) }

// ReturnWide returns the pair (a, a+1).
func (mb *MethodBuilder) ReturnWide(a int) *MethodBuilder {
	return mb.add(Insn{Op: ReturnWide, A: a})
}

// NewInstance allocates an object of the named class.
func (mb *MethodBuilder) NewInstance(a int, class string) *MethodBuilder {
	return mb.add(Insn{Op: NewInstance, A: a, ClassName: class})
}

// NewArray allocates an array; kind is a shorty element char ("I","B","L"...).
func (mb *MethodBuilder) NewArray(a, size int, kind string) *MethodBuilder {
	return mb.add(Insn{Op: NewArray, A: a, B: size, Str: kind})
}

// ArrayLength loads an array's length.
func (mb *MethodBuilder) ArrayLength(a, arr int) *MethodBuilder {
	return mb.add(Insn{Op: ArrayLength, A: a, B: arr})
}

// Aget loads arr[idx].
func (mb *MethodBuilder) Aget(a, arr, idx int) *MethodBuilder {
	return mb.add(Insn{Op: Aget, A: a, B: arr, C: idx})
}

// Aput stores into arr[idx].
func (mb *MethodBuilder) Aput(a, arr, idx int) *MethodBuilder {
	return mb.add(Insn{Op: Aput, A: a, B: arr, C: idx})
}

// Iget loads an instance field.
func (mb *MethodBuilder) Iget(a, obj int, class, field string) *MethodBuilder {
	return mb.add(Insn{Op: Iget, A: a, B: obj, ClassName: class, MemberName: field})
}

// Iput stores an instance field.
func (mb *MethodBuilder) Iput(a, obj int, class, field string) *MethodBuilder {
	return mb.add(Insn{Op: Iput, A: a, B: obj, ClassName: class, MemberName: field})
}

// Sget loads a static field.
func (mb *MethodBuilder) Sget(a int, class, field string) *MethodBuilder {
	return mb.add(Insn{Op: Sget, A: a, ClassName: class, MemberName: field})
}

// Sput stores a static field.
func (mb *MethodBuilder) Sput(a int, class, field string) *MethodBuilder {
	return mb.add(Insn{Op: Sput, A: a, ClassName: class, MemberName: field})
}

// InvokeVirtual calls an instance method; args[0] is the receiver.
func (mb *MethodBuilder) InvokeVirtual(class, name, shorty string, args ...int) *MethodBuilder {
	return mb.add(Insn{Op: InvokeVirtual, ClassName: class, MemberName: name, Shorty: shorty, Args: args})
}

// InvokeDirect calls a constructor or private method.
func (mb *MethodBuilder) InvokeDirect(class, name, shorty string, args ...int) *MethodBuilder {
	return mb.add(Insn{Op: InvokeDirect, ClassName: class, MemberName: name, Shorty: shorty, Args: args})
}

// InvokeStatic calls a static method.
func (mb *MethodBuilder) InvokeStatic(class, name, shorty string, args ...int) *MethodBuilder {
	return mb.add(Insn{Op: InvokeStatic, ClassName: class, MemberName: name, Shorty: shorty, Args: args})
}

// Goto jumps to a label.
func (mb *MethodBuilder) Goto(label string) *MethodBuilder {
	mb.fixups = append(mb.fixups, fixup{insn: len(mb.m.Insns), label: label})
	return mb.add(Insn{Op: Goto})
}

// If branches when vA <cmp> vB.
func (mb *MethodBuilder) If(a int, cmp Cmp, bReg int, label string) *MethodBuilder {
	mb.fixups = append(mb.fixups, fixup{insn: len(mb.m.Insns), label: label})
	return mb.add(Insn{Op: IfTest, A: a, B: bReg, Cmp: cmp})
}

// IfZ branches when vA <cmp> 0.
func (mb *MethodBuilder) IfZ(a int, cmp Cmp, label string) *MethodBuilder {
	mb.fixups = append(mb.fixups, fixup{insn: len(mb.m.Insns), label: label})
	return mb.add(Insn{Op: IfTestZ, A: a, Cmp: cmp})
}

// Bin performs 32-bit integer arithmetic: vA := vB op vC.
func (mb *MethodBuilder) Bin(op Arith, a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: BinOp, Ar: op, A: a, B: bReg, C: c})
}

// BinLit performs vA := vB op literal.
func (mb *MethodBuilder) BinLit(op Arith, a, bReg int, lit int32) *MethodBuilder {
	return mb.add(Insn{Op: BinOpLit, Ar: op, A: a, B: bReg, Lit: int64(lit)})
}

// BinWide performs 64-bit integer arithmetic on register pairs.
func (mb *MethodBuilder) BinWide(op Arith, a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: BinOpWide, Ar: op, A: a, B: bReg, C: c})
}

// BinFloat performs float arithmetic.
func (mb *MethodBuilder) BinFloat(op Arith, a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: BinOpFloat, Ar: op, A: a, B: bReg, C: c})
}

// BinDouble performs double arithmetic on register pairs.
func (mb *MethodBuilder) BinDouble(op Arith, a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: BinOpDouble, Ar: op, A: a, B: bReg, C: c})
}

// IntToFloat converts vB to float in vA.
func (mb *MethodBuilder) IntToFloat(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: IntToFloat, A: a, B: bReg})
}

// FloatToInt converts vB to int in vA.
func (mb *MethodBuilder) FloatToInt(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: FloatToInt, A: a, B: bReg})
}

// IntToDouble converts vB to a double in (vA, vA+1).
func (mb *MethodBuilder) IntToDouble(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: IntToDouble, A: a, B: bReg})
}

// DoubleToInt converts (vB, vB+1) to int in vA.
func (mb *MethodBuilder) DoubleToInt(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: DoubleToInt, A: a, B: bReg})
}

// IntToLong sign-extends vB into (vA, vA+1).
func (mb *MethodBuilder) IntToLong(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: IntToLong, A: a, B: bReg})
}

// LongToInt truncates (vB, vB+1) into vA.
func (mb *MethodBuilder) LongToInt(a, bReg int) *MethodBuilder {
	return mb.add(Insn{Op: LongToInt, A: a, B: bReg})
}

// CmpLongOp compares longs on register pairs: vA := -1/0/1.
func (mb *MethodBuilder) CmpLongOp(a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: CmpLong, A: a, B: bReg, C: c})
}

// CmpFloatOp compares floats: vA := -1/0/1.
func (mb *MethodBuilder) CmpFloatOp(a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: CmpFloat, A: a, B: bReg, C: c})
}

// CmpDoubleOp compares doubles on register pairs.
func (mb *MethodBuilder) CmpDoubleOp(a, bReg, c int) *MethodBuilder {
	return mb.add(Insn{Op: CmpDouble, A: a, B: bReg, C: c})
}

// Throw raises vA as an exception.
func (mb *MethodBuilder) Throw(a int) *MethodBuilder {
	return mb.add(Insn{Op: Throw, A: a})
}

// Try registers a try/catch range over labels.
func (mb *MethodBuilder) Try(startLabel, endLabel, handlerLabel, excType string) *MethodBuilder {
	// Resolved in Done() along with branch fixups.
	mb.tryFixups = append(mb.tryFixups, tryFixup{startLabel, endLabel, handlerLabel, excType})
	return mb
}

type tryFixup struct {
	start, end, handler, typ string
}

// Done resolves labels and returns the finished method.
func (mb *MethodBuilder) Done() *Method {
	for _, f := range mb.fixups {
		tgt, ok := mb.labels[f.label]
		if !ok {
			panic(fmt.Sprintf("dex: undefined label %q in %s", f.label, mb.m.FullName()))
		}
		mb.m.Insns[f.insn].Tgt = tgt
	}
	for _, tf := range mb.tryFixups {
		s, ok1 := mb.labels[tf.start]
		e, ok2 := mb.labels[tf.end]
		h, ok3 := mb.labels[tf.handler]
		if !ok1 || !ok2 || !ok3 {
			panic(fmt.Sprintf("dex: undefined try/catch label in %s", mb.m.FullName()))
		}
		mb.m.Tries = append(mb.m.Tries, TryEntry{Start: s, End: e, Handler: h, Type: tf.typ})
	}
	return mb.m
}
