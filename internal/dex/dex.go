// Package dex models Dalvik executables: classes, fields, methods, and a
// register-based instruction set covering the subset of Dalvik semantics the
// paper's evaluation exercises (arithmetic including float/double, object and
// array access, field access, invokes, branches, exceptions, and the
// System.loadLibrary idiom the Section III corpus analysis scans for).
//
// Instructions are represented structurally (decoded form) rather than as
// binary dex bytes: taint semantics — the part of Dalvik that matters to
// TaintDroid and NDroid — attach to the decoded operations.
package dex

import "fmt"

// Code enumerates Dalvik-style operations.
type Code uint8

// Operations.
const (
	Nop            Code = iota + 1
	Const               // vA := Lit (32-bit)
	ConstWide           // vA,vA+1 := Lit (64-bit)
	ConstString         // vA := new String(Str)
	Move                // vA := vB
	MoveWide            // vA,vA+1 := vB,vB+1
	MoveResult          // vA := result
	MoveResultWide      // vA,vA+1 := result
	MoveException       // vA := pending exception
	ReturnVoid          //
	Return              // return vA
	ReturnWide          // return vA,vA+1
	NewInstance         // vA := new Class
	NewArray            // vA := new elem[vB]; Str = element kind ("I","B","L",...)
	ArrayLength         // vA := len(vB)
	Aget                // vA := vB[vC] (32-bit element)
	AgetWide            // vA,vA+1 := vB[vC]
	Aput                // vB[vC] := vA
	AputWide            // vB[vC] := vA,vA+1
	Iget                // vA := vB.Field
	IgetWide            //
	Iput                // vB.Field := vA
	IputWide            //
	Sget                // vA := Class.Field
	SgetWide            //
	Sput                // Class.Field := vA
	SputWide            //
	InvokeVirtual       // call Method with Args (Args[0] = this)
	InvokeDirect        // constructors / private
	InvokeStatic        //
	Goto                // jump to Target
	IfTest              // if vA <Cmp> vB goto Target
	IfTestZ             // if vA <Cmp> 0 goto Target
	BinOp               // vA := vB <Arith> vC (int)
	BinOpLit            // vA := vB <Arith> Lit (int)
	BinOpWide           // vA := vB <Arith> vC (long, reg pairs)
	BinOpFloat          // vA := vB <Arith> vC (float)
	BinOpDouble         // vA := vB <Arith> vC (double, reg pairs)
	IntToFloat          // vA := float(vB)
	FloatToInt          // vA := int(vB)
	IntToDouble         // vA,vA+1 := double(vB)
	DoubleToInt         // vA := int(vB,vB+1)
	IntToLong           // vA,vA+1 := sext(vB)
	LongToInt           // vA := trunc(vB,vB+1)
	CmpFloat            // vA := sign(vB - vC) as int
	CmpDouble           // vA := sign((vB,vB+1) - (vC,vC+1))
	CmpLong             // vA := sign((vB,vB+1) - (vC,vC+1)) for longs
	Throw               // throw vA
)

var codeNames = map[Code]string{
	Nop: "nop", Const: "const", ConstWide: "const-wide", ConstString: "const-string",
	Move: "move", MoveWide: "move-wide", MoveResult: "move-result",
	MoveResultWide: "move-result-wide", MoveException: "move-exception",
	ReturnVoid: "return-void", Return: "return", ReturnWide: "return-wide",
	NewInstance: "new-instance", NewArray: "new-array", ArrayLength: "array-length",
	Aget: "aget", AgetWide: "aget-wide", Aput: "aput", AputWide: "aput-wide",
	Iget: "iget", IgetWide: "iget-wide", Iput: "iput", IputWide: "iput-wide",
	Sget: "sget", SgetWide: "sget-wide", Sput: "sput", SputWide: "sput-wide",
	InvokeVirtual: "invoke-virtual", InvokeDirect: "invoke-direct", InvokeStatic: "invoke-static",
	Goto: "goto", IfTest: "if-test", IfTestZ: "if-testz",
	BinOp: "binop", BinOpLit: "binop/lit", BinOpWide: "binop-wide",
	BinOpFloat: "binop-float", BinOpDouble: "binop-double",
	IntToFloat: "int-to-float", FloatToInt: "float-to-int",
	IntToDouble: "int-to-double", DoubleToInt: "double-to-int",
	IntToLong: "int-to-long", LongToInt: "long-to-int",
	CmpFloat: "cmpl-float", CmpDouble: "cmpl-double", CmpLong: "cmp-long",
	Throw: "throw",
}

// String returns the smali-style mnemonic.
func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Code(%d)", uint8(c))
}

// Arith selects the operation for BinOp-family instructions.
type Arith uint8

// Arithmetic operators.
const (
	Add Arith = iota + 1
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Ushr
)

var arithNames = [...]string{"", "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr"}

// String returns the operator name.
func (a Arith) String() string {
	if int(a) < len(arithNames) {
		return arithNames[a]
	}
	return fmt.Sprintf("Arith(%d)", uint8(a))
}

// Cmp selects the comparison for IfTest/IfTestZ.
type Cmp uint8

// Comparisons.
const (
	Eq Cmp = iota + 1
	Ne
	Lt
	Ge
	Gt
	Le
)

var cmpNames = [...]string{"", "eq", "ne", "lt", "ge", "gt", "le"}

// String returns the comparison suffix.
func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("Cmp(%d)", uint8(c))
}

// Insn is one decoded Dalvik instruction.
type Insn struct {
	Op   Code
	A    int // usually the destination register
	B    int
	C    int
	Lit  int64
	Str  string // string literal, type descriptor, or element kind
	Cmp  Cmp
	Ar   Arith
	Tgt  int // branch target (instruction index)
	Args []int

	// Method/field references are textual and resolved by the VM on first
	// execution; the resolved pointer is cached here.
	ClassName  string
	MemberName string
	Shorty     string

	ResolvedMethod *Method
	ResolvedField  *Field
}

// AccessFlags for methods.
const (
	AccPublic = 0x1
	AccStatic = 0x8
	AccNative = 0x100
)

// Field describes an instance or static field.
type Field struct {
	Class  *Class
	Name   string
	Wide   bool
	Static bool
	Index  int // slot in the instance/static field table
}

// TryEntry is one try/catch range (instruction indices, end exclusive).
type TryEntry struct {
	Start, End int
	Handler    int
	Type       string // exception class name; "" catches everything
}

// Method is a Dalvik method: interpreted bytecode, a JNI-bridged native
// method, or a framework builtin implemented by the host.
type Method struct {
	Class  *Class
	Name   string
	Shorty string // return type char followed by argument type chars
	Flags  uint32

	// Interpreted methods:
	NumRegs int // total registers (locals + ins)
	Insns   []Insn
	Tries   []TryEntry

	// JNI native methods:
	NativeAddr uint32

	// Framework builtins (host Go):
	Builtin interface{} // set by the VM layer; kept opaque here

	// Compiled holds the VM's decoded form of the instruction stream (a
	// *decoded on the dvm side); kept opaque here like Builtin. The slot is
	// a cache: the VM validates ownership and its decode epoch before
	// trusting it, so a stale value is only ever decoded again, never
	// executed.
	Compiled interface{}

	// fullName is FullName computed once by NewMethod. A Method built as a
	// literal leaves it empty and FullName concatenates on every call.
	fullName string
}

// NewMethod returns a method of c with its full name computed up front, so
// the per-crossing observers that key by FullName do not concatenate.
func NewMethod(c *Class, name, shorty string, flags uint32) *Method {
	return &Method{Class: c, Name: name, Shorty: shorty, Flags: flags, fullName: c.Name + "." + name}
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags&AccStatic != 0 }

// IsNative reports whether the method is JNI-native.
func (m *Method) IsNative() bool { return m.Flags&AccNative != 0 }

// InsSize returns the number of argument registers (wide args count twice;
// non-static methods include `this`).
func (m *Method) InsSize() int {
	n := 0
	if !m.IsStatic() {
		n++
	}
	for _, ch := range m.Shorty[1:] {
		n++
		if ch == 'J' || ch == 'D' {
			n++
		}
	}
	return n
}

// RetWide reports whether the return value is 64-bit.
func (m *Method) RetWide() bool {
	return m.Shorty[0] == 'J' || m.Shorty[0] == 'D'
}

// FullName renders "Lcom/foo/Bar;.baz".
func (m *Method) FullName() string {
	if m.fullName != "" {
		return m.fullName
	}
	return m.Class.Name + "." + m.Name
}

// Class is a Dalvik class.
type Class struct {
	Name  string // descriptor form: "Lcom/ndroid/demos/Demos;"
	Super string

	InstanceFields []*Field
	StaticFields   []*Field
	Methods        []*Method

	// StaticData / StaticTaints are the static-field slots; TaintDroid keeps
	// taint tags interleaved with static variables (§II-B "Taint Storage").
	StaticData   []uint32
	StaticTaints []uint32 // stored as raw tag words
}

// Method looks up a method by name (first match).
func (c *Class) Method(name string) (*Method, bool) {
	for _, m := range c.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// FieldByName looks up an instance or static field.
func (c *Class) FieldByName(name string) (*Field, bool) {
	for _, f := range c.InstanceFields {
		if f.Name == name {
			return f, true
		}
	}
	for _, f := range c.StaticFields {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// InstanceSlots returns how many 32-bit slots instances of c need.
func (c *Class) InstanceSlots() int {
	n := 0
	for _, f := range c.InstanceFields {
		n++
		if f.Wide {
			n++
		}
	}
	return n
}

// ShortyWidth returns the register width (1 or 2) of a shorty type char.
func ShortyWidth(ch byte) int {
	if ch == 'J' || ch == 'D' {
		return 2
	}
	return 1
}
