package dvm

import (
	"encoding/binary"

	"repro/internal/dex"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/taint"
)

// Frame is one interpreter frame. Register slots live in guest memory with
// TaintDroid's layout (Fig. 1): each register is an 8-byte slot — 4 value
// bytes followed by 4 taint-tag bytes — and a 16-byte StackSaveArea sits
// above the registers holding the caller's frame pointer.
type Frame struct {
	Method *dex.Method
	FP     uint32 // guest address of v0's value word

	// win aliases the frame's register slots ([FP, FP+8*NumRegs)) directly in
	// the backing page when the frame does not cross a page boundary. Guest
	// memory stays the authoritative store — hooks that raw-write taint into
	// frame slots (core's onInterpret, Fig. 9) and VMI walks that read the
	// save area observe every access, because the window is the same bytes.
	// mem backs the frames without one.
	win []byte
	mem *mem.Memory
}

// saveAreaSize is the StackSaveArea footprint.
const saveAreaSize = 16

// RegAddr returns the guest address of register i's value word — the
// addresses NDroid's dvmInterpret hook writes taints to (Fig. 9's
// "t[44bf8c14] = 0x1602").
func (f *Frame) RegAddr(i int) uint32 { return f.FP + uint32(8*i) }

// TaintAddr returns the guest address of register i's taint tag.
func (f *Frame) TaintAddr(i int) uint32 { return f.FP + uint32(8*i) + 4 }

// Thread is a Dalvik thread: a guest stack region plus the interpreter
// save-state (return value and its taint, pending exception).
type Thread struct {
	VM   *VM
	Name string

	StackBase uint32
	StackTop  uint32
	cur       uint32

	Frames []*Frame

	// InterpSaveState (§II-B): the last invoke's return value and taint.
	RetVal   uint64
	RetTaint taint.Tag

	Exception *Object
}

// zeroFrame is the bulk-clear source for frame slots without a window.
var zeroFrame [512]byte

// pushFrame allocates a frame for m and stores args (with taints interleaved)
// into the argument registers, exactly as TaintDroid stores parameters and
// their tags on the Dalvik stack. Frame structs come from the VM's freelist;
// the register slots themselves always live in guest memory. Exhausting the
// thread's stack region is a guest fault (runaway recursion in app bytecode),
// raised before any state changes so the caller unwinds cleanly.
func (th *Thread) pushFrame(m *dex.Method, args []uint32, taints []taint.Tag) (*Frame, error) {
	size := uint32(m.NumRegs*8) + saveAreaSize
	fp := th.cur - size
	if fp < th.StackBase || fp > th.cur {
		return nil, &fault.Fault{
			Kind: fault.StackOverflow, Layer: "dvm", Method: m.FullName(),
			Detail: "thread stack overflow",
		}
	}
	vm := th.VM
	f := vm.getFrame()
	f.Method, f.FP, f.mem = m, fp, vm.Mem
	regBytes := uint32(m.NumRegs * 8)
	f.win = vm.Mem.Window(fp, regBytes)
	// Zero the register slots.
	if f.win != nil {
		for i := range f.win {
			f.win[i] = 0
		}
	} else {
		for off := uint32(0); off < regBytes; {
			chunk := regBytes - off
			if chunk > uint32(len(zeroFrame)) {
				chunk = uint32(len(zeroFrame))
			}
			vm.Mem.WriteBytes(fp+off, zeroFrame[:chunk])
			off += chunk
		}
	}
	// Argument registers occupy the high end of the frame.
	first := m.NumRegs - m.InsSize()
	for i, v := range args {
		f.setReg(first+i, v)
		if i < len(taints) && taints[i] != 0 {
			f.setTag(first+i, taints[i])
		}
	}
	// StackSaveArea: previous frame pointer and a marker.
	vm.Mem.Write32(fp+uint32(m.NumRegs*8), th.cur)
	vm.Mem.Write32(fp+uint32(m.NumRegs*8)+4, objHeaderMagic)
	th.cur = fp
	th.Frames = append(th.Frames, f)
	return f, nil
}

// popFrame releases the top frame back to the VM's freelist.
func (th *Thread) popFrame() {
	n := len(th.Frames)
	if n == 0 {
		return
	}
	f := th.Frames[n-1]
	th.cur = f.FP + uint32(f.Method.NumRegs*8) + saveAreaSize
	th.Frames = th.Frames[:n-1]
	th.VM.putFrame(f)
}

// CurrentFrame returns the innermost frame, if any.
func (th *Thread) CurrentFrame() *Frame {
	if len(th.Frames) == 0 {
		return nil
	}
	return th.Frames[len(th.Frames)-1]
}

// The register accessors are Frame methods small enough to inline into the
// executor. A frame without a window (it crosses a page) takes the guest
// memory fallbacks, which stay calls (go:noinline): inlined, they would push
// the accessors past the compiler's inlining budget, and inlining the
// accessors halved the cost of an arithmetic bytecode.

// reg reads register i.
func (f *Frame) reg(i int) uint32 {
	if f.win != nil {
		return binary.LittleEndian.Uint32(f.win[8*i:])
	}
	return f.memReg(i)
}

// setReg writes register i.
func (f *Frame) setReg(i int, v uint32) {
	if f.win != nil {
		binary.LittleEndian.PutUint32(f.win[8*i:], v)
		return
	}
	f.setMemReg(i, v)
}

// tag reads register i's taint tag.
func (f *Frame) tag(i int) taint.Tag {
	if f.win != nil {
		return taint.Tag(binary.LittleEndian.Uint32(f.win[8*i+4:]))
	}
	return f.memTag(i)
}

// setTag writes register i's taint tag.
func (f *Frame) setTag(i int, t taint.Tag) {
	if f.win != nil {
		binary.LittleEndian.PutUint32(f.win[8*i+4:], uint32(t))
		return
	}
	f.setMemTag(i, t)
}

//go:noinline
func (f *Frame) memReg(i int) uint32 { return f.mem.Read32(f.RegAddr(i)) }

//go:noinline
func (f *Frame) setMemReg(i int, v uint32) { f.mem.Write32(f.RegAddr(i), v) }

//go:noinline
func (f *Frame) memTag(i int) taint.Tag { return taint.Tag(f.mem.Read32(f.TaintAddr(i))) }

//go:noinline
func (f *Frame) setMemTag(i int, t taint.Tag) { f.mem.Write32(f.TaintAddr(i), uint32(t)) }

// wide reads the 64-bit value in registers (i, i+1).
func (f *Frame) wide(i int) uint64 {
	return uint64(f.reg(i)) | uint64(f.reg(i+1))<<32
}

// setWide writes a 64-bit value into registers (i, i+1).
func (f *Frame) setWide(i int, v uint64) {
	f.setReg(i, uint32(v))
	f.setReg(i+1, uint32(v>>32))
}

// wideTag reads the union of the tags of registers (i, i+1).
func (f *Frame) wideTag(i int) taint.Tag { return f.tag(i) | f.tag(i+1) }
