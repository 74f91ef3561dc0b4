package arm

import "repro/internal/fault"

// SiteDispatch is the ARM engine's fault-injection site, probed once per
// dispatch iteration (per instruction on the interpreter path, per block on
// the translated path).
const SiteDispatch = "arm.dispatch"

func init() { fault.RegisterSite(SiteDispatch, "arm") }

// The guest memory is sparse (unmapped reads return zero, writes allocate),
// so a wild pointer cannot trap through the paging layer the way it would on
// hardware. Instead data accesses are checked against a guard window: the
// low page catches NULL-relative dereferences and the high window catches
// kernel-space/underflowed addresses. Every legitimate mapping the kernel
// layout hands out lives inside [guardLo, guardHi); the check is one
// unsigned compare per access.
const (
	guardLo uint32 = 0x1000
	guardHi uint32 = 0xf000_0000
)

func badAddr(a uint32) bool { return a-guardLo >= guardHi-guardLo }

// fetchFault classifies a fetch that decoded to OpInvalid: a wild branch
// into unmapped space (the zero fill of a page that was never written) is an
// UnmappedAccess; a defined-location, undefined-encoding word is UndefInsn.
func (c *CPU) fetchFault(pc uint32) error {
	if !c.Mem.Mapped(pc) || badAddr(pc) {
		return &fault.Fault{
			Kind: fault.UnmappedAccess, Layer: "arm", PC: pc, Addr: pc,
			Detail: "instruction fetch from unmapped memory",
		}
	}
	thumb := ""
	if c.Thumb {
		thumb = " (thumb)"
	}
	return &fault.Fault{
		Kind: fault.UndefInsn, Layer: "arm", PC: pc, Addr: pc,
		Detail: "undefined instruction encoding" + thumb,
	}
}

// memFault reports a data access outside the guard window.
func (c *CPU) memFault(pc, addr uint32) error {
	return &fault.Fault{
		Kind: fault.UnmappedAccess, Layer: "arm", PC: pc, Addr: addr,
		Detail: "data access outside the mapped guest window",
	}
}

// undefFault reports a decoded-but-unimplemented operation.
func (c *CPU) undefFault(pc uint32, insn Insn) error {
	return &fault.Fault{
		Kind: fault.UndefInsn, Layer: "arm", PC: pc,
		Detail: "unimplemented op " + insn.Op.String(),
	}
}

// budgetFault reports watchdog exhaustion; the analyzer maps it to the
// Timeout verdict.
func (c *CPU) budgetFault(maxInsns uint64) error {
	return &fault.Fault{
		Kind: fault.BudgetExceeded, Layer: "arm", PC: c.R[PC],
		Detail: "native instruction budget exhausted",
	}
}
