package arm

// This file implements the CPU side of the copy-on-write System snapshot
// (core.Snapshot). What is rewound is exactly the embedded cpuState, copied
// in one assignment each way; everything else in CPU is kept across a
// restore (see the CPU type), designed so the translation caches survive a
// restore wherever they are still valid.
//
// The division of labor with mem.Memory.Restore matters: guest pages the
// attempt dirtied fire write-notify when they are swapped back, and
// onMemWrite already invalidates exactly those pages' decoded instructions
// and blocks. Restore therefore never flushes the caches wholesale — it only
// invalidates blocks on pages whose *non-byte* translation inputs changed
// (address hooks, baked into blocks at translation time). Hooks are not
// copied: Restore replays an undo log of the addresses the attempt touched,
// so its cost does not grow with the boot's hook count. Tracer changes
// are reconciled by RunUntil's boundTracer check, the same path that
// handles a tracer swap mid-session.

// CPUSnapshot holds the captured CPU state. Opaque to callers; produced by
// Snapshot and consumed by Restore on the same CPU.
type CPUSnapshot struct {
	state cpuState
}

// hookPrior is one hook undo entry: the hook an address held at the last
// Snapshot, or had=false when it held none.
type hookPrior struct {
	fn  AddrHook
	had bool
}

// journalHook records addr's current hook in the undo log, once per address
// per snapshot, before Hook or Unhook overwrites it.
func (c *CPU) journalHook(addr uint32) {
	if c.hookUndo == nil {
		return
	}
	if _, logged := c.hookUndo[addr]; !logged {
		fn, had := c.addrHooks[addr]
		c.hookUndo[addr] = hookPrior{fn, had}
	}
}

// Snapshot captures the CPU's mutable state. Translation caches are NOT
// copied — they are forward-valid caches over guest bytes plus hook and
// tracer inputs, and Restore invalidates exactly the entries whose inputs
// changed instead of recapturing them. The hook table is not copied: the
// undo log is emptied, so the current hooks become the baseline. Only the
// latest snapshot is restorable, as with mem.Memory.Snapshot.
func (c *CPU) Snapshot() *CPUSnapshot {
	s := &CPUSnapshot{state: c.cpuState}
	if c.hookUndo == nil {
		c.hookUndo = make(map[uint32]hookPrior)
	}
	clear(c.hookUndo)
	return s
}

// Restore rewinds the CPU to s, which must be its latest snapshot. It walks
// the hook undo log only, putting back each touched address's prior hook.
// Blocks on a page are invalidated where hook presence differs from the
// prior value (hooks are baked into blocks at translation time); everything
// else in the decode and block caches is kept — pages the attempt wrote were
// already invalidated by the write-notify path when memory was restored. A
// restored Tracer that differs from the bound one is reconciled by the next
// RunUntil dispatch.
func (c *CPU) Restore(s *CPUSnapshot) {
	for a, p := range c.hookUndo {
		_, has := c.addrHooks[a]
		if p.had {
			c.addrHooks[a] = p.fn
		} else {
			delete(c.addrHooks, a)
		}
		if has != p.had {
			c.invalidatePageBlocks(a >> 12)
		}
	}
	clear(c.hookUndo)
	c.cpuState = s.state
}
