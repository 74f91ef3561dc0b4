package arm

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// tagHook returns a hook that, in a run, sets R0 to tag and returns for the
// callee. Called with a nil CPU it just reports 100+tag, naming itself.
func tagHook(tag uint32) AddrHook {
	return func(c *CPU) HookAction {
		if c == nil {
			return HookAction(100 + tag)
		}
		c.R[0] = tag
		return ActionReturn
	}
}

// hookTag names the hook at addr by calling it: 100+tag, or 0 when none.
func hookTag(c *CPU, addr uint32) HookAction {
	h, ok := c.addrHooks[addr&^1]
	if !ok {
		return 0
	}
	return h(nil)
}

// TestRestoreRebasesOnSnapshot: a second Snapshot moves the baseline, so a
// Restore keeps what was hooked before it and drops what came after.
func TestRestoreRebasesOnSnapshot(t *testing.T) {
	const x, y = 0x10000, 0x20000
	c := New(mem.New())
	c.Snapshot()
	c.Hook(x, tagHook(1))
	s := c.Snapshot()
	c.Hook(y, tagHook(2))
	c.Restore(s)
	if hookTag(c, x) != 101 {
		t.Errorf("hook at X after restore = %d, want the one hooked before the second snapshot", hookTag(c, x))
	}
	if hookTag(c, y) != 0 {
		t.Errorf("hook at Y survived the restore")
	}
	if c.HookedAddrs() != 1 {
		t.Errorf("HookedAddrs = %d, want 1", c.HookedAddrs())
	}
}

// TestRestoreBringsBackReplacedHook: replacing a hook's function during an
// attempt and restoring puts the original back without invalidating the
// page's blocks: hook presence, which translation bakes in, never changed.
func TestRestoreBringsBackReplacedHook(t *testing.T) {
	prog := MustAssemble(`
_start:
	MOV R0, #0
	BL magic
	HLT
magic:
	MOV R0, #7
	BX LR
`, testBase, nil)
	m := mem.New()
	m.WriteBytes(prog.Base, prog.Code)
	c := New(m)
	c.UseBlockCache = true
	c.R[SP] = 0x80000
	c.R[PC] = testBase
	magic := prog.MustLabel("magic")
	run := func(want uint32) {
		t.Helper()
		if err := c.Run(1000); err != nil {
			t.Fatal(err)
		}
		if c.R[0] != want {
			t.Fatalf("R0 = %d, want %d", c.R[0], want)
		}
	}

	c.Hook(magic, tagHook(1))
	s := c.Snapshot()
	c.Hook(magic, tagHook(2))
	run(2)
	blocks := c.blocksByPage[magic>>12]
	if len(blocks) == 0 {
		t.Fatal("the run translated no blocks on the hooked page")
	}
	epoch := c.CodeEpoch
	c.Restore(s)
	if c.CodeEpoch != epoch {
		t.Errorf("CodeEpoch %d -> %d: restore invalidated a page whose hook presence did not change", epoch, c.CodeEpoch)
	}
	for _, b := range blocks {
		if !b.valid {
			t.Errorf("block at %#x invalidated by the restore", b.key)
		}
	}
	run(1)
}

// FuzzHookRestore checks the hook undo log against a plain map model. Each
// input byte is one operation: the low two bits pick Hook, Unhook, Snapshot
// or Restore, the next three an address (eight addresses on three pages, two
// of them odd to exercise the Thumb bit), and the top three the hook's tag.
// After every Restore the hook table must equal the model's table at the
// last Snapshot, address by address and function by function.
func FuzzHookRestore(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x24, 0x03})
	f.Add([]byte{0x00, 0x02, 0x21, 0x40, 0x03, 0x25, 0x03})
	f.Add([]byte{0x02, 0x00, 0x02, 0x04, 0x03, 0x03})
	addrs := [8]uint32{0x10000, 0x10004, 0x10ffd, 0x11000, 0x11008, 0x12000, 0x12011, 0x12ffc}
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(mem.New())
		var (
			model = map[uint32]uint32{} // address -> tag
			base  map[uint32]uint32
			snap  *CPUSnapshot
		)
		for i, op := range ops {
			addr := addrs[op>>2&7]
			switch op & 3 {
			case 0:
				c.Hook(addr, tagHook(uint32(op>>5)))
				model[addr&^1] = uint32(op >> 5)
			case 1:
				c.Unhook(addr)
				delete(model, addr&^1)
			case 2:
				snap = c.Snapshot()
				base = maps.Clone(model)
			case 3:
				if snap == nil {
					continue
				}
				c.Restore(snap)
				model = maps.Clone(base)
				if c.HookedAddrs() != len(model) {
					t.Fatalf("op %d: %d hooked addresses after restore, model has %d", i, c.HookedAddrs(), len(model))
				}
				for _, addr := range addrs {
					want := HookAction(0)
					if tag, ok := model[addr&^1]; ok {
						want = HookAction(100 + tag)
					}
					if got := hookTag(c, addr); got != want {
						t.Fatalf("op %d: hook at %#x = %d after restore, model %d", i, addr, got, want)
					}
				}
			}
		}
	})
}

// keptAcrossRestore lists every CPU field outside the rewound cpuState, each
// with the reason a restore leaves it alone.
var keptAcrossRestore = map[string]string{
	"Mem":          "guest memory restores itself (mem.Memory.Restore)",
	"addrHooks":    "rewound by replaying hookUndo, not by copying",
	"hookUndo":     "the undo log itself; Snapshot and Restore empty it",
	"decodeCache":  "forward-valid; the write-notify drops stale pages",
	"lastPageKey":  "one-entry memo over decodeCache",
	"lastPage":     "one-entry memo over decodeCache",
	"blockCache":   "forward-valid; the write-notify and the hook undo drop stale blocks",
	"blocksByPage": "per-page index of blockCache",
	"codePages":    "marks the pages that hold cached translations",
	"codeExt":      "code extents of the cached translations",
	"boundTracer":  "the tracer cached blocks were bound under; RunUntil reconciles it",
	"CodeEpoch":    "monotonic: rewinding it could make two different code states look equal",
}

// TestEveryCPUFieldPicksASide: each CPU field is either in cpuState, which
// Restore rewinds, or listed with a reason in keptAcrossRestore, so a new
// field cannot be silently left out of a rewind.
func TestEveryCPUFieldPicksASide(t *testing.T) {
	typ := reflect.TypeOf(CPU{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(cpuState{}) {
			continue
		}
		seen[f.Name] = true
		if _, ok := keptAcrossRestore[f.Name]; !ok {
			t.Errorf("CPU.%s is neither in cpuState nor listed in keptAcrossRestore", f.Name)
		}
	}
	for name := range keptAcrossRestore {
		if !seen[name] {
			t.Errorf("keptAcrossRestore lists %s, which is not a CPU field outside cpuState", name)
		}
	}
}
