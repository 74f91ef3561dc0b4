package dvm

import (
	"reflect"
	"testing"
)

// outsideState lists every VM field outside the copied vmState, each with
// how a restore treats it: rewound by real work in Restore, or kept.
var outsideState = map[string]string{
	"Mem":  "wiring, fixed at New; guest memory restores itself",
	"CPU":  "wiring, fixed at New; the CPU restores itself",
	"Kern": "wiring, fixed at New",
	"Task": "wiring, fixed at New",
	"Libc": "wiring, fixed at New",

	"classes":         "rewound: registry copied back, static slots restored",
	"objects":         "rewound: the heap is deep-copied back",
	"irt":             "rewound: remapped onto the copied heap",
	"locals":          "rewound: frames copied back",
	"methodIDs":       "rewound into the same backing array",
	"fieldIDs":        "rewound into the same backing array",
	"hooks":           "rewound: lists copied back into their backing arrays",
	"internedStrings": "rewound: remapped onto the copied heap",
	"threads":         "rewound: later threads dropped, stacks unwound",
	"nativeLibs":      "rewound into the same backing array",

	"internalAddrs": "libdvm layout, fixed at New",
	"internalNames": "libdvm layout, fixed at New",
	"libdvmEnd":     "libdvm layout, fixed at New",
	"MainThread":    "fixed at New; its stack is rewound with threads",
	"externs":       "link table, fixed once the framework is up",

	"decodeEpoch": "monotonic: Restore bumps it, rewinding could revalidate a stale decode",
	"transEpoch":  "monotonic: Restore bumps it, rewinding could revalidate a stale chain",
	"fused":       "dropped by Restore: keyed by the attempt's methods",
	"fuseHeat":    "dropped by Restore: keyed by the attempt's methods",
	"utfOpen":     "emptied by Restore; the backing array is kept",
	"utfBase":     "zeroed by Restore",
	"bridgeCtxs":  "pool, zeroed by Restore (releaseCtxPools)",
	"envCtxs":     "pool, zeroed by Restore (releaseCtxPools)",

	"marshalPlans":   "keyed by shorty, pins no method",
	"jniScratchPool": "pool of argument buffers, refilled per crossing",
	"savedCPUStack":  "pool of register buffers, refilled per crossing",
	"framePool":      "pool; Restore returns the attempt's frames to it",
	"scratchPool":    "pool of invoke buffers, refilled per invoke",
	"asmMemo":        "content-addressed assembly memo, warm across apps",
	"asmOrder":       "eviction order of asmMemo",
	"asmNext":        "eviction cursor of asmMemo",
	"AsmAssembles":   "counts real assembler runs across restores",
	"JavaDeopts":     "always 0: nothing writes it",
}

// TestEveryVMFieldPicksASide: each VM field is either in vmState, which
// Restore copies back, or listed with a reason in outsideState, so a new
// field cannot be silently left out of a rewind.
func TestEveryVMFieldPicksASide(t *testing.T) {
	typ := reflect.TypeOf(VM{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(vmState{}) {
			continue
		}
		seen[f.Name] = true
		if _, ok := outsideState[f.Name]; !ok {
			t.Errorf("VM.%s is neither in vmState nor listed in outsideState", f.Name)
		}
	}
	for name := range outsideState {
		if !seen[name] {
			t.Errorf("outsideState lists %s, which is not a VM field outside vmState", name)
		}
	}
}
