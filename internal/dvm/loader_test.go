package dvm

import (
	"fmt"
	"testing"

	"repro/internal/arm"
)

// TestAsmMemoBounded memoizes more distinct images than the memo holds: it
// keeps the newest asmMemoCap of them and lets the oldest go.
func TestAsmMemoBounded(t *testing.T) {
	var vm VM
	key := func(i int) asmKey { return asmKey{source: fmt.Sprintf("lib%d", i), base: 0x8000} }
	const extra = 10
	for i := 0; i < asmMemoCap+extra; i++ {
		vm.memoizeAsm(key(i), &arm.Program{})
	}
	if len(vm.asmMemo) != asmMemoCap {
		t.Fatalf("memo holds %d images, want %d", len(vm.asmMemo), asmMemoCap)
	}
	for i := 0; i < asmMemoCap+extra; i++ {
		_, ok := vm.asmMemo[key(i)]
		if want := i >= extra; ok != want {
			t.Errorf("image %d memoized = %v, want %v", i, ok, want)
		}
	}
}
