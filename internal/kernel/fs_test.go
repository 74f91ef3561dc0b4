package kernel

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// TestWriteAtGapAfterRestore grows a snapshotted file, restores it (the
// restore keeps the grown capacity, stale bytes included), then writes past
// EOF: the gap between the old end and the write must read as zeros.
func TestWriteAtGapAfterRestore(t *testing.T) {
	k := New(mem.New())
	k.FS.WriteFile("/data/f", []byte("abc"))
	snap := k.Snapshot()

	f := k.FS.files["/data/f"]
	f.WriteAt(3, bytes.Repeat([]byte{0xee}, 61))
	if len(f.Data) != 64 {
		t.Fatalf("grown length %d, want 64", len(f.Data))
	}
	k.Restore(snap)
	if got, _ := k.FS.ReadFile("/data/f"); string(got) != "abc" {
		t.Fatalf("restored contents %q, want %q", got, "abc")
	}

	f = k.FS.files["/data/f"]
	f.WriteAt(10, []byte("xy"))
	got, _ := k.FS.ReadFile("/data/f")
	want := append([]byte("abc"), make([]byte, 7)...)
	want = append(want, "xy"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after write past EOF: %q, want %q", got, want)
	}
}

// TestWriteAtAppendsGrowGeometrically appends one byte at a time and checks
// that the backing array is reallocated a logarithmic number of times.
func TestWriteAtAppendsGrowGeometrically(t *testing.T) {
	var f File
	grows := 0
	for i := 0; i < 1<<16; i++ {
		before := cap(f.Data)
		f.WriteAt(uint32(i), []byte{byte(i)})
		if cap(f.Data) != before {
			grows++
		}
	}
	for i, b := range f.Data {
		if b != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, b, byte(i))
		}
	}
	if grows > 64 {
		t.Errorf("%d reallocations for 65,536 one-byte appends", grows)
	}
}
