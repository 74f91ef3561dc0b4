package cas

import (
	"encoding/binary"
	"testing"
)

// FuzzEntryDecode runs Get's frame check and payload decode on arbitrary
// bytes in memory, with no file I/O per exec. decodeEntry must return a hit
// (nil) only for a well-framed entry, a cas-layer fault otherwise, and never
// panic. Its committed seeds are FuzzStoreGet's.
func FuzzEntryDecode(f *testing.F) {
	kind := Kind{Name: "test", Schema: "v1 name,vals,score"}
	f.Fuzz(func(t *testing.T, entry []byte) {
		var out struct {
			Name  string
			Vals  []int
			Score float64
		}
		flt := decodeEntry(kind, "fuzz", entry, &out)
		if flt != nil {
			if flt.Layer != "cas" {
				t.Fatalf("fault in layer %q, want cas: %v", flt.Layer, flt)
			}
			return
		}
		if len(entry) < 16 || [8]byte(entry[:8]) != magic ||
			binary.LittleEndian.Uint64(entry[8:16]) != checksum(entry[16:]) {
			t.Fatalf("hit on a badly framed entry %q", entry)
		}
	})
}
