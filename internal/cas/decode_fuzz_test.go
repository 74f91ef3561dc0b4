package cas

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzEntryDecode runs GetBytes' frame check and payload decode on arbitrary
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
		flt := decodeEntry(kind, "fuzz", entry, func(p []byte) error { return json.Unmarshal(p, &out) })
		if flt != nil {
			if flt.Layer != "cas" {
				t.Fatalf("fault in layer %q, want cas: %v", flt.Layer, flt)
			}
			return
		}
		if len(entry) < headerSize || [8]byte(entry[:8]) != magic ||
			binary.LittleEndian.Uint32(entry[8:headerSize]) != checksum(entry[headerSize:]) {
			t.Fatalf("hit on a badly framed entry %q", entry)
		}
	})
}

// TestValidFrameSeedHits keeps the committed seeds in the current frame: the
// valid-frame seed of both fuzz targets must decode as a hit, so a frame
// change that forgets to re-record the seeds fails here.
func TestValidFrameSeedHits(t *testing.T) {
	for _, target := range []string{"FuzzEntryDecode", "FuzzStoreGet"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, "valid-frame"))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: unexpected seed file %q", target, raw)
		}
		entry, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Name string }
		if f := decodeEntry(Kind{Name: "test"}, "seed", []byte(entry), func(p []byte) error { return json.Unmarshal(p, &out) }); f != nil || out.Name != "case1" {
			t.Errorf("%s/valid-frame: %v, name %q; want a hit on case1", target, f, out.Name)
		}
	}
}
