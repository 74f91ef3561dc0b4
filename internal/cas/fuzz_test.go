package cas_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/fault"
)

// FuzzStoreGet writes arbitrary bytes as a store entry and loads it, as
// JSON, into a small struct. GetBytes must either hit with a nil error, or miss with a
// cas-layer *fault.Fault and evict the entry; it must never panic. The
// committed seeds are a valid frame, a truncated frame, a frame with bad
// magic, a checksummed non-JSON payload, and a checksummed JSON null.
func FuzzStoreGet(f *testing.F) {
	dir := f.TempDir()
	s, err := cas.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	// A real put lays out the kind's directory; its path is where every
	// fuzzed entry is written.
	put(f, s, testKind, "fuzz", &payload{})
	paths, err := filepath.Glob(filepath.Join(dir, "*", "fuzz"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("entry path: %v, %v", paths, err)
	}
	path := paths[0]

	f.Fuzz(func(t *testing.T, entry []byte) {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		ok, err := get(s, testKind, "fuzz", &out)
		if ok {
			if err != nil {
				t.Fatalf("hit with error %v", err)
			}
			return
		}
		if flt, isFault := err.(*fault.Fault); !isFault || flt.Layer != "cas" {
			t.Fatalf("miss with error %#v, want a cas-layer *fault.Fault", err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry not evicted (stat: %v)", err)
		}
	})
}
