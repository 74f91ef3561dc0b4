package cas_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/fault"
)

type payload struct {
	Name  string
	Vals  []int
	Score float64
}

var testKind = cas.Kind{Name: "test", Schema: "v1 name,vals,score"}

// put and get store a payload as JSON through PutBytes and GetBytes: the
// store moves bytes, and these tests' kind encodes its payload as JSON.
func put(t testing.TB, s *cas.Store, k cas.Kind, digest string, v *payload) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes(k, digest, b); err != nil {
		t.Fatal(err)
	}
}

func get(s *cas.Store, k cas.Kind, digest string, out *payload) (bool, error) {
	return s.GetBytes(k, digest, func(p []byte) error { return json.Unmarshal(p, out) })
}

func open(t *testing.T) *cas.Store {
	t.Helper()
	s, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t)
	in := payload{Name: "case1", Vals: []int{1, 2, 3}, Score: 4.5}
	put(t, s, testKind, "abc123", &in)
	var out payload
	ok, err := get(s, testKind, "abc123", &out)
	if err != nil || !ok {
		t.Fatalf("get = %v, %v; want hit", ok, err)
	}
	if out.Name != in.Name || len(out.Vals) != 3 || out.Score != in.Score {
		t.Fatalf("round trip mangled: %+v", out)
	}
	if ok, err := get(s, testKind, "missing", &out); ok || err != nil {
		t.Fatalf("miss = %v, %v; want clean miss", ok, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchemaInvalidation is the version-bump test: an entry written under one
// schema string must be unreachable — a clean miss, not a decode error —
// under a different one, because the schema fingerprint is part of the key.
func TestSchemaInvalidation(t *testing.T) {
	s := open(t)
	put(t, s, testKind, "d1", &payload{Name: "x"})
	bumped := cas.Kind{Name: testKind.Name, Schema: "v2 name,vals,score,extra"}
	var out payload
	ok, err := get(s, bumped, "d1", &out)
	if ok || err != nil {
		t.Fatalf("schema-bumped get = %v, %v; want clean miss", ok, err)
	}
	// The original schema still resolves its entry.
	if ok, _ := get(s, testKind, "d1", &out); !ok {
		t.Fatal("original schema lost its entry")
	}
}

// entryPath locates the single entry file under the store root.
func entryPath(t *testing.T, s *cas.Store) string {
	t.Helper()
	var found string
	err := filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file found: %v", err)
	}
	return found
}

func TestCorruptionEvictsAndFaults(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":   func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"empty":     func(b []byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			put(t, s, testKind, "d1", &payload{Name: "x", Vals: []int{9}})
			path := entryPath(t, s)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var out payload
			ok, err := get(s, testKind, "d1", &out)
			if ok {
				t.Fatal("corrupt entry served as a hit")
			}
			f, isFault := fault.Of(err)
			if !isFault || f.Layer != "cas" || f.Kind != fault.InternalError {
				t.Fatalf("corruption fault = %v; want typed cas fault", err)
			}
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Fatal("corrupt entry not evicted")
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Evictions != 1 {
				t.Fatalf("stats %+v; want 1 corrupt, 1 eviction", st)
			}
			// The caller recomputes and re-stores; the entry is healthy again.
			put(t, s, testKind, "d1", &payload{Name: "x", Vals: []int{9}})
			if ok, err := get(s, testKind, "d1", &out); !ok || err != nil {
				t.Fatalf("recomputed entry get = %v, %v", ok, err)
			}
		})
	}
}

// TestRejectedPayloadEvicts: a well-framed entry whose payload its owner
// cannot decode is a corrupt entry too — typed fault, eviction, counted.
func TestRejectedPayloadEvicts(t *testing.T) {
	s := open(t)
	if err := s.PutBytes(testKind, "d1", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	var got []byte
	ok, err := s.GetBytes(testKind, "d1", func(p []byte) error {
		got = p
		return errors.New("short payload")
	})
	if f, isFault := fault.Of(err); ok || !isFault || f.Layer != "cas" {
		t.Fatalf("rejected payload = %v, %v; want a cas fault", ok, err)
	}
	if string(got) != "\x01\x02\x03" {
		t.Fatalf("decode saw %x, want the stored payload", got)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("rejected entry not evicted")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Evictions != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v; want 1 corrupt, 1 eviction, no hit", st)
	}
}

// TestInjectedLoadFault arms the cas.load site: the next GetBytes fails exactly
// like a corrupt entry (typed fault, eviction), and the one after succeeds —
// the absorbed-semantics contract the service-level parity tests rely on.
func TestInjectedLoadFault(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	s := open(t)
	put(t, s, testKind, "d1", &payload{Name: "x"})
	if err := fault.Arm(cas.SiteLoad, fault.InternalError); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := get(s, testKind, "d1", &out)
	if ok {
		t.Fatal("injected load served a hit")
	}
	f, isFault := fault.Of(err)
	if !isFault || f.Site != cas.SiteLoad {
		t.Fatalf("injected fault = %v; want site %s", err, cas.SiteLoad)
	}
	if fault.Fired(cas.SiteLoad) != 1 {
		t.Fatalf("site fired %d times", fault.Fired(cas.SiteLoad))
	}
	// Evicted by the injected corruption; a recompute repopulates.
	if ok, err := get(s, testKind, "d1", &out); ok || err != nil {
		t.Fatalf("post-injection get = %v, %v; want clean miss", ok, err)
	}
	put(t, s, testKind, "d1", &payload{Name: "x"})
	if ok, err := get(s, testKind, "d1", &out); !ok || err != nil {
		t.Fatalf("repopulated get = %v, %v", ok, err)
	}
}

func TestDigestHelpers(t *testing.T) {
	if cas.DigestStrings("a", "b") == cas.DigestStrings("ab") {
		t.Fatal("length framing missing: (a,b) collides with (ab)")
	}
	if cas.DigestBytes([]byte{1}, []byte{2}) == cas.DigestBytes([]byte{1, 2}) {
		t.Fatal("length framing missing in DigestBytes")
	}
	if cas.DigestStrings("x") != cas.DigestStrings("x") {
		t.Fatal("digest not deterministic")
	}
}
