// Package cas implements the persistent content-addressed artifact store
// behind the analysis service: every derived artifact — dex validation
// results, assembled native-library images, and final verdict records — is
// keyed by the content digest of its inputs, so a re-submitted identical app
// (or a new app sharing only a native library) reuses work instead of
// recomputing it.
//
// Keys are three-part: an artifact kind, the kind's schema fingerprint
// (hash of a schema description string plus the store format version), and
// the caller-supplied content digest. The schema fingerprint is part of the
// on-disk path, so a format change — bumping Version or editing a Kind's
// Schema string — makes old entries unreachable rather than deserialized as
// garbage.
//
// The store moves bytes; each kind's owner encodes its payload. PutBytes and
// GetBytes frame and check an opaque payload, and Put/Get are thin JSON
// wrappers over them for kinds whose payload is plain JSON.
//
// Every load is checksummed (CRC-32C): a truncated or bit-flipped entry, or a
// payload its owner cannot decode, surfaces as a typed *fault.Fault
// diagnostic (layer "cas"), is evicted from the store, and the caller
// recomputes — corruption costs one recompute, never a wrong result. SiteLoad
// wires the load path into the deterministic fault-injection registry with
// the same absorbed semantics: an injected load fault behaves exactly like a
// corrupt entry, and verdicts stay byte-identical.
package cas

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
)

// Version is the store format version. Bumping it invalidates every entry of
// every kind (the fingerprint of each kind changes, so old paths are simply
// never consulted again). Version 2 moved the frame checksum from FNV-64a to
// CRC-32C, so version-1 entries are clean misses.
const Version = 2

// SiteLoad guards the entry-load path: an injected fault here is handled as
// a corrupt entry — evicted, counted, recomputed — and never changes a
// verdict (absorbed semantics).
const SiteLoad = "cas.load"

func init() {
	fault.RegisterSite(SiteLoad, "cas")
}

// Kind names one artifact family and describes its serialized schema. The
// Schema string is not parsed — it is hashed into the key, so editing it
// (say, when a field is added to the payload struct) cleanly invalidates
// every entry of the kind.
type Kind struct {
	Name   string
	Schema string
}

// fingerprint is the schema-qualified directory component of the kind.
func (k Kind) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "cas-v%d|%s|%s", Version, k.Name, k.Schema)
	return fmt.Sprintf("%s-%016x", k.Name, h.Sum64())
}

// Stats counts store activity. Hits and Misses cover Get; Corrupt counts
// entries that failed the integrity check (injected or organic); every
// corrupt entry is also counted in Evictions.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Corrupt   uint64 `json:"corrupt,omitempty"`
	Evictions uint64 `json:"evictions,omitempty"`
}

// Store is a goroutine-safe on-disk content-addressed store.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// path places an entry: <root>/<kind>-<schema fp>/<digest>.
func (s *Store) path(k Kind, digest string) string {
	return filepath.Join(s.dir, k.fingerprint(), digest)
}

// entry framing: an 8-byte magic, a 4-byte little-endian CRC-32C
// (Castagnoli) of the payload, then the payload.
var magic = [8]byte{'N', 'D', 'C', 'A', 'S', 'v', '0', '2'}

const headerSize = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Put stores v as a JSON payload under (kind, digest).
func (s *Store) Put(k Kind, digest string, v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cas: marshal %s/%s: %w", k.Name, digest, err)
	}
	return s.PutBytes(k, digest, payload)
}

// Get loads the JSON payload under (kind, digest) into out, with GetBytes'
// results: a payload that is not valid JSON for out is a corrupt entry.
func (s *Store) Get(k Kind, digest string, out interface{}) (bool, error) {
	return s.GetBytes(k, digest, func(payload []byte) error { return json.Unmarshal(payload, out) })
}

// PutBytes frames payload and stores it under (kind, digest). The write goes
// through a temp file and rename, so a concurrent reader sees either the old
// entry or the new one, never a torn write.
func (s *Store) PutBytes(k Kind, digest string, payload []byte) error {
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[8:], checksum(payload))
	buf = append(buf, payload...)

	path := s.path(k, digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cas: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cas: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cas: %w", err)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// GetBytes loads the entry under (kind, digest), checks its frame and hands
// the payload to decode. The payload aliases a buffer read for this call
// alone, so decode may keep it. GetBytes returns (true, nil) on a hit and
// (false, nil) on a clean miss. A corrupt entry, a payload decode rejects,
// or an injected SiteLoad fault returns (false, *fault.Fault) after evicting
// the entry: the caller treats it as a miss, recomputes, and may surface the
// fault as a diagnostic counter.
func (s *Store) GetBytes(k Kind, digest string, decode func(payload []byte) error) (bool, error) {
	if f := fault.Hit(SiteLoad, 0); f != nil {
		s.evictCorrupt(k, digest)
		return false, f
	}
	data, err := os.ReadFile(s.path(k, digest))
	if err != nil {
		if os.IsNotExist(err) {
			s.mu.Lock()
			s.stats.Misses++
			s.mu.Unlock()
			return false, nil
		}
		s.evictCorrupt(k, digest)
		return false, corruptFault(k, digest, "unreadable entry", err)
	}
	if f := decodeEntry(k, digest, data, decode); f != nil {
		s.evictCorrupt(k, digest)
		return false, f
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return true, nil
}

// decodeEntry checks one entry's frame (magic and checksum) and hands its
// payload to decode. It returns nil on a hit and a cas-layer *fault.Fault
// naming the corruption otherwise. It touches no file, so GetBytes' integrity
// rules can be fuzzed in memory (FuzzEntryDecode).
func decodeEntry(k Kind, digest string, data []byte, decode func([]byte) error) *fault.Fault {
	if len(data) < headerSize || [8]byte(data[:8]) != magic {
		return corruptFault(k, digest, "truncated or foreign entry", nil)
	}
	payload := data[headerSize:]
	if binary.LittleEndian.Uint32(data[8:headerSize]) != checksum(payload) {
		return corruptFault(k, digest, "checksum mismatch", nil)
	}
	if err := decode(payload); err != nil {
		return corruptFault(k, digest, "undecodable payload", err)
	}
	return nil
}

// Evict removes an entry (no-op when absent).
func (s *Store) Evict(k Kind, digest string) {
	if os.Remove(s.path(k, digest)) == nil {
		s.mu.Lock()
		s.stats.Evictions++
		s.mu.Unlock()
	}
}

// evictCorrupt is Evict plus the corruption counter; an injected fault on a
// nonexistent entry still counts as corrupt (the probe observed a bad load).
func (s *Store) evictCorrupt(k Kind, digest string) {
	os.Remove(s.path(k, digest))
	s.mu.Lock()
	s.stats.Corrupt++
	s.stats.Evictions++
	s.mu.Unlock()
}

func corruptFault(k Kind, digest, detail string, cause error) *fault.Fault {
	return &fault.Fault{
		Kind:   fault.InternalError,
		Layer:  "cas",
		Detail: fmt.Sprintf("corrupt cache entry %s/%s: %s", k.Name, digest, detail),
		Cause:  cause,
	}
}

// DigestBytes fingerprints a byte string into the hex digest form store keys
// use. Convenience for callers keying artifacts off raw content.
func DigestBytes(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DigestStrings is DigestBytes over strings.
func DigestStrings(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
