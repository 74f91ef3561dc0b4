// Package mem provides the emulated 32-bit guest physical memory used by the
// CPU emulator, the Dalvik VM (whose stacks and heap live inside it), the
// kernel (whose task structures are serialized into it for the OS-level view
// reconstructor), and the libc arena.
//
// The memory is sparse and paged; reads of unmapped pages return zeroes and
// writes allocate pages on demand, which matches how the rest of the system
// uses it (regions are reserved via the Region registry for bookkeeping, not
// for protection).
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse paged 32-bit address space. The zero value is not
// usable; construct with New.
type Memory struct {
	pages   map[uint32]*[pageSize]byte
	regions []Region

	// lastPN/lastPg memoize the most recently touched page, exploiting the
	// locality of guest code: straight-line loads/stores land on the same
	// page almost every time, turning the map lookup into two compares.
	// lastShared mirrors shared[lastPN] so the write path can tell a memoized
	// copy-on-write page apart from a private one without a map lookup; the
	// memo is reset by Restore (a hit would otherwise alias a page that was
	// just swapped back to its snapshot baseline).
	lastPN     uint32
	lastPg     *[pageSize]byte
	lastShared bool

	// notify holds the write observers; see AddWriteNotify.
	notify []func(addr, n uint32)

	// Copy-on-write snapshot state (see Snapshot). shared marks pages whose
	// backing array is owned by the snapshot baseline: the first write after
	// Snapshot copies the page and logs the baseline pointer in dirty, so
	// Restore is O(pages written since the snapshot), not O(address space).
	// A nil baseline in dirty marks a page created after the snapshot.
	snapActive  bool
	shared      map[uint32]bool
	dirty       map[uint32]*[pageSize]byte
	snapRegions []Region
	snapNotify  int

	// free holds pages Restore took back (private copies and pages created
	// after the snapshot), at most freeCap of them, for unshare and page
	// creation to reuse instead of allocating.
	free []*[pageSize]byte
}

// freeCap bounds the recycled-page list, so one attempt that dirties many
// pages cannot pin their memory for the life of the Memory.
const freeCap = 32

// Region describes a named address range (a module mapping, a stack, a heap).
// Regions are advisory metadata consumed by the kernel's memory-map tables
// and, through them, by the OS-level view reconstructor.
type Region struct {
	Name  string
	Start uint32
	End   uint32 // exclusive
	Perms string // e.g. "r-x", "rw-"
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{
		pages:  make(map[uint32]*[pageSize]byte),
		lastPN: ^uint32(0), // page numbers fit in 20 bits; ^0 never matches
	}
}

// AddWriteNotify registers fn to be called with the address and byte length
// of every store, after the bytes land. The notified range [addr, addr+n)
// never crosses a page boundary: wide and bulk writes notify once per page
// chunk. The CPU's block translation cache uses this for sub-page
// invalidation of translated code (self-modifying code, reloaded library
// regions). Observers must be cheap: they run on every guest write.
func (m *Memory) AddWriteNotify(fn func(addr, n uint32)) {
	m.notify = append(m.notify, fn)
}

func (m *Memory) notifyWrite(addr, n uint32) {
	for _, fn := range m.notify {
		fn(addr, n)
	}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	if pn == m.lastPN && !(create && m.lastShared) {
		return m.lastPg
	}
	p, ok := m.pages[pn]
	if !ok {
		if !create {
			return nil
		}
		p = m.fresh(nil)
		m.pages[pn] = p
		if m.snapActive {
			if _, logged := m.dirty[pn]; !logged {
				m.dirty[pn] = nil // created after the snapshot
			}
		}
		m.lastPN, m.lastPg, m.lastShared = pn, p, false
		return p
	}
	shared := m.snapActive && m.shared[pn]
	if create && shared {
		p = m.unshare(pn, p)
		shared = false
	}
	m.lastPN, m.lastPg, m.lastShared = pn, p, shared
	return p
}

// unshare performs the copy-on-first-write: the snapshot keeps the baseline
// array, the live map gets a private copy, and the baseline pointer is logged
// so Restore can swap it back.
func (m *Memory) unshare(pn uint32, base *[pageSize]byte) *[pageSize]byte {
	p := m.fresh(base)
	m.pages[pn] = p
	delete(m.shared, pn)
	if _, logged := m.dirty[pn]; !logged {
		m.dirty[pn] = base
	}
	return p
}

var zeroPage [pageSize]byte

// fresh returns a page holding a copy of src, or zeros when src is nil,
// taking it from the free list when that has one.
func (m *Memory) fresh(src *[pageSize]byte) *[pageSize]byte {
	n := len(m.free)
	if n == 0 {
		p := new([pageSize]byte)
		if src != nil {
			*p = *src
		}
		return p
	}
	p := m.free[n-1]
	m.free = m.free[:n-1]
	if src == nil {
		src = &zeroPage
	}
	*p = *src
	return p
}

// Mapped reports whether the page containing addr has been materialized.
// The CPU's fetch path uses it to tell a genuine all-zeroes instruction on a
// mapped page apart from a wild branch into unmapped space (both read as 0).
func (m *Memory) Mapped(addr uint32) bool {
	return m.page(addr, false) != nil
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.page(addr, true)[addr&pageMask] = v
	if len(m.notify) != 0 {
		m.notifyWrite(addr, 1)
	}
}

// Read16 returns the little-endian halfword at addr.
func (m *Memory) Read16(addr uint32) uint16 {
	if addr&pageMask <= pageSize-2 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint16(p[addr&pageMask:])
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores a little-endian halfword at addr.
func (m *Memory) Write16(addr uint32, v uint16) {
	if addr&pageMask <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr, true)[addr&pageMask:], v)
		if len(m.notify) != 0 {
			m.notifyWrite(addr, 2)
		}
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 returns the little-endian word at addr.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[addr&pageMask:])
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 stores a little-endian word at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr, true)[addr&pageMask:], v)
		if len(m.notify) != 0 {
			m.notifyWrite(addr, 4)
		}
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// Read64 returns the little-endian doubleword at addr.
func (m *Memory) Read64(addr uint32) uint64 {
	return uint64(m.Read32(addr)) | uint64(m.Read32(addr+4))<<32
}

// Write64 stores a little-endian doubleword at addr.
func (m *Memory) Write64(addr uint32, v uint64) {
	m.Write32(addr, uint32(v))
	m.Write32(addr+4, uint32(v>>32))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	out := make([]byte, n)
	for i := uint32(0); i < n; {
		off := (addr + i) & pageMask
		chunk := uint32(pageSize) - off
		if chunk > n-i {
			chunk = n - i
		}
		p := m.page(addr+i, false)
		if p != nil {
			copy(out[i:i+chunk], p[off:off+chunk])
		}
		i += chunk
	}
	return out
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i := 0; i < len(b); {
		off := (addr + uint32(i)) & pageMask
		chunk := pageSize - int(off)
		if chunk > len(b)-i {
			chunk = len(b) - i
		}
		p := m.page(addr+uint32(i), true)
		copy(p[off:off+uint32(chunk)], b[i:i+chunk])
		if len(m.notify) != 0 {
			m.notifyWrite(addr+uint32(i), uint32(chunk))
		}
		i += chunk
	}
}

// Window returns a direct byte slice aliasing [addr, addr+n) when the range
// fits inside one page, allocating the page on demand; nil otherwise. The
// window stays coherent with Read*/Write* (both touch the same backing
// array), but stores through it DO NOT fire write-notify observers. Callers
// must guarantee the range can never hold translated guest code — the DVM
// uses windows for interpreter stack frames, which live in a dedicated
// non-executable region.
func (m *Memory) Window(addr, n uint32) []byte {
	off := addr & pageMask
	if off+n > pageSize {
		return nil
	}
	p := m.page(addr, true)
	return p[off : off+n : off+n]
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes (0 means a 64 KiB safety cap).
func (m *Memory) ReadCString(addr uint32, max int) string {
	if max <= 0 {
		max = 64 << 10
	}
	var out []byte
	for i := 0; i < max; i++ {
		b := m.Read8(addr + uint32(i))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// WriteCString stores s followed by a NUL byte at addr and returns the number
// of bytes written including the terminator.
func (m *Memory) WriteCString(addr uint32, s string) uint32 {
	m.WriteBytes(addr, []byte(s))
	m.Write8(addr+uint32(len(s)), 0)
	return uint32(len(s)) + 1
}

// AddRegion registers a named address range. Overlaps are allowed (the kernel
// maintains per-task maps with stricter rules); ranges are kept sorted.
func (m *Memory) AddRegion(r Region) error {
	if r.End <= r.Start {
		return fmt.Errorf("mem: region %q end 0x%x <= start 0x%x", r.Name, r.End, r.Start)
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
	return nil
}

// Regions returns a copy of the registered regions, sorted by start address.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// RegionAt returns the first region containing addr.
func (m *Memory) RegionAt(addr uint32) (Region, bool) {
	for _, r := range m.regions {
		if addr >= r.Start && addr < r.End {
			return r, true
		}
	}
	return Region{}, false
}

// MappedPages reports how many pages are currently allocated.
func (m *Memory) MappedPages() int { return len(m.pages) }

// Snapshot captures the current contents copy-on-write: every mapped page is
// marked shared (O(mapped pages), no copying), and subsequent writes copy the
// page they touch before mutating it. Restore swaps the copied pages back —
// O(pages dirtied since the snapshot). Calling Snapshot again moves the
// baseline forward to the current state, releasing the previous baseline.
func (m *Memory) Snapshot() {
	if m.shared == nil {
		m.shared = make(map[uint32]bool, len(m.pages))
	}
	for pn := range m.pages {
		m.shared[pn] = true
	}
	m.dirty = make(map[uint32]*[pageSize]byte)
	m.snapRegions = append([]Region(nil), m.regions...)
	m.snapNotify = len(m.notify)
	m.snapActive = true
	m.lastPN, m.lastPg, m.lastShared = ^uint32(0), nil, false
}

// SnapshotActive reports whether a copy-on-write baseline is in place.
func (m *Memory) SnapshotActive() bool { return m.snapActive }

// DirtyPages reports how many pages have been written (or created) since the
// last Snapshot.
func (m *Memory) DirtyPages() int { return len(m.dirty) }

// Restore rewinds the contents to the last Snapshot and returns the number of
// pages that were reset. Only dirtied pages are touched: copied pages swap
// back to their shared baseline arrays, pages created after the snapshot are
// unmapped, and each reset page fires the write-notify observers (the page's
// bytes changed as far as any observer — translation caches, shadow state —
// is concerned). The region table and the observer list are rewound to their
// snapshot state, and the page memo is invalidated so a stale pointer to a
// swapped page can never be served. The snapshot stays in place for the next
// Restore.
//
// The pages taken out of the live map go to the free list for reuse, so no
// slice into one may outlive this call: the memo is reset here, and the only
// other aliases, the Windows of dvm frames pushed during the attempt, are
// released with those frames by dvm.VM.Restore before anything runs.
func (m *Memory) Restore() int {
	if !m.snapActive {
		return 0
	}
	n := len(m.dirty)
	for pn, base := range m.dirty {
		if p := m.pages[pn]; p != nil && len(m.free) < freeCap {
			m.free = append(m.free, p)
		}
		if base != nil {
			m.pages[pn] = base
			m.shared[pn] = true
		} else {
			delete(m.pages, pn)
		}
	}
	// Invalidate the memo before notifying: observers may read through us.
	m.lastPN, m.lastPg, m.lastShared = ^uint32(0), nil, false
	m.regions = append(m.regions[:0], m.snapRegions...)
	m.notify = m.notify[:m.snapNotify]
	for pn := range m.dirty {
		m.notifyWrite(pn<<pageShift, pageSize)
	}
	clear(m.dirty)
	return n
}
