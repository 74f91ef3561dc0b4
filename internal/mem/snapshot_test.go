package mem

import "testing"

// TestSnapshotCOWRestore exercises the copy-on-write cycle: baseline values
// survive attempt writes, Restore rewinds in O(dirty pages), and pages
// created after the snapshot unmap again.
func TestSnapshotCOWRestore(t *testing.T) {
	m := New()
	m.Write32(0x1000, 0x11111111)
	m.Write32(0x2000, 0x22222222)
	m.Snapshot()
	if !m.SnapshotActive() {
		t.Fatal("snapshot not active")
	}

	m.Write32(0x1000, 0xdeadbeef) // dirty an existing page
	m.Write32(0x9000, 0x99999999) // create a new page
	if got := m.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages = %d, want 2", got)
	}
	if got := m.Read32(0x2000); got != 0x22222222 {
		t.Fatalf("untouched page = %#x, want 0x22222222", got)
	}

	n := m.Restore()
	if n != 2 {
		t.Fatalf("Restore reset %d pages, want 2", n)
	}
	if got := m.Read32(0x1000); got != 0x11111111 {
		t.Fatalf("restored page = %#x, want 0x11111111", got)
	}
	if m.Mapped(0x9000) {
		t.Fatal("page created after snapshot still mapped after restore")
	}
	if got := m.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages after restore = %d, want 0", got)
	}

	// The baseline must survive a second dirty/restore round.
	m.Write32(0x1000, 0xcafef00d)
	m.Restore()
	if got := m.Read32(0x1000); got != 0x11111111 {
		t.Fatalf("second restore = %#x, want 0x11111111", got)
	}
}

// TestSnapshotMemoInvalidation is the stale-memo regression (ISSUE 6): the
// one-entry page memo caches a raw page pointer; reading through it, then
// restoring (which swaps the page array), then reading again must observe the
// restored bytes, never the discarded copy.
func TestSnapshotMemoInvalidation(t *testing.T) {
	m := New()
	m.Write32(0x1000, 0xaaaaaaaa)
	m.Snapshot()

	// Dirty the page (COW gives it a private array), then prime the memo on
	// the private copy with a read.
	m.Write32(0x1000, 0xbbbbbbbb)
	if got := m.Read32(0x1004); got != 0 {
		t.Fatalf("pre-restore read = %#x, want 0", got)
	}

	m.Restore()
	// This read goes through the memo path; a stale memo would still point at
	// the discarded private array holding 0xbbbbbbbb.
	if got := m.Read32(0x1000); got != 0xaaaaaaaa {
		t.Fatalf("memo served stale page after restore: got %#x, want 0xaaaaaaaa", got)
	}

	// Same hazard on the write path: the write must COW the restored shared
	// page, not scribble on the baseline through a stale memo.
	m.Write32(0x1000, 0xcccccccc)
	m.Restore()
	if got := m.Read32(0x1000); got != 0xaaaaaaaa {
		t.Fatalf("baseline corrupted through stale write memo: got %#x", got)
	}
}

// TestSnapshotWriteNotifyOnRestore checks that restoring dirty pages fires
// the write-notify path (the CPU's cache-invalidation signal) for exactly the
// dirtied pages.
func TestSnapshotWriteNotifyOnRestore(t *testing.T) {
	m := New()
	m.Write32(0x1000, 1)
	m.Write32(0x2000, 2)
	// Subscribe before the snapshot, as the CPU does at boot (Restore
	// truncates the notify list back to its snapshot-time length).
	var notified []uint32
	m.AddWriteNotify(func(addr, n uint32) { notified = append(notified, addr>>12) })
	m.Snapshot()

	m.Write32(0x1000, 3)
	notified = nil

	m.Restore()
	if len(notified) != 1 || notified[0] != 1 {
		t.Fatalf("restore notified pages %v, want [1]", notified)
	}
}

// TestSnapshotWindowUnshares checks that Window (the frame-slot fast path)
// copies shared pages before handing out a writable alias.
func TestSnapshotWindowUnshares(t *testing.T) {
	m := New()
	m.Write32(0x1000, 0x12345678)
	m.Snapshot()

	w := m.Window(0x1000, 8)
	if w == nil {
		t.Fatal("window not available")
	}
	w[0] = 0xff
	m.Restore()
	if got := m.Read32(0x1000); got != 0x12345678 {
		t.Fatalf("window write reached the baseline: got %#x", got)
	}
}

// TestSnapshotRegionRestore checks region metadata rewinds with the pages.
func TestSnapshotRegionRestore(t *testing.T) {
	m := New()
	if err := m.AddRegion(Region{Start: 0x1000, End: 0x2000, Name: "boot"}); err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	if err := m.AddRegion(Region{Start: 0x8000, End: 0x9000, Name: "attempt"}); err != nil {
		t.Fatal(err)
	}
	m.Restore()
	rs := m.Regions()
	if len(rs) != 1 || rs[0].Name != "boot" {
		t.Fatalf("regions after restore = %v, want just boot", rs)
	}
}

// TestSnapshotRebase checks a second Snapshot moves the baseline forward.
func TestSnapshotRebase(t *testing.T) {
	m := New()
	m.Write32(0x1000, 1)
	m.Snapshot()
	m.Write32(0x1000, 2)
	m.Snapshot() // new baseline: 2
	m.Write32(0x1000, 3)
	m.Restore()
	if got := m.Read32(0x1000); got != 2 {
		t.Fatalf("rebased restore = %d, want 2", got)
	}
}

// TestRecycledPagesCarryNoStaleBytes: Restore recycles the pages it takes
// out of the live map. A page created after the snapshot, restored and
// created again must read all zeros, and a recycled page reused as another
// page's private copy must hold that page's baseline.
func TestRecycledPagesCarryNoStaleBytes(t *testing.T) {
	m := New()
	m.Write32(0x2000, 0x22222222)
	m.Snapshot()

	junk := make([]byte, pageSize)
	for i := range junk {
		junk[i] = 0xff
	}
	m.WriteBytes(0x9000, junk) // created after the snapshot
	m.Restore()
	if len(m.free) != 1 {
		t.Fatalf("free list holds %d pages after restoring one, want 1", len(m.free))
	}
	m.Write8(0x9000, 1)
	got := m.ReadBytes(0x9000, pageSize)
	for i, b := range got[1:] {
		if b != 0 {
			t.Fatalf("recreated page byte %#x = %#x, want 0", 0x9001+i, b)
		}
	}

	m.Restore()
	m.Write8(0x2004, 7) // copy-on-write into the recycled page
	if got := m.Read32(0x2000); got != 0x22222222 {
		t.Fatalf("private copy from a recycled page = %#x, want the baseline 0x22222222", got)
	}
	if got := m.Read32(0x9000); got != 0 {
		t.Fatalf("restored-away page reads %#x, want 0", got)
	}
}

// TestFreeListCapped: an attempt that dirties more pages than freeCap leaves
// at most freeCap of them on the free list.
func TestFreeListCapped(t *testing.T) {
	m := New()
	for i := uint32(0); i < freeCap; i++ {
		m.Write32(i<<pageShift, i)
	}
	m.Snapshot()
	for i := uint32(0); i < 3*freeCap; i++ {
		m.Write32(i<<pageShift+4, 1) // dirties freeCap baseline pages, creates the rest
	}
	if n := m.Restore(); n != 3*freeCap {
		t.Fatalf("Restore reset %d pages, want %d", n, 3*freeCap)
	}
	if len(m.free) != freeCap {
		t.Fatalf("free list holds %d pages, want the cap %d", len(m.free), freeCap)
	}
	for i := uint32(0); i < freeCap; i++ {
		if got := m.Read32(i<<pageShift + 4); got != 0 {
			t.Fatalf("page %d word 1 = %d after restore, want 0", i, got)
		}
	}
}
