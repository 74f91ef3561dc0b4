package kernel

import (
	"slices"
	"sort"

	"repro/internal/mem"
)

// File is an in-memory file.
type File struct {
	Path string
	Data []byte
}

// FS is the in-memory filesystem. Paths are flat strings ("/sdcard/CONTACTS").
type FS struct {
	files map[string]*File
}

// NewFS returns an empty filesystem.
func NewFS() *FS { return &FS{files: make(map[string]*File)} }

func (fs *FS) create(path string) *File {
	f := &File{Path: path}
	fs.files[path] = f
	return f
}

// Create makes (or truncates) a file and returns it.
func (fs *FS) Create(path string) *File {
	f := fs.create(path)
	return f
}

// WriteFile creates path with the given contents.
func (fs *FS) WriteFile(path string, data []byte) {
	f := fs.create(path)
	f.Data = append([]byte(nil), data...)
}

// ReadFile returns the contents of path.
func (fs *FS) ReadFile(path string) ([]byte, bool) {
	f, ok := fs.files[path]
	if !ok {
		return nil, false
	}
	return f.Data, true
}

// Exists reports whether path exists.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// Paths lists all file paths, sorted.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ReadAt copies up to n bytes from offset off into guest memory at dst,
// returning the number of bytes copied.
func (f *File) ReadAt(off, n uint32, m *mem.Memory, dst uint32) uint32 {
	if off >= uint32(len(f.Data)) {
		return 0
	}
	end := off + n
	if end > uint32(len(f.Data)) {
		end = uint32(len(f.Data))
	}
	m.WriteBytes(dst, f.Data[off:end])
	return end - off
}

// WriteAt stores data at offset off, growing the file as needed. Capacity
// grows geometrically, so a run of appends is linear, not quadratic. The
// extension is zeroed before the copy: capacity kept by Kernel.Restore (or
// left by an earlier, longer file) holds stale bytes, and a write past EOF
// must leave zeros in the gap [old length, off).
func (f *File) WriteAt(off uint32, data []byte) {
	end := int(off) + len(data)
	if n := len(f.Data); end > n {
		f.Data = slices.Grow(f.Data, end-n)[:end]
		clear(f.Data[n:])
	}
	copy(f.Data[off:], data)
}
