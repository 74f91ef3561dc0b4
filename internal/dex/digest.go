package dex

import (
	"encoding/binary"
	"io"
)

// digestWriter streams length-free but unambiguous encodings of the class
// structure into a hash: strings are NUL-terminated, integers fixed-width.
type digestWriter struct {
	h   io.Writer
	buf [8]byte
}

func (d *digestWriter) str(s string) {
	io.WriteString(d.h, s)
	d.h.Write([]byte{0})
}

func (d *digestWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

// WriteDigest streams the class's full structural content — name, hierarchy,
// field layout, and every method's signature, flags, bytecode, and try
// table — into h. Two classes with equal digests are structurally identical
// as far as loading, validation and execution care.
//
// Native binding addresses (Method.NativeAddr) are deliberately included:
// they capture which library label each native method resolves to, which
// changes execution even when the bytecode does not.
func (c *Class) WriteDigest(h io.Writer) {
	d := &digestWriter{h: h}
	d.str(c.Name)
	d.str(c.Super)
	for _, f := range c.InstanceFields {
		d.str(f.Name)
		d.i64(int64(f.Index))
	}
	for _, f := range c.StaticFields {
		d.str(f.Name)
		d.i64(int64(f.Index))
	}
	for _, m := range c.Methods {
		d.str(m.Name)
		d.str(m.Shorty)
		d.i64(int64(m.Flags))
		d.i64(int64(m.NumRegs))
		d.i64(int64(m.NativeAddr))
		for i := range m.Insns {
			in := &m.Insns[i]
			d.i64(int64(in.Op))
			d.i64(int64(in.A))
			d.i64(int64(in.B))
			d.i64(int64(in.C))
			d.i64(in.Lit)
			d.str(in.Str)
			d.i64(int64(in.Cmp))
			d.i64(int64(in.Ar))
			d.i64(int64(in.Tgt))
			for _, a := range in.Args {
				d.i64(int64(a))
			}
			d.str(in.ClassName)
			d.str(in.MemberName)
			d.str(in.Shorty)
		}
		for _, t := range m.Tries {
			d.i64(int64(t.Start))
			d.i64(int64(t.End))
			d.i64(int64(t.Handler))
			d.str(t.Type)
		}
	}
}
