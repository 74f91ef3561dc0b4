package libc

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arm"
	"repro/internal/kernel"
)

// --- FILE* layer ---------------------------------------------------------

// openFile allocates a guest FILE handle wrapping fd.
func (l *Libc) openFile(fd int32) uint32 {
	fp := l.nextFP
	l.nextFP += 16
	l.files[fp] = fd
	// Mirror the fd into guest memory so the handle looks like a struct.
	l.Mem.Write32(fp, uint32(fd))
	return fp
}

// FilePath reports the path behind a guest FILE*, for leak reports.
func (l *Libc) FilePath(fp uint32) (string, bool) {
	fd, ok := l.files[fp]
	if !ok {
		return "", false
	}
	f, _, ok := l.Kern.FDFile(l.Task, fd)
	if !ok {
		return "", false
	}
	return f.Path, true
}

func modeToFlags(mode string) uint32 {
	switch {
	case strings.HasPrefix(mode, "r+"):
		return kernel.ORdwr
	case strings.HasPrefix(mode, "r"):
		return kernel.ORdonly
	case strings.HasPrefix(mode, "w"):
		return kernel.OWronly | kernel.OCreat | kernel.OTrunc
	case strings.HasPrefix(mode, "a"):
		return kernel.OWronly | kernel.OCreat | kernel.OAppend
	}
	return kernel.ORdonly
}

func implFopen(l *Libc, c *arm.CPU) {
	path := l.Mem.ReadCString(c.R[0], 0)
	mode := l.Mem.ReadCString(c.R[1], 0)
	fd, err := l.Kern.Open(l.Task, path, modeToFlags(mode))
	if err != nil {
		c.R[0] = 0
		return
	}
	c.R[0] = l.openFile(fd)
}

func implFdopen(l *Libc, c *arm.CPU) {
	c.R[0] = l.openFile(int32(c.R[0]))
}

func implFclose(l *Libc, c *arm.CPU) {
	fp := c.R[0]
	if fd, ok := l.files[fp]; ok {
		l.Kern.FDClose(l.Task, fd)
		delete(l.files, fp)
		c.R[0] = 0
		return
	}
	c.R[0] = 0xffffffff
}

// writeFP appends data at the FILE's current offset; returns bytes written.
func (l *Libc) writeFP(fp uint32, data []byte) uint32 {
	fd, ok := l.files[fp]
	if !ok {
		return 0
	}
	f, off, ok := l.Kern.FDFile(l.Task, fd)
	if !ok {
		return 0
	}
	f.WriteAt(off, data)
	l.Kern.FDAdvance(l.Task, fd, uint32(len(data)))
	return uint32(len(data))
}

// readFP reads up to n bytes from the FILE's current offset.
func (l *Libc) readFP(fp uint32, n uint32) []byte {
	fd, ok := l.files[fp]
	if !ok {
		return nil
	}
	f, off, ok := l.Kern.FDFile(l.Task, fd)
	if !ok {
		return nil
	}
	end := off + n
	if end > uint32(len(f.Data)) {
		end = uint32(len(f.Data))
	}
	if off >= end {
		return nil
	}
	out := append([]byte(nil), f.Data[off:end]...)
	l.Kern.FDAdvance(l.Task, fd, uint32(len(out)))
	return out
}

func implFwrite(l *Libc, c *arm.CPU) {
	ptr, size, nmemb, fp := c.R[0], c.R[1], c.R[2], c.R[3]
	data := l.Mem.ReadBytes(ptr, size*nmemb)
	if l.writeFP(fp, data) == size*nmemb {
		c.R[0] = nmemb
	} else {
		c.R[0] = 0
	}
}

func implFread(l *Libc, c *arm.CPU) {
	ptr, size, nmemb, fp := c.R[0], c.R[1], c.R[2], c.R[3]
	data := l.readFP(fp, size*nmemb)
	l.Mem.WriteBytes(ptr, data)
	if size == 0 {
		c.R[0] = 0
		return
	}
	c.R[0] = uint32(len(data)) / size
}

func implFputc(l *Libc, c *arm.CPU) {
	ch := byte(c.R[0])
	if l.writeFP(c.R[1], []byte{ch}) == 1 {
		c.R[0] = uint32(ch)
	} else {
		c.R[0] = 0xffffffff
	}
}

func implFputs(l *Libc, c *arm.CPU) {
	s := l.Mem.ReadCString(c.R[0], 0)
	if l.writeFP(c.R[1], []byte(s)) == uint32(len(s)) {
		c.R[0] = uint32(len(s))
	} else {
		c.R[0] = 0xffffffff
	}
}

func implGetc(l *Libc, c *arm.CPU) {
	data := l.readFP(c.R[0], 1)
	if len(data) == 0 {
		c.R[0] = 0xffffffff // EOF
		return
	}
	c.R[0] = uint32(data[0])
}

func implFgets(l *Libc, c *arm.CPU) {
	buf, n, fp := c.R[0], c.R[1], c.R[2]
	if n == 0 {
		c.R[0] = 0
		return
	}
	var line []byte
	for uint32(len(line)) < n-1 {
		b := l.readFP(fp, 1)
		if len(b) == 0 {
			break
		}
		line = append(line, b[0])
		if b[0] == '\n' {
			break
		}
	}
	if len(line) == 0 {
		c.R[0] = 0
		return
	}
	l.Mem.WriteBytes(buf, line)
	l.Mem.Write8(buf+uint32(len(line)), 0)
	c.R[0] = buf
}

// --- printf family -------------------------------------------------------

// FormatArg describes one consumed varargs argument, so the NDroid model can
// propagate taint from exactly the bytes each directive read.
type FormatArg struct {
	Verb    byte   // 'd','u','x','c','s','f','p'
	Word    uint32 // first raw word consumed
	Word2   uint32 // second word for %f (doubles)
	StrAddr uint32 // source address for %s
	StrLen  uint32 // bytes read for %s
	Text    string // rendered text

	// Source of the consumed word(s), so taint models can look up the
	// matching shadow state: ArgPos >= 0 names an AAPCS argument position;
	// SrcAddr != 0 names the guest address a va_list/jvalue word came from.
	ArgPos  int
	SrcAddr uint32
}

// argSource yields successive varargs words along with their provenance.
type argSource interface {
	next() (val uint32, pos int, addr uint32)
}

type aapcsArgs struct {
	c *arm.CPU
	i int
}

func (a *aapcsArgs) next() (uint32, int, uint32) {
	v := a.c.Arg(a.i)
	pos := a.i
	var addr uint32
	if a.i >= 4 {
		addr = a.c.R[13] + uint32(a.i-4)*4
	}
	a.i++
	return v, pos, addr
}

type vaArgs struct {
	l   *Libc
	ptr uint32
}

func (a *vaArgs) next() (uint32, int, uint32) {
	v := a.l.Mem.Read32(a.ptr)
	addr := a.ptr
	a.ptr += 4
	return v, -1, addr
}

// formatGuest renders a printf-style format string against args.
func (l *Libc) formatGuest(format string, args argSource) (string, []FormatArg) {
	var out strings.Builder
	var consumed []FormatArg
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			out.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		// Skip flags, width, precision, and length modifiers.
		for i < len(format) && strings.IndexByte("-+ 0#.123456789lh", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		var fa FormatArg
		fa.Verb = verb
		fa.ArgPos = -1
		take := func() uint32 {
			v, pos, addr := args.next()
			if fa.Word == 0 && fa.Text == "" && fa.SrcAddr == 0 && fa.ArgPos == -1 {
				fa.ArgPos, fa.SrcAddr = pos, addr
			}
			return v
		}
		switch verb {
		case '%':
			out.WriteByte('%')
			continue
		case 'd', 'i':
			fa.Word = take()
			fa.Text = fmt.Sprintf("%d", int32(fa.Word))
		case 'u':
			fa.Word = take()
			fa.Text = fmt.Sprintf("%d", fa.Word)
		case 'x', 'X':
			fa.Word = take()
			fa.Text = fmt.Sprintf("%x", fa.Word)
		case 'p':
			fa.Word = take()
			fa.Text = fmt.Sprintf("0x%x", fa.Word)
		case 'c':
			fa.Word = take()
			fa.Text = string(rune(fa.Word & 0xff))
		case 's':
			fa.Word = take()
			fa.StrAddr = fa.Word
			s := l.Mem.ReadCString(fa.Word, 0)
			fa.StrLen = uint32(len(s))
			fa.Text = s
		case 'f', 'g', 'e':
			fa.Word = take()
			fa.Word2 = take()
			bits := uint64(fa.Word) | uint64(fa.Word2)<<32
			fa.Text = fmt.Sprintf("%g", math.Float64frombits(bits))
		default:
			out.WriteByte('%')
			out.WriteByte(verb)
			continue
		}
		out.WriteString(fa.Text)
		consumed = append(consumed, fa)
	}
	return out.String(), consumed
}

// FormatAAPCS renders the format string at fmtAddr using AAPCS varargs
// starting at argument index firstArg. Exported for the syslib taint models.
func (l *Libc) FormatAAPCS(c *arm.CPU, fmtAddr uint32, firstArg int) (string, []FormatArg) {
	format := l.Mem.ReadCString(fmtAddr, 0)
	return l.formatGuest(format, &aapcsArgs{c: c, i: firstArg})
}

// FormatVA renders the format string at fmtAddr using a va_list pointer.
func (l *Libc) FormatVA(fmtAddr, va uint32) (string, []FormatArg) {
	format := l.Mem.ReadCString(fmtAddr, 0)
	return l.formatGuest(format, &vaArgs{l: l, ptr: va})
}

func implSprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatAAPCS(c, c.R[1], 2)
	l.Mem.WriteCString(c.R[0], s)
	c.R[0] = uint32(len(s))
}

func implSnprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatAAPCS(c, c.R[2], 3)
	n := c.R[1]
	if n == 0 {
		c.R[0] = uint32(len(s))
		return
	}
	if uint32(len(s)) >= n {
		s = s[:n-1]
	}
	l.Mem.WriteCString(c.R[0], s)
	c.R[0] = uint32(len(s))
}

func implVsprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatVA(c.R[1], c.R[2])
	l.Mem.WriteCString(c.R[0], s)
	c.R[0] = uint32(len(s))
}

func implVsnprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatVA(c.R[2], c.R[3])
	n := c.R[1]
	if n > 0 && uint32(len(s)) >= n {
		s = s[:n-1]
	}
	l.Mem.WriteCString(c.R[0], s)
	c.R[0] = uint32(len(s))
}

func implFprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatAAPCS(c, c.R[1], 2)
	c.R[0] = l.writeFP(c.R[0], []byte(s))
}

func implVfprintf(l *Libc, c *arm.CPU) {
	s, _ := l.FormatVA(c.R[1], c.R[2])
	c.R[0] = l.writeFP(c.R[0], []byte(s))
}

func implSscanf(l *Libc, c *arm.CPU) {
	input := l.Mem.ReadCString(c.R[0], 0)
	format := l.Mem.ReadCString(c.R[1], 0)
	args := &aapcsArgs{c: c, i: 2}
	nextPtr := func() uint32 { v, _, _ := args.next(); return v }
	matched := uint32(0)
	pos := 0
	skipSpace := func() {
		for pos < len(input) && (input[pos] == ' ' || input[pos] == '\t' || input[pos] == '\n') {
			pos++
		}
	}
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch == ' ' {
			skipSpace()
			continue
		}
		if ch != '%' {
			if pos < len(input) && input[pos] == ch {
				pos++
			}
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 'd', 'x':
			skipSpace()
			base := 10
			if format[i] == 'x' {
				base = 16
			}
			v, digits, consumed := parseIntPrefix(input[pos:], base)
			if digits == 0 {
				c.R[0] = matched
				return
			}
			pos += consumed
			l.Mem.Write32(nextPtr(), uint32(int32(v)))
			matched++
		case 's':
			skipSpace()
			start := pos
			for pos < len(input) && input[pos] != ' ' && input[pos] != '\t' && input[pos] != '\n' {
				pos++
			}
			if pos == start {
				c.R[0] = matched
				return
			}
			l.Mem.WriteCString(nextPtr(), input[start:pos])
			matched++
		}
	}
	c.R[0] = matched
}
