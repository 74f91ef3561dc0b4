package arm

import (
	"fmt"
	"strconv"
	"strings"
)

// Program is the output of the assembler: a relocated code+data image.
type Program struct {
	Base   uint32
	Code   []byte
	Labels map[string]uint32 // absolute; Thumb labels carry bit 0
}

// Size returns the image size in bytes.
func (p *Program) Size() uint32 { return uint32(len(p.Code)) }

// Label returns the absolute address of a label, with interworking bit for
// Thumb labels.
func (p *Program) Label(name string) (uint32, error) {
	v, ok := p.Labels[name]
	if !ok {
		return 0, fmt.Errorf("arm: unknown label %q", name)
	}
	return v, nil
}

// MustLabel is Label for known-good names (panics otherwise); used by test
// and fixture code.
func (p *Program) MustLabel(name string) uint32 {
	v, err := p.Label(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Assemble translates source into a Program based at base. Supported syntax:
//
//	; @ // comments         .arm / .thumb
//	label:                  .word expr[, expr...]
//	MNEMONIC operands       .byte n[, n...]    .half n[, n...]
//	                        .asciz "s"  .ascii "s"  .space N  .align [n]
//	                        .equ name, value
//
// extern maps external symbol names to absolute addresses (Thumb targets must
// carry bit 0). Mnemonics accept condition suffixes (MOVEQ, BNE, ...) and the
// S suffix (ADDS). The `LDR Rd, =expr` pseudo-instruction expands to
// MOVW+MOVT (ARM mode only).
func Assemble(source string, base uint32, extern map[string]uint32) (*Program, error) {
	a := &assembler{
		base:   base,
		syms:   map[string]symbol{},
		extern: extern,
	}
	lines := strings.Split(source, "\n")

	// Pass 1: layout.
	if err := a.layout(lines); err != nil {
		return nil, err
	}
	// Pass 2: encode.
	if err := a.emit(); err != nil {
		return nil, err
	}
	labels := make(map[string]uint32, len(a.syms))
	for name, s := range a.syms {
		v := s.value
		if s.thumbLabel {
			v |= 1
		}
		labels[name] = v
	}
	return &Program{Base: base, Code: a.out, Labels: labels}, nil
}

// MustAssemble is Assemble for fixture code that is known to be valid.
func MustAssemble(source string, base uint32, extern map[string]uint32) *Program {
	p, err := Assemble(source, base, extern)
	if err != nil {
		panic(err)
	}
	return p
}

type symbol struct {
	value      uint32
	thumbLabel bool
}

type stmt struct {
	lineNo int
	addr   uint32
	thumb  bool
	mnem   string   // uppercase mnemonic, or ".word" etc.
	ops    string   // raw operand text
	size   uint32   // bytes occupied
	data   []byte   // for data directives resolved at layout time
	defers []string // expressions resolved in pass 2 (.word operands)
}

type assembler struct {
	base   uint32
	pc     uint32
	thumb  bool
	syms   map[string]symbol
	extern map[string]uint32
	stmts  []stmt
	out    []byte
}

func (a *assembler) errf(lineNo int, format string, args ...interface{}) error {
	return fmt.Errorf("arm: line %d: %s", lineNo, fmt.Sprintf(format, args...))
}

func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ';', '@':
			return line[:i]
		case '/':
			if i+1 < len(line) && line[i+1] == '/' {
				return line[:i]
			}
		case '"': // skip string literals
			for i++; i < len(line) && line[i] != '"'; i++ {
			}
		}
	}
	return line
}

func (a *assembler) layout(lines []string) error {
	a.pc = a.base
	for ln, raw := range lines {
		lineNo := ln + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		// Labels (possibly several per line).
		for {
			idx := strings.Index(line, ":")
			if idx < 0 || strings.ContainsAny(line[:idx], " \t\",[#") {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !isIdent(name) {
				break
			}
			if _, dup := a.syms[name]; dup {
				return a.errf(lineNo, "duplicate label %q", name)
			}
			a.syms[name] = symbol{value: a.pc, thumbLabel: a.thumb}
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		mnem := strings.ToUpper(fields[0])
		ops := ""
		if len(fields) == 2 {
			ops = strings.TrimSpace(fields[1])
		}
		st := stmt{lineNo: lineNo, addr: a.pc, thumb: a.thumb, mnem: mnem, ops: ops}

		switch mnem {
		case ".ARM":
			a.align(2)
			a.thumb = false
			continue
		case ".THUMB":
			a.align(1)
			a.thumb = true
			continue
		case ".ALIGN":
			n := uint32(4)
			if ops != "" {
				v, err := a.number(ops)
				if err != nil {
					return a.errf(lineNo, "bad .align operand: %v", err)
				}
				n = v
			}
			if n == 0 || a.pc%n == 0 {
				continue
			}
			pad := n - a.pc%n
			st.mnem = ".space"
			st.size = pad
			st.data = make([]byte, pad)
		case ".EQU":
			parts := splitOperands(ops)
			if len(parts) != 2 {
				return a.errf(lineNo, ".equ needs name, value")
			}
			v, err := a.number(parts[1])
			if err != nil {
				return a.errf(lineNo, "bad .equ value: %v", err)
			}
			a.syms[parts[0]] = symbol{value: v}
			continue
		case ".WORD":
			parts := splitOperands(ops)
			st.size = uint32(4 * len(parts))
			st.defers = parts
		case ".HALF":
			parts := splitOperands(ops)
			st.size = uint32(2 * len(parts))
			st.defers = parts
		case ".BYTE":
			parts := splitOperands(ops)
			st.size = uint32(len(parts))
			st.defers = parts
		case ".ASCIZ", ".ASCII":
			s, err := strconv.Unquote(ops)
			if err != nil {
				return a.errf(lineNo, "bad string literal %s", ops)
			}
			st.data = []byte(s)
			if mnem == ".ASCIZ" {
				st.data = append(st.data, 0)
			}
			st.size = uint32(len(st.data))
		case ".SPACE":
			v, err := a.number(ops)
			if err != nil {
				return a.errf(lineNo, "bad .space size: %v", err)
			}
			st.size = v
			st.data = make([]byte, v)
		default:
			if strings.HasPrefix(mnem, ".") {
				return a.errf(lineNo, "unknown directive %s", mnem)
			}
			size, err := a.insnSize(mnem, ops, a.thumb)
			if err != nil {
				return a.errf(lineNo, "%v", err)
			}
			st.size = size
		}
		a.stmts = append(a.stmts, st)
		a.pc += st.size
	}
	return nil
}

func (a *assembler) align(n uint32) {
	if a.pc%n != 0 {
		pad := n - a.pc%n
		a.stmts = append(a.stmts, stmt{addr: a.pc, mnem: ".space", size: pad, data: make([]byte, pad)})
		a.pc += pad
	}
}

// insnSize determines encoded size during layout.
func (a *assembler) insnSize(mnem, ops string, thumb bool) (uint32, error) {
	base, _, _, err := splitMnemonic(mnem)
	if err != nil {
		return 0, err
	}
	if !thumb {
		if base == "LDR" && strings.Contains(ops, "=") {
			return 8, nil // MOVW + MOVT
		}
		if (base == "B" || base == "BL") && a.isExtern(ops) {
			// Out-of-module target: expand to a veneer
			// (MOVW IP / MOVT IP / BX|BLX IP).
			return 12, nil
		}
		return 4, nil
	}
	if base == "BL" {
		if a.isExtern(ops) {
			return 0, fmt.Errorf("thumb BL to external symbol %q unsupported (call from ARM mode)", ops)
		}
		return 4, nil
	}
	if base == "LDR" && strings.Contains(ops, "=") {
		return 0, fmt.Errorf("LDR= pseudo-instruction is ARM-mode only")
	}
	return 2, nil
}

// isExtern reports whether the branch operand names an external symbol
// (resolved through the extern table rather than a local label).
func (a *assembler) isExtern(ops string) bool {
	if a.extern == nil {
		return false
	}
	_, ok := a.extern[strings.TrimSpace(ops)]
	return ok
}

func (a *assembler) emit() error {
	total := a.pc - a.base
	a.out = make([]byte, total)
	for _, st := range a.stmts {
		off := st.addr - a.base
		switch {
		case st.data != nil:
			copy(a.out[off:], st.data)
		case st.mnem == ".WORD":
			for i, expr := range st.defers {
				v, err := a.eval(expr)
				if err != nil {
					return a.errf(st.lineNo, "%v", err)
				}
				putU32(a.out[off+uint32(4*i):], v)
			}
		case st.mnem == ".HALF":
			for i, expr := range st.defers {
				v, err := a.eval(expr)
				if err != nil {
					return a.errf(st.lineNo, "%v", err)
				}
				putU16(a.out[off+uint32(2*i):], uint16(v))
			}
		case st.mnem == ".BYTE":
			for i, expr := range st.defers {
				v, err := a.eval(expr)
				if err != nil {
					return a.errf(st.lineNo, "%v", err)
				}
				a.out[off+uint32(i)] = byte(v)
			}
		default:
			if err := a.emitInsn(st, off); err != nil {
				return err
			}
		}
	}
	return nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU16(b []byte, v uint16) {
	b[0], b[1] = byte(v), byte(v>>8)
}

func (a *assembler) emitInsn(st stmt, off uint32) error {
	insns, err := a.parseInsn(st)
	if err != nil {
		return a.errf(st.lineNo, "%v", err)
	}
	pos := off
	for _, insn := range insns {
		if st.thumb {
			hws, err := EncodeThumb(insn)
			if err != nil {
				return a.errf(st.lineNo, "%v", err)
			}
			for _, hw := range hws {
				putU16(a.out[pos:], hw)
				pos += 2
			}
		} else {
			w, err := Encode(insn)
			if err != nil {
				return a.errf(st.lineNo, "%v", err)
			}
			putU32(a.out[pos:], w)
			pos += 4
		}
	}
	if pos-off != st.size {
		return a.errf(st.lineNo, "internal: size mismatch (%d vs %d)", pos-off, st.size)
	}
	return nil
}

// eval resolves an expression: number, label, extern symbol, or sym+N / sym-N.
func (a *assembler) eval(expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if v, err := a.number(expr); err == nil {
		return v, nil
	}
	// sym+N / sym-N
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			baseV, err := a.eval(expr[:i])
			if err != nil {
				return 0, err
			}
			offV, err := a.number(expr[i+1:])
			if err != nil {
				return 0, err
			}
			if expr[i] == '+' {
				return baseV + offV, nil
			}
			return baseV - offV, nil
		}
	}
	if s, ok := a.syms[expr]; ok {
		v := s.value
		if s.thumbLabel {
			v |= 1
		}
		return v, nil
	}
	if a.extern != nil {
		if v, ok := a.extern[expr]; ok {
			return v, nil
		}
	}
	return 0, fmt.Errorf("undefined symbol %q", expr)
}

func (a *assembler) number(s string) (uint32, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("not a number: %q", s)
	}
	if neg {
		return uint32(-int32(v)), nil
	}
	return uint32(v), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// splitOperands splits on commas not inside braces, brackets, or quotes.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '{', '[':
			if !inStr {
				depth++
			}
		case '}', ']':
			if !inStr {
				depth--
			}
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}
