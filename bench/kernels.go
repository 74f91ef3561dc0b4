package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dex"
)

// kernelLib holds every native kernel routine. The loop count arrives in R2.
const kernelLib = `
; int mips(JNIEnv*, jclass, int n) — integer ALU loop
Java_mips:
	MOV R0, #0
	MOV R1, #7
k_mips:
	CMP R2, #0
	BEQ k_mips_done
	ADD R0, R0, R1
	EOR R0, R0, R2
	SUB R2, R2, #1
	B k_mips
k_mips_done:
	BX LR

; int msflops(JNIEnv*, jclass, int n) — acc = (acc + 1) * 3 / 3
Java_msflops:
	MOV R0, #3
	SITOF R1, R0
	MOV R0, #1
	SITOF R3, R0
	MOV R0, #0
	SITOF R0, R0
k_fs:
	CMP R2, #0
	BEQ k_fs_done
	FADDS R0, R0, R3
	FMULS R12, R0, R1
	FDIVS R0, R12, R1
	SUB R2, R2, #1
	B k_fs
k_fs_done:
	FTOSI R0, R0
	BX LR

; int mdflops(JNIEnv*, jclass, int n) — acc = (acc + 2) * 2 / 2 on reg pairs
Java_mdflops:
	PUSH {R4, R5, R6, R7, LR}
	MOV R0, #2
	SITOD R4, R0
	MOV R0, #0
	SITOD R6, R0
k_fd:
	CMP R2, #0
	BEQ k_fd_done
	FADDD R6, R6, R4
	FMULD R6, R6, R4
	FDIVD R6, R6, R4
	SUB R2, R2, #1
	B k_fd
k_fd_done:
	DTOSI R0, R6
	POP {R4, R5, R6, R7, PC}

; int mallocs(JNIEnv*, jclass, int n) — malloc/free pairs
Java_mallocs:
	PUSH {R4, R5, LR}
	MOV R4, R2
k_ma:
	CMP R4, #0
	BEQ k_ma_done
	MOV R0, #64
	BL malloc
	MOV R5, R0
	BL free
	SUB R4, R4, #1
	B k_ma
k_ma_done:
	MOV R0, #0
	POP {R4, R5, PC}

; int memread(JNIEnv*, jclass, int n) — LDR sweep over a buffer
Java_memread:
	PUSH {R4, LR}
	MOV R0, #0
	LDR R3, =k_buf
k_mr:
	CMP R2, #0
	BEQ k_mr_done
	AND R4, R2, #0xff
	LSL R4, R4, #2
	LDR R12, [R3, R4]
	ADD R0, R0, R12
	SUB R2, R2, #1
	B k_mr
k_mr_done:
	POP {R4, PC}

; int memwrite(JNIEnv*, jclass, int n) — STR sweep over a buffer
Java_memwrite:
	PUSH {R4, LR}
	LDR R3, =k_buf
k_mw:
	CMP R2, #0
	BEQ k_mw_done
	AND R4, R2, #0xff
	LSL R4, R4, #2
	STR R2, [R3, R4]
	SUB R2, R2, #1
	B k_mw
k_mw_done:
	MOV R0, #0
	POP {R4, PC}

; int diskwrite(JNIEnv*, jclass, int n) — fwrite 1 KiB chunks
Java_diskwrite:
	PUSH {R4, R5, LR}
	MOV R4, R2
	LDR R0, =k_path
	LDR R1, =k_mode_w
	BL fopen
	MOV R5, R0
k_dw:
	CMP R4, #0
	BEQ k_dw_done
	LDR R0, =k_buf
	MOV R1, #1
	MOV R2, #1024
	MOV R3, R5
	BL fwrite
	SUB R4, R4, #1
	B k_dw
k_dw_done:
	MOV R0, R5
	BL fclose
	MOV R0, #0
	POP {R4, R5, PC}

; int diskread(JNIEnv*, jclass, int n) — fread 1 KiB chunks
Java_diskread:
	PUSH {R4, R5, LR}
	MOV R4, R2
	LDR R0, =k_path
	LDR R1, =k_mode_r
	BL fopen
	MOV R5, R0
k_dr:
	CMP R4, #0
	BEQ k_dr_done
	LDR R0, =k_buf
	MOV R1, #1
	MOV R2, #1024
	MOV R3, R5
	BL fread
	SUB R4, R4, #1
	B k_dr
k_dr_done:
	MOV R0, R5
	BL fclose
	MOV R0, #0
	POP {R4, R5, PC}

; int bump(JNIEnv*, jclass, int x) — the JNI round trip
Java_bump:
	ADD R0, R2, #1
	BX LR

k_path:
	.asciz "/data/ndbench.dat"
k_mode_w:
	.asciz "w"
k_mode_r:
	.asciz "r"
	.align 4
k_buf:
	.space 2048
`

const (
	kernelNativeClass = "Lcom/ndbench/k/Native;"
	kernelJavaClass   = "Lcom/ndbench/k/Java;"
	kernelDataFile    = "/data/ndbench.dat"
	kernelWarmup      = 3 // unmeasured invocations per (cell, mode) during set-up
)

// kernelRow is one Fig. 10 row (or the JNI round trip). Ops is the loop
// count per invocation at Scale 1, sized so a vanilla invocation takes
// about a millisecond.
type kernelRow struct {
	name    string
	ops     int
	routine string // native routine; "" for a Java row
	calls   int    // modeled libc calls per op (the syslib rows)
	locals  int    // Java rows: work() locals; the count arrives in v[locals]
	body    func(mb *dex.MethodBuilder, n int)
	compute bool // pure ALU/FP/memory row (arm.ns_per_insn, dvm.ns_per_insn)
}

func (r kernelRow) java() bool { return r.routine == "" }

var kernelRows = []kernelRow{
	{name: "Native MIPS", ops: 60000, routine: "mips", compute: true},
	{name: "Java MIPS", ops: 40000, locals: 2, compute: true, body: func(mb *dex.MethodBuilder, n int) {
		mb.Const(0, 0).
			Label("loop").
			IfZ(n, dex.Le, "done").
			Bin(dex.Add, 0, 0, n).
			Bin(dex.Xor, 0, 0, n).
			BinLit(dex.Sub, n, n, 1).
			Goto("loop").
			Label("done").
			Return(0)
	}},
	{name: "Native MSFLOPS", ops: 40000, routine: "msflops", compute: true},
	{name: "Java MSFLOPS", ops: 30000, locals: 2, compute: true, body: func(mb *dex.MethodBuilder, n int) {
		mb.Const(0, 0).
			IntToFloat(0, 0).
			Const(1, 3).
			IntToFloat(1, 1).
			Label("loop").
			IfZ(n, dex.Le, "done").
			BinFloat(dex.Add, 0, 0, 1).
			BinFloat(dex.Mul, 0, 0, 1).
			BinFloat(dex.Div, 0, 0, 1).
			BinLit(dex.Sub, n, n, 1).
			Goto("loop").
			Label("done").
			FloatToInt(0, 0).
			Return(0)
	}},
	{name: "Native MDFLOPS", ops: 40000, routine: "mdflops", compute: true},
	{name: "Java MDFLOPS", ops: 30000, locals: 5, compute: true, body: func(mb *dex.MethodBuilder, n int) {
		mb.Const(0, 0).
			IntToDouble(0, 0).
			Const(3, 2).
			IntToDouble(3, 3).
			Label("loop").
			IfZ(n, dex.Le, "done").
			BinDouble(dex.Add, 0, 0, 3).
			BinDouble(dex.Mul, 0, 0, 3).
			BinDouble(dex.Div, 0, 0, 3).
			BinLit(dex.Sub, n, n, 1).
			Goto("loop").
			Label("done").
			DoubleToInt(2, 0).
			Return(2)
	}},
	{name: "Native MALLOCS", ops: 4000, routine: "mallocs", calls: 2},
	{name: "Native Memory Read", ops: 60000, routine: "memread", compute: true},
	{name: "Java Memory Read", ops: 40000, locals: 4, compute: true, body: func(mb *dex.MethodBuilder, n int) {
		mb.Const(0, 256).
			NewArray(1, 0, "I").
			Const(0, 0).
			Label("loop").
			IfZ(n, dex.Le, "done").
			BinLit(dex.And, 3, n, 255).
			Aget(3, 1, 3).
			Bin(dex.Add, 0, 0, 3).
			BinLit(dex.Sub, n, n, 1).
			Goto("loop").
			Label("done").
			Return(0)
	}},
	{name: "Native Memory Write", ops: 60000, routine: "memwrite", compute: true},
	{name: "Java Memory Write", ops: 40000, locals: 4, compute: true, body: func(mb *dex.MethodBuilder, n int) {
		mb.Const(0, 256).
			NewArray(1, 0, "I").
			Label("loop").
			IfZ(n, dex.Le, "done").
			BinLit(dex.And, 3, n, 255).
			Aput(n, 1, 3).
			BinLit(dex.Sub, n, n, 1).
			Goto("loop").
			Label("done").
			Return(0)
	}},
	{name: "Native Disk Read", ops: 2000, routine: "diskread", calls: 1},
	{name: "Native Disk Write", ops: 200, routine: "diskwrite", calls: 1},
	{name: "JNI Round Trip", ops: 2000, routine: "bump"},
}

// loadCount puts the loop count in v0. The tainted variant derives it from
// the IMEI's length, so it has the same value but carries the IMEI taint.
func loadCount(mb *dex.MethodBuilder, tainted bool, ops int) {
	if !tainted {
		mb.Const(0, int32(ops))
		return
	}
	mb.InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
		MoveResult(1).
		InvokeVirtual("Ljava/lang/String;", "length", "I", 1).
		MoveResult(0).
		BinLit(dex.Add, 0, 0, int32(ops-imeiLen))
}

// finish joins the count into the result (v1), sends it out in the tainted
// variant, and returns it.
func finish(mb *dex.MethodBuilder, tainted bool) {
	mb.Bin(dex.Add, 1, 1, 0)
	if tainted {
		mb.InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 1).
			MoveResult(2).
			ConstString(3, sinkHost).
			InvokeStatic("Landroid/net/Network;", "send", "VLL", 3, 2)
	}
	mb.Return(1).Done()
}

// install loads one cell's app: run()I computes the count, calls the row's
// kernel once (or, for the round trip, ops times), and returns the result.
func (r kernelRow) install(sys *core.System, tainted bool, ops int) (string, error) {
	if r.java() {
		cb := dex.NewClass(kernelJavaClass)
		mb := cb.Method("work", "II", dex.AccStatic, r.locals)
		r.body(mb, r.locals)
		mb.Done()
		run := cb.Method("run", "I", dex.AccStatic, 4)
		loadCount(run, tainted, ops)
		run.InvokeStatic(kernelJavaClass, "work", "II", 0).MoveResult(1)
		finish(run, tainted)
		sys.VM.RegisterClass(cb.Build())
		return kernelJavaClass, nil
	}
	prog, err := sys.VM.LoadNativeLib("libndbench.so", kernelLib)
	if err != nil {
		return "", err
	}
	if r.calls > 0 {
		sys.Kern.FS.WriteFile(kernelDataFile, make([]byte, 1024*ops+1024))
	}
	cb := dex.NewClass(kernelNativeClass)
	cb.NativeMethod("work", "II", dex.AccStatic, 0)
	run := cb.Method("run", "I", dex.AccStatic, 4)
	loadCount(run, tainted, ops)
	if r.routine == "bump" {
		// v1 = x, v2 = remaining crossings; x starts at the count.
		run.Move(1, 0).
			Const(2, int32(ops)).
			Label("loop").
			IfZ(2, dex.Le, "done").
			InvokeStatic(kernelNativeClass, "work", "II", 1).
			MoveResult(1).
			BinLit(dex.Sub, 2, 2, 1).
			Goto("loop").
			Label("done")
	} else {
		run.InvokeStatic(kernelNativeClass, "work", "II", 0).MoveResult(1)
	}
	finish(run, tainted)
	sys.VM.RegisterClass(cb.Build())
	return kernelNativeClass, sys.VM.BindNative(kernelNativeClass, "work", prog, "Java_"+r.routine)
}

// kcounters are the System counters a kernel invocation moves.
type kcounters struct {
	java, native, crossings, fused, fuseDeopts, trans, deopts uint64
	blockHits, blockMisses, fast, slow, flips, traced         uint64
}

func (a kcounters) sub(b kcounters) kcounters {
	return kcounters{a.java - b.java, a.native - b.native, a.crossings - b.crossings, a.fused - b.fused,
		a.fuseDeopts - b.fuseDeopts, a.trans - b.trans, a.deopts - b.deopts, a.blockHits - b.blockHits,
		a.blockMisses - b.blockMisses, a.fast - b.fast, a.slow - b.slow, a.flips - b.flips, a.traced - b.traced}
}

func (a kcounters) add(b kcounters) kcounters {
	return kcounters{a.java + b.java, a.native + b.native, a.crossings + b.crossings, a.fused + b.fused,
		a.fuseDeopts + b.fuseDeopts, a.trans + b.trans, a.deopts + b.deopts, a.blockHits + b.blockHits,
		a.blockMisses + b.blockMisses, a.fast + b.fast, a.slow + b.slow, a.flips + b.flips, a.traced + b.traced}
}

// kmode is one cell under one analysis mode: its own System, steady-state.
type kmode struct {
	mode  core.Mode
	sys   *core.System
	an    *core.Analyzer
	class string

	times []float64 // ns per measured invocation, this phase
	sum   kcounters // counter deltas over measured invocations, this phase
}

func (m *kmode) counters() kcounters {
	c := kcounters{
		java: m.sys.VM.JavaInsnCount, native: m.sys.CPU.InsnCount, crossings: m.sys.VM.JNICrossings,
		fused: m.sys.VM.JavaFusedCalls, fuseDeopts: m.sys.VM.JavaFuseDeopts,
		trans: m.sys.VM.JavaTransMethods, deopts: m.sys.VM.JavaDeopts,
		blockHits: m.sys.CPU.BlockHits, blockMisses: m.sys.CPU.BlockMisses,
		fast: m.sys.CPU.GateFastBlocks, slow: m.sys.CPU.GateSlowBlocks, flips: m.sys.CPU.GateFlips,
	}
	if m.an.Tracer != nil {
		c.traced = m.an.Tracer.Traced
	}
	return c
}

// kcell is one row in one variant, under vanilla and NDroid.
type kcell struct {
	row     kernelRow
	tainted bool
	ops     int
	modes   [2]*kmode // vanilla, NDroid
	ret     *rowReturn
}

// rowReturn is the value every run of a row must return: both variants,
// both modes, every invocation. The first successful run sets it.
type rowReturn struct {
	v   uint64
	set bool
}

func (c *kcell) name() string {
	if c.tainted {
		return c.row.name + " (tainted)"
	}
	return c.row.name + " (clean)"
}

type kernels struct {
	cfg   Config
	gate  *Gate
	cells []*kcell
}

func newKernels(cfg Config, gate *Gate) *kernels { return &kernels{cfg: cfg, gate: gate} }

func (k *kernels) close() { k.cells = nil }

// setup builds every (cell, mode) System, installs its app, attaches the
// analyzer, and warms it up. The seed jitters each row's count by up to
// ±0.5%, which changes every return value but barely the work, and orders the
// cells.
func (k *kernels) setup() error {
	rng := rand.New(rand.NewSource(k.cfg.Seed))
	k.cells = nil
	for _, row := range kernelRows {
		ops := int(float64(row.ops/k.cfg.Scale) * (0.995 + 0.01*rng.Float64()))
		if ops < 2 {
			ops = 2
		}
		ret := &rowReturn{}
		for _, tainted := range []bool{false, true} {
			c := &kcell{row: row, tainted: tainted, ops: ops, ret: ret}
			for i, mode := range []core.Mode{core.ModeVanilla, core.ModeNDroid} {
				sys, err := core.NewSystem()
				if err != nil {
					return err
				}
				class, err := row.install(sys, tainted, ops)
				if err != nil {
					return fmt.Errorf("%s: %w", c.name(), err)
				}
				c.modes[i] = &kmode{mode: mode, sys: sys, an: core.NewAnalyzer(sys, mode), class: class}
			}
			k.cells = append(k.cells, c)
		}
	}
	rng.Shuffle(len(k.cells), func(i, j int) { k.cells[i], k.cells[j] = k.cells[j], k.cells[i] })
	for _, c := range k.cells {
		for _, m := range c.modes {
			for i := 0; i < kernelWarmup; i++ {
				k.invoke(c, m, false)
			}
		}
	}
	return nil
}

// invoke runs one cell once under one mode and checks it: no fault, the
// row's return value, and an IMEI leak exactly when NDroid runs the tainted
// variant. Timing and counters are recorded when measure is set.
func (k *kernels) invoke(c *kcell, m *kmode, measure bool) (start, end time.Time) {
	before := m.counters()
	start = time.Now()
	ret, _, thrown, err := m.sys.VM.InvokeByName(m.class, "run", nil, nil)
	end = time.Now()
	if measure {
		m.times = append(m.times, float64(end.Sub(start)))
		m.sum = m.sum.add(m.counters().sub(before))
	}
	leak := len(m.an.Leaks) > 0
	want := c.tainted && m.mode == core.ModeNDroid
	if !c.ret.set && err == nil {
		c.ret.v, c.ret.set = ret, true
	}
	k.gate.Check(err == nil && thrown == nil && ret == c.ret.v && leak == want, func() string {
		return fmt.Sprintf("%s under %s: err=%v thrown=%t ret=%d want %d leak=%t want %t",
			c.name(), m.mode, err, thrown != nil, ret, c.ret.v, leak, want)
	})
	// Steady state: drop what the previous invocation left behind.
	m.an.Leaks = m.an.Leaks[:0]
	m.sys.Kern.Net.Log = m.sys.Kern.Net.Log[:0]
	return start, end
}

// phase runs whole rounds (every cell once under each mode, alternating
// which mode goes first) until d has passed.
func (k *kernels) phase(d time.Duration, tr *Tracer) (phaseResult, error) {
	for _, c := range k.cells {
		for _, m := range c.modes {
			m.times, m.sum = nil, kcounters{}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rounds := 0
	var rss []float64
	for {
		resetPeakRSS()
		for _, c := range k.cells {
			for i := range c.modes {
				m := c.modes[(i+rounds)%2]
				s, e := k.invoke(c, m, true)
				tr.add("kernel.invoke", 0, 0, s, e)
			}
		}
		rss = append(rss, peakRSSMB())
		rounds++
		el := time.Since(start)
		if el+el/time.Duration(rounds)/2 >= d {
			break
		}
	}
	wall := time.Since(start)
	tr.laneWall(0, wall)
	runtime.ReadMemStats(&ms1)
	res := k.result(rounds, wall, &ms0, &ms1, tr)
	res.endToEnd = append(res.endToEnd, mean("rss_peak_mb", "MB", rss))
	return res, nil
}

func (k *kernels) result(rounds int, wall time.Duration, ms0, ms1 *runtime.MemStats, tr *Tracer) phaseResult {
	var (
		ndRate, allMinsn, ndMinsn, vanMinsn, overhead []float64
		pooled                                        []float64
		javaNs, armNs, syslibNs                       []float64
		tracedNs, tracedInsns                         float64
		jniNs                                         float64
		total                                         kcounters
		invocations                                   int
		fast, slow                                    uint64
	)
	var table strings.Builder
	phase := "untraced"
	if tr != nil {
		phase = "traced"
	}
	fmt.Fprintf(&table, "kernels %s phase: %d rounds in %.2fs\n  %-32s %12s %12s %9s\n", phase, rounds, wall.Seconds(),
		"cell", "vanilla ms", "ndroid ms", "overhead")
	for _, c := range k.cells {
		var med [2]float64
		for i, m := range c.modes {
			n := len(m.times)
			med[i] = summary("", "", append([]float64(nil), m.times...)).Value
			insns := ratio(float64(m.sum.java+m.sum.native), float64(n))
			minsn := ratio(insns, med[i]) * 1e3 // insns per ns -> Minsn/s
			allMinsn = append(allMinsn, minsn)
			total = total.add(m.sum)
			invocations += n
			if m.mode == core.ModeNDroid {
				ndRate = append(ndRate, ratio(1e9, med[i]))
				ndMinsn = append(ndMinsn, minsn)
				pooled = append(pooled, m.times...)
				fast += m.sum.fast
				slow += m.sum.slow
			} else {
				vanMinsn = append(vanMinsn, minsn)
			}
		}
		van, nd := c.modes[0], c.modes[1]
		overhead = append(overhead, ratio(med[1], med[0]))
		perInv := func(m *kmode, v uint64) float64 { return ratio(float64(v), float64(len(m.times))) }
		switch {
		case !c.tainted && c.row.compute && c.row.java():
			javaNs = append(javaNs, ratio(med[0], perInv(van, van.sum.java)))
		case !c.tainted && c.row.compute:
			armNs = append(armNs, ratio(med[0], perInv(van, van.sum.native)))
		case !c.tainted && c.row.routine == "bump":
			jniNs = ratio(med[1], perInv(nd, nd.sum.crossings))
		}
		if c.row.calls > 0 {
			syslibNs = append(syslibNs, ratio(med[1], float64(c.ops*c.row.calls)))
		}
		if t := perInv(nd, nd.sum.traced); c.tainted && t > 0 {
			tracedNs += med[1] - med[0]
			tracedInsns += t
		}
		fmt.Fprintf(&table, "  %-32s %12.4f %12.4f %8.2fx\n", c.name(), med[0]/1e6, med[1]/1e6, ratio(med[1], med[0]))
	}
	toMs := make([]float64, len(pooled))
	for i, ns := range pooled {
		toMs[i] = ns / 1e6
	}
	p50 := summary("latency_p50_ms", "ms", toMs)
	p99 := single("latency_p99_ms", "ms", quantile(toMs, 0.99))
	p99.N = len(toMs)
	tp := geomean(ndRate)
	res := phaseResult{
		throughput: tp,
		endToEnd: []Metric{
			single("throughput_per_s", "1/s", tp), p50, p99,
			single("guest_minsn_per_s", "Minsn/s", geomean(allMinsn)),
		},
		notes: []string{table.String()},
	}
	if tr == nil {
		return res
	}
	inv := float64(invocations)
	res.layer = map[string]float64{
		"dvm.java_insns_per_app":         ratio(float64(total.java), inv),
		"dvm.ns_per_insn":                geomean(javaNs),
		"dvm.translated_methods_per_app": ratio(float64(total.trans), inv),
		"dvm.deopts_per_app":             ratio(float64(total.deopts), inv),
		"jni.crossings_per_app":          ratio(float64(total.crossings), inv),
		"jni.fused_share":                ratio(float64(total.fused), float64(total.crossings)),
		"jni.fuse_deopts_per_app":        ratio(float64(total.fuseDeopts), inv),
		"jni.ns_per_crossing":            jniNs,
		"arm.native_insns_per_app":       ratio(float64(total.native), inv),
		"arm.ns_per_insn":                geomean(armNs),
		"arm.block_hit_ratio":            ratio(float64(total.blockHits), float64(total.blockHits+total.blockMisses)),
		"arm.gate_fast_share":            ratio(float64(fast), float64(fast+slow)),
		"arm.gate_flips_per_app":         ratio(float64(total.flips), inv),
		"tracer.traced_insns_per_app":    ratio(float64(total.traced), inv),
		"tracer.ns_per_traced_insn":      ratio(tracedNs, tracedInsns),
		"syslib.ns_per_call":             geomean(syslibNs),
		"go.alloc_mb_per_app":            ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), inv),
		"go.gc_per_kapp":                 ratio(1000*float64(ms1.NumGC-ms0.NumGC), inv),
		"go.gc_pause_us_per_app":         ratio(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3, inv),
		"fig10.ndroid_overhead_x":        geomean(overhead),
		"fig10.ndroid_minsn_per_s":       geomean(ndMinsn),
		"fig10.vanilla_minsn_per_s":      geomean(vanMinsn),
	}
	return res
}
