package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dex"
)

// Stream property targets. The generator hits them exactly (up to rounding)
// rather than in expectation, so two seeds differ in which apps carry a
// property, never in how many do.
const (
	corpusShare = 0.10 // registry + hostile apps, hostile-spin included
	spinShare   = 0.02 // hostile-spin alone: p99 falls inside the budget-bound group
	repeatShare = 0.10 // exact-content resubmissions of a generated app
	reuseShare  = 0.30 // of fresh generated apps: ships a library an earlier app shipped
	taintShare  = 0.50 // of generated apps: IMEI-derived input, expected to leak
)

// Generated-app shape ranges. Crossings and native instructions per crossing
// are log-uniform, the Java filler uniform.
const (
	maxCrossings   = 512
	minNativeInsns = 4
	maxNativeInsns = 4096
	maxFillerInsns = 20000
	imeiLen        = 15 // len(dvm.DeviceIMEI); the clean variant uses the same constant
	sinkHost       = "collect.ndbench.example"
)

// Lib is one generated native library: Java_work(x) runs Iters rounds of
// x = (x + i) ^ Key and returns x, so a tainted argument taints the result.
type Lib struct {
	ID    int
	Iters int
	Key   uint32
}

// Name is the library's file name (not part of any content digest).
func (l *Lib) Name() string { return fmt.Sprintf("libgen%d.so", l.ID) }

// Source is the library's assembly. Equal (Iters, Key) give equal code. The
// loop tests its counter with CMP because the assembler drops the S bit of a
// data-processing instruction with an immediate operand (SUBS ..., #1
// assembles as SUB).
func (l *Lib) Source() string {
	return fmt.Sprintf(`
; int work(JNIEnv*, jclass, int x)
Java_work:
	MOV R0, R2
	LDR R1, =%d
work_loop:
	ADD R0, R0, R1
	EOR R0, R0, #%d
	SUB R1, R1, #1
	CMP R1, #0
	BNE work_loop
	BX LR
`, l.Iters, l.Key)
}

// apply is the host model of one Java_work call.
func (l *Lib) apply(x uint32) uint32 {
	for i := uint32(l.Iters); i > 0; i-- {
		x = (x + i) ^ l.Key
	}
	return x
}

// GenApp is one generated app: a Java source (IMEI length) or constant,
// a Java filler loop, Crossings JNI calls into the library, and a
// Network.send of the result.
type GenApp struct {
	Class     string
	Crossings int
	Filler    int // Java filler-loop iterations (4 Dalvik instructions each)
	Tainted   bool
	Lib       *Lib
}

// payload is the exact string the app hands to Network.send.
func (g *GenApp) payload() string {
	x := uint32(imeiLen)
	for i := 0; i < g.Crossings; i++ {
		x = g.Lib.apply(x)
	}
	return fmt.Sprint(int32(x))
}

// Expect is the outcome a generated app must reach under NDroid.
func (g *GenApp) Expect() Expect {
	if g.Tainted {
		return Expect{Verdict: core.VerdictLeak, Leak: g.payload()}
	}
	return Expect{Verdict: core.VerdictClean}
}

// work estimates guest instructions, used only to stratify repeat picks.
func (g *GenApp) work() int {
	return g.Crossings*(4*g.Lib.Iters+4) + 4*g.Filler
}

func (g *GenApp) install(sys *core.System) error {
	prog, err := sys.VM.LoadNativeLib(g.Lib.Name(), g.Lib.Source())
	if err != nil {
		return err
	}
	cb := dex.NewClass(g.Class)
	cb.NativeMethod("work", "II", dex.AccStatic, 0)
	// v0 = x, v1 = loop counter, v2 = filler accumulator / host, v3 = string.
	mb := cb.Method("run", "V", dex.AccStatic, 4)
	if g.Tainted {
		mb.InvokeStatic("Landroid/telephony/TelephonyManager;", "getDeviceId", "L").
			MoveResult(3).
			InvokeVirtual("Ljava/lang/String;", "length", "I", 3).
			MoveResult(0)
	} else {
		mb.Const(0, imeiLen)
	}
	mb.Const(1, int32(g.Filler)).
		Const(2, 0).
		Label("filler").
		IfZ(1, dex.Le, "cross_init").
		Bin(dex.Add, 2, 2, 1).
		BinLit(dex.Sub, 1, 1, 1).
		Goto("filler").
		Label("cross_init").
		Const(1, int32(g.Crossings)).
		Label("cross").
		IfZ(1, dex.Le, "sink").
		InvokeStatic(g.Class, "work", "II", 0).
		MoveResult(0).
		BinLit(dex.Sub, 1, 1, 1).
		Goto("cross").
		Label("sink").
		InvokeStatic("Ljava/lang/String;", "valueOf", "LI", 0).
		MoveResult(3).
		ConstString(2, sinkHost).
		InvokeStatic("Landroid/net/Network;", "send", "VLL", 2, 3).
		ReturnVoid().
		Done()
	sys.VM.RegisterClass(cb.Build())
	return sys.VM.BindNative(g.Class, "work", prog, "Java_work")
}

// renamed is the same app under another class name: new dex, same library.
func (g *GenApp) renamed(class string) *GenApp {
	v := *g
	v.Class = class
	return &v
}

// Spec adapts the app to the analyzer's submission shape.
func (g *GenApp) Spec(name string) core.AppSpec {
	return core.AppSpec{Name: name, EntryClass: g.Class, EntryMethod: "run", Install: g.install}
}

// Expect is what a submission's result must show: its final verdict, and for
// a generated leak the exact payload that reached Network.send.
type Expect struct {
	Verdict core.Verdict
	Leak    string // "" = payload not checked
}

// Item is one submission of a stream.
type Item struct {
	Name   string
	Spec   core.AppSpec
	Expect Expect
	Gen    *GenApp // nil for corpus apps
	Corpus string  // registry name for corpus apps
	// Content names the item's installed content: two items with equal
	// Content have equal digests.
	Content string

	Repeat   bool // generated app whose exact content an earlier item carried
	LibReuse bool // fresh generated app whose library an earlier item shipped
}

func genItem(app *GenApp, name string) Item {
	return Item{Name: name, Spec: app.Spec(name), Expect: app.Expect(), Gen: app, Content: app.Class}
}

// Family groups items for reporting and sampling: gen-tainted, gen-clean,
// or corpus:<name>.
func (it *Item) Family() string {
	switch {
	case it.Gen == nil:
		return "corpus:" + it.Corpus
	case it.Gen.Tainted:
		return "gen-tainted"
	default:
		return "gen-clean"
	}
}

// NewStream generates size submissions from seed. Every property lands on
// an exact count, and generated apps are stratified over their shape ranges
// with a seed-independent pairing of strata, so the total guest work of a
// stream barely moves between seeds; the seed picks library keys (and so
// every digest), jitter inside each stratum, which app of each pair of work
// neighbours is tainted, the corpus rotation, and the order.
func NewStream(seed int64, size int) []Item {
	rng := rand.New(rand.NewSource(seed))
	nCorpus := size / 10
	nSpin := size / 50
	nRepeat := size / 10
	nGen := size - nCorpus - nRepeat
	if nGen < 2 {
		nGen = 2
	}
	nLib := int(math.Round(float64(nGen) * (1 - reuseShare)))
	if nLib < 1 {
		nLib = 1
	}
	nReuse := nGen - nLib

	libs := make([]*Lib, nLib)
	for l := range libs {
		k := logUniform(stratum(l, nLib, rng), minNativeInsns, maxNativeInsns)
		iters := (k - 2) / 4
		if iters < 1 {
			iters = 1
		}
		libs[l] = &Lib{ID: l, Iters: iters, Key: uint32(1 + rng.Intn(255))}
	}

	permN, permF := fixedPerm(nGen, 1), fixedPerm(nGen, 2)
	gens := make([]*GenApp, nGen)
	for g := range gens {
		lib := libs[g%nLib]
		if g >= nLib {
			lib = libs[int(stratum(g-nLib, nReuse, rng)*float64(nLib))]
		}
		gens[g] = &GenApp{
			Class:     fmt.Sprintf("Lcom/ndbench/s%x/G%d;", uint64(seed), g),
			Crossings: logUniform(stratum(permN[g], nGen, rng), 1, maxCrossings),
			Filler:    int(stratum(permF[g], nGen, rng)*maxFillerInsns) / 4,
			Lib:       lib,
		}
	}
	// Taint one app of each pair of neighbours in the work ranking, so the
	// traced (expensive) half is spread evenly over light and heavy apps.
	byWork := append([]*GenApp(nil), gens...)
	sort.SliceStable(byWork, func(i, j int) bool { return byWork[i].work() < byWork[j].work() })
	for i := 0; i < nGen; i += 2 {
		j := min(i+rng.Intn(2), nGen-1)
		byWork[j].Tainted = true
	}

	items := make([]Item, 0, nGen+nRepeat+nCorpus)
	for g, app := range gens {
		items = append(items, genItem(app, fmt.Sprintf("gen-%d", g)))
	}
	// Repeats are spread evenly over the work ranking too.
	for r := 0; r < nRepeat; r++ {
		app := byWork[int(stratum(r, nRepeat, rng)*float64(nGen))]
		items = append(items, genItem(app, fmt.Sprintf("rep-%d", r)))
	}
	corpus := corpusApps()
	offset := rng.Intn(len(corpus.others))
	for c := 0; c < nCorpus-nSpin; c++ {
		app := corpus.others[(offset+c)%len(corpus.others)]
		items = append(items, corpusItem(app, fmt.Sprintf("%s#%d", app.Name, c)))
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	items = spaceApart(items, nSpin, corpus, seed, rng)

	seenApp := make(map[*GenApp]bool)
	seenLib := make(map[*Lib]bool)
	for i := range items {
		it := &items[i]
		if it.Gen == nil {
			continue
		}
		it.Repeat = seenApp[it.Gen]
		it.LibReuse = !it.Repeat && seenLib[it.Gen.Lib]
		seenApp[it.Gen] = true
		seenLib[it.Gen.Lib] = true
	}
	return items
}

// minApart is the least distance between two submissions of one content
// digest. The two closed-loop clients work on neighbouring items, so nearer
// twins would often be in flight together and the service would run them
// once (dedup), skipping work by an amount that depends on the seed.
const minApart = 8

// spaceApart inserts nSpin hostile-spin items at evenly spaced positions
// (jittered inside each gap), so no two clients spend their 70 ms budgets
// side by side more often on one seed than another, and then moves every
// other item that repeats content submitted less than minApart positions
// earlier to the next position where it does not.
func spaceApart(items []Item, nSpin int, corpus corpusSet, seed int64, rng *rand.Rand) []Item {
	total := len(items) + nSpin
	gap := float64(total) / float64(max(nSpin, 1))
	spinAt := make(map[int]bool, nSpin)
	for j := 0; j < nSpin; j++ {
		spinAt[int(gap*(float64(j)+0.25+0.5*rng.Float64()))] = true
	}
	out := make([]Item, 0, total)
	for pos, rest := 0, items; pos < total; pos++ {
		if spinAt[pos] || len(rest) == 0 {
			out = append(out, spinItem(corpus.spin, seed, pos))
			continue
		}
		out = append(out, rest[0])
		rest = rest[1:]
	}
	near := func(i int) bool {
		for k := max(0, i-minApart+1); k < i; k++ {
			if out[k].Content == out[i].Content {
				return true
			}
		}
		return false
	}
	spin := func(i int) bool { return out[i].Corpus == corpus.spin.Name }
	for i := range out {
		for j := i + 1; j < len(out) && !spin(i) && near(i); j++ {
			if !spin(j) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func corpusItem(app *apps.App, name string) Item {
	spec := app.Spec()
	spec.Name = name
	return Item{Name: name, Spec: spec, Expect: Expect{Verdict: app.ExpectedVerdict()}, Corpus: app.Name, Content: app.Name}
}

// spinItem is hostile-spin plus an inert marker class of its own, so every
// spin of a stream is new content: a store replays none of them, and p99
// falls inside the budget-bound group with a store as without one.
func spinItem(app *apps.App, seed int64, pos int) Item {
	it := corpusItem(app, fmt.Sprintf("%s#%d", app.Name, pos))
	marker := fmt.Sprintf("Lcom/ndbench/s%x/Spin%d;", uint64(seed), pos)
	install := it.Spec.Install
	it.Spec.Install = func(sys *core.System) error {
		sys.VM.RegisterClass(dex.NewClass(marker).Build())
		return install(sys)
	}
	it.Content = marker
	return it
}

type corpusSet struct {
	spin   *apps.App
	others []*apps.App
}

// corpusApps splits the registry and hostile corpus into hostile-spin, which
// the stream holds at its own share, and everything else.
func corpusApps() corpusSet {
	var cs corpusSet
	for _, a := range apps.AllApps() {
		if a.Name == "hostile-spin" {
			cs.spin = a
		} else {
			cs.others = append(cs.others, a)
		}
	}
	return cs
}

// stratum draws a point inside the i-th of n equal strata of [0,1).
func stratum(i, n int, rng *rand.Rand) float64 {
	return (float64(i) + rng.Float64()) / float64(n)
}

// logUniform maps u in [0,1) log-uniformly onto [lo, hi].
func logUniform(u float64, lo, hi int) int {
	v := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fixedPerm is a permutation that depends only on n and salt, never on the
// stream seed: it pairs the strata of different properties identically on
// every seed.
func fixedPerm(n int, salt int64) []int {
	return rand.New(rand.NewSource(salt)).Perm(n)
}

// Shares reports the measured share of each stream property, next to
// StreamTargets.
func Shares(items []Item) map[string]float64 {
	var corpus, spin, gen, repeat, tainted, fresh, reuse int
	for _, it := range items {
		switch {
		case it.Gen == nil:
			corpus++
			if it.Corpus == "hostile-spin" {
				spin++
			}
		default:
			gen++
			if it.Gen.Tainted {
				tainted++
			}
			if it.Repeat {
				repeat++
			} else {
				fresh++
				if it.LibReuse {
					reuse++
				}
			}
		}
	}
	share := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"corpus":        share(corpus, len(items)),
		"hostile_spin":  share(spin, len(items)),
		"gen_repeat":    share(repeat, len(items)),
		"gen_tainted":   share(tainted, gen),
		"gen_lib_reuse": share(reuse, fresh),
	}
}

// StreamTargets are the shares NewStream aims for (see Shares).
var StreamTargets = map[string]float64{
	"corpus":        corpusShare,
	"hostile_spin":  spinShare,
	"gen_repeat":    repeatShare,
	"gen_tainted":   taintShare,
	"gen_lib_reuse": reuseShare,
}

// formatShares renders Shares against StreamTargets in a stable order.
func formatShares(items []Item) string {
	got := Shares(items)
	var b strings.Builder
	for _, k := range sortedKeys(got) {
		fmt.Fprintf(&b, " %s=%.3f(target %.2f)", k, got[k], StreamTargets[k])
	}
	return strings.TrimSpace(b.String())
}
