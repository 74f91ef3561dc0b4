// Command marketstudy reproduces the paper's Section III large-scale study:
// it generates the synthetic 227,911-app market, runs the static analyzer
// over every app, and prints the Type I/II/III statistics, the Fig. 2
// category distribution, and the library-popularity inventory.
//
// It then runs the dynamic corpus — the Table I evaluation apps plus the
// hostile robustness apps — through the analysis service under full fault
// containment: each of -workers service workers serves attempts from a fork
// server that rewinds to the post-boot state per attempt, watchdog
// instruction budgets bound runaway guests, and native-side analysis faults
// degrade one mode down (NDroid -> TaintDroid -> vanilla) with the chain
// recorded. A hostile app
// ends as a per-app Fault or Timeout row, never as a crash of the study.
//
// Usage:
//
//	marketstudy                # full 227,911-app market + dynamic corpus
//	marketstudy -scale 10      # 1/10th-size market, same proportions
//	marketstudy -dynamic=false # static study only
//	marketstudy -budget 1000000 # tighter watchdog budget (instructions)
//	marketstudy -cache DIR     # persist the service's artifacts and verdicts;
//	                           # a second run replays every verdict
//	marketstudy -surface       # print the per-app JNI surface map table:
//	                           # discovered natives, registration events,
//	                           # dedup-throttled call counts, truncation flags
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/corpus"
)

func main() {
	scale := flag.Int("scale", 1, "divide the market size by this factor")
	seed := flag.Int64("seed", 1, "market generator seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent classification workers and dynamic-corpus service workers")
	dynamic := flag.Bool("dynamic", true, "run the dynamic corpus under contained analysis")
	budget := flag.Uint64("budget", 0, "watchdog instruction budget per run (0 = default)")
	cacheDir := flag.String("cache", "", "persistent artifact/verdict store for the dynamic corpus (default: none)")
	surfaceTable := flag.Bool("surface", false, "print the per-app JNI surface map table after the dynamic sweep")
	flag.Parse()

	params := corpus.PaperParams()
	if *scale > 1 {
		params = corpus.Scaled(*scale)
	}
	params.Seed = *seed

	fmt.Printf("Generating market (%d apps, seed %d, %d workers)...\n\n",
		params.Total, params.Seed, *workers)
	stats := corpus.AnalyzeParallel(params, *workers)
	fmt.Println(stats.Report())
	fmt.Printf("Paper reference: 227,911 apps, 16.46%% Type I, 4,034 Type I without libs\n")
	fmt.Printf("(48.1%% AdMob), 1,738 Type II (394 loader-capable), 16 Type III (11 game, 5 ent.)\n")

	if !*dynamic {
		return
	}

	opts := apps.StudyOptions{Budget: *budget, FlowLog: true}
	var store *cas.Store
	if *cacheDir != "" {
		var err error
		if store, err = cas.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "marketstudy:", err)
			os.Exit(1)
		}
		opts.Cache = store
	}
	rep, st, err := apps.RunStudy(opts, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketstudy:", err)
		os.Exit(1)
	}

	fmt.Printf("\nDynamic corpus under contained analysis (mode ndroid, budget %d):\n\n",
		effectiveBudget(*budget))
	fmt.Print(rep.String())
	rs := st.Runner
	fmt.Printf("\nAnalysis service: %d submitted, %d computed, %d verdict-cache hits, %d deduped (%d workers).\n",
		st.Submitted, st.Computed, st.VerdictHits, st.Deduped, rep.Workers)
	perReset, taintPerReset := 0.0, 0.0
	if rs.Resets > 0 {
		perReset = float64(rs.GuestPagesReset) / float64(rs.Resets)
		taintPerReset = float64(rs.TaintPagesReset) / float64(rs.Resets)
	}
	fmt.Printf("Fork servers: %d boots, %d resets; per-reset cost %.1f guest pages + %.1f taint pages copied.\n",
		rs.Boots, rs.Resets, perReset, taintPerReset)
	fmt.Printf("Artifacts: %d assembles, %d dex validations, %d cache faults absorbed.\n",
		rs.AsmAssembles, rs.DexValidations, rs.CacheFaults)
	if store != nil {
		cs := store.Stats()
		fmt.Printf("Store %s: %d hits, %d misses, %d puts, %d corrupt, %d evicted.\n",
			store.Dir(), cs.Hits, cs.Misses, cs.Puts, cs.Corrupt, cs.Evictions)
	}
	if *surfaceTable {
		fmt.Println("\nJNI surface maps (dynamic observation, dedup + count-bucket throttled):")
		fmt.Println()
		printSurfaceTable(rep)
	}
	fmt.Println("\nEvery hostile app resolved to a per-app verdict; the study process survived.")
}

// printSurfaceTable renders each app's JNI surface map: a summary row with
// the truncation flag when the app's event stream hit the flood budget, then
// the map itself (every discovered native boundary with its registration
// events, raw vs recorded call counts, reflection dispatches and unreleased
// GetStringUTFChars handles).
func printSurfaceTable(rep *apps.StudyReport) {
	fmt.Printf("%-16s %7s %7s %9s %7s %7s %6s\n",
		"app", "natives", "regs", "calls", "events", "dropped", "trunc")
	for _, row := range rep.Rows {
		m := row.Report.Final.Result.Surface
		if m == nil {
			fmt.Printf("%-16s  (no surface map)\n", row.App.Name)
			continue
		}
		var regs uint64
		for _, b := range m.Boundaries {
			regs += b.RegEvents
		}
		trunc := ""
		if m.Truncated {
			trunc = "yes"
		}
		fmt.Printf("%-16s %7d %7d %9d %7d %7d %6s\n",
			row.App.Name, m.UniqueBoundaries, regs, m.Calls, m.Events, m.Dropped, trunc)
		for _, line := range strings.Split(strings.TrimSuffix(m.String(), "\n"), "\n") {
			fmt.Println("    " + line)
		}
	}
}

func effectiveBudget(b uint64) uint64 {
	if b == 0 {
		return core.DefaultBudget
	}
	return b
}
