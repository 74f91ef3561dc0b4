// Command ndroid runs one of the synthetic evaluation apps under a chosen
// analysis mode and prints the flow log, detected leaks, and the kernel's
// ground-truth network/filesystem activity — the §VI case-study experience
// (Figs. 6-9) on the command line.
//
// Usage:
//
//	ndroid -list
//	ndroid -app qqphonebook [-mode ndroid|taintdroid|vanilla|droidscope] [-quiet]
//	ndroid -app case1 -static pin
//	ndroid -app summix -summaries validated   # auto-generated native taint summaries
//	ndroid -all
//	ndroid -serve [-cache DIR] [-workers N]     # app names on stdin, JSON lines out
//	ndroid -serve -serve-dir submissions/       # app names from files in a directory
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
)

func main() {
	var (
		appName   = flag.String("app", "", "app to analyze (see -list)")
		mode      = flag.String("mode", "ndroid", "analysis mode: vanilla, taintdroid, ndroid, droidscope")
		staticLvl = flag.String("static", "off", "static pre-analysis: off, lint (diagnose), pin (apply pins)")
		summaries = flag.String("summaries", "off", "native taint summaries: off, static, or validated")
		list      = flag.Bool("list", false, "list available apps")
		all       = flag.Bool("all", false, "run the full Table I detection matrix")
		quiet     = flag.Bool("quiet", false, "suppress the flow log")
		serve     = flag.Bool("serve", false, "run as an analysis service: read app-name submissions and stream JSON verdicts")
		serveDir  = flag.String("serve-dir", "", "read submissions from the files in this directory instead of stdin")
		cacheDir  = flag.String("cache", "", "persistent artifact/verdict store for -serve (default: none)")
		workers   = flag.Int("workers", 2, "shard workers for -serve")
	)
	flag.Parse()

	level, err := static.ParseLevel(*staticLvl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndroid:", err)
		os.Exit(2)
	}
	staticLevel = level

	sumMode, err := core.ParseSummaryMode(*summaries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndroid:", err)
		os.Exit(2)
	}
	summaryMode = sumMode

	analysisMode, ok := core.ModeFromName(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "ndroid: unknown mode %q (want vanilla|taintdroid|ndroid|droidscope)\n", *mode)
		os.Exit(2)
	}

	if *list {
		for _, a := range apps.Registry() {
			fmt.Printf("%-14s case %-7s %s\n", a.Name, a.Case, a.Desc)
		}
		return
	}
	if *serve {
		if err := runServe(*serveDir, *cacheDir, *workers, analysisMode, level); err != nil {
			fmt.Fprintln(os.Stderr, "ndroid:", err)
			os.Exit(1)
		}
		return
	}
	if *all {
		if err := runMatrix(); err != nil {
			fmt.Fprintln(os.Stderr, "ndroid:", err)
			os.Exit(1)
		}
		return
	}
	if *appName == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runOne(*appName, analysisMode, !*quiet); err != nil {
		fmt.Fprintln(os.Stderr, "ndroid:", err)
		os.Exit(1)
	}
}

// runServe runs the analysis-as-a-service mode: submissions are registry app
// names, one per line, read from stdin or (with dir set) from every file in a
// directory in sorted order. One JSON verdict line streams to stdout as each
// submission completes; a summary of the pipeline's work goes to stderr.
func runServe(dir, cacheDir string, workers int, mode core.Mode, level static.Level) error {
	var store *cas.Store
	if cacheDir != "" {
		var err error
		if store, err = cas.Open(cacheDir); err != nil {
			return err
		}
	}
	svc, err := service.New(service.Options{
		Workers: workers,
		Cache:   store,
		Out:     os.Stdout,
		Analyze: core.AnalyzeOptions{Mode: mode, FlowLog: true, Static: level, Summaries: summaryMode},
	})
	if err != nil {
		return err
	}
	names, err := serveSubmissions(dir)
	if err != nil {
		return err
	}
	var pending []<-chan service.Result
	for _, name := range names {
		app, ok := apps.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "ndroid: skipping unknown app %q\n", name)
			continue
		}
		pending = append(pending, svc.Submit(app.Spec()))
	}
	for _, ch := range pending {
		if res := <-ch; res.Err != nil {
			fmt.Fprintf(os.Stderr, "ndroid: %s: %v\n", res.Name, res.Err)
		}
	}
	svc.Close()
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "ndroid: served %d submissions: %d computed, %d from verdict cache, %d deduped\n",
		st.Submitted, st.Computed, st.VerdictHits, st.Deduped)
	if store != nil {
		cs := store.Stats()
		fmt.Fprintf(os.Stderr, "ndroid: store %s: %d hits, %d misses, %d puts, %d corrupt, %d evicted\n",
			store.Dir(), cs.Hits, cs.Misses, cs.Puts, cs.Corrupt, cs.Evictions)
	}
	return nil
}

// serveSubmissions collects submission names: one per line from every file in
// dir (sorted), or from stdin when dir is empty. Blank lines and #-comments
// are skipped.
func serveSubmissions(dir string) ([]string, error) {
	var readers []*bufio.Scanner
	if dir == "" {
		readers = append(readers, bufio.NewScanner(os.Stdin))
	} else {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var paths []string
		for _, e := range entries {
			if !e.IsDir() {
				paths = append(paths, filepath.Join(dir, e.Name()))
			}
		}
		sort.Strings(paths)
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			readers = append(readers, bufio.NewScanner(strings.NewReader(string(data))))
		}
	}
	var names []string
	for _, sc := range readers {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			names = append(names, line)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// staticLevel is the -static flag, applied by analyze to every run.
var staticLevel static.Level

// summaryMode is the -summaries flag, applied by analyze to every run.
var summaryMode core.SummaryMode

func analyze(name string, mode core.Mode, logging bool) (*core.Analyzer, *apps.App, error) {
	app, ok := apps.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q (try -list)", name)
	}
	sys, err := core.NewSystem()
	if err != nil {
		return nil, nil, err
	}
	if err := app.Install(sys); err != nil {
		return nil, nil, err
	}
	a := core.NewAnalyzer(sys, mode)
	a.Log.Enabled = logging
	if summaryMode != core.SummaryOff {
		a.EnableSummaries(summaryMode, nil)
	}
	if staticLevel != static.Off {
		r := static.Analyze(sys.VM, app.EntryClass, app.EntryMethod)
		fmt.Println("--", r.Summary())
		for _, f := range r.Findings {
			fmt.Println("   lint:", f)
		}
		if staticLevel == static.PinLevel {
			r.Apply(sys.VM)
		}
	}
	if err := app.Run(sys); err != nil {
		return nil, nil, err
	}
	return a, app, nil
}

func runOne(name string, mode core.Mode, logging bool) error {
	a, app, err := analyze(name, mode, logging)
	if err != nil {
		return err
	}
	fmt.Printf("== %s (case %s) under %s ==\n", app.Name, app.Case, a.Mode)
	if logging && len(a.Log.Lines) > 0 {
		fmt.Println("\n-- flow log --")
		fmt.Println(a.Log.String())
	}
	if m := a.Surface.Map(); m != nil {
		fmt.Println("\n-- JNI surface map --")
		fmt.Print(m.String())
	}
	if summaryMode != core.SummaryOff {
		fmt.Println("\n-- native taint summaries --")
		report := a.SummaryReport()
		if len(report) == 0 {
			fmt.Println("  (no summarizable libraries)")
		}
		for _, lr := range report {
			fmt.Println(" ", lr)
		}
		if a.SummariesVoided > 0 {
			fmt.Printf("  RegisterNatives churn voided %d summaries\n", a.SummariesVoided)
		}
		for _, rej := range a.SummaryRejections {
			fmt.Println(" ", rej)
		}
		fmt.Printf("  crossings served by a summary: %d\n", a.SummaryApplied)
	}
	fmt.Println("\n-- leaks --")
	if len(a.Leaks) == 0 {
		fmt.Println("(none detected)")
	}
	for _, l := range a.Leaks {
		fmt.Println(" ", l)
	}
	fmt.Println("\n-- ground truth: network --")
	for _, m := range a.Sys.Kern.Net.Log {
		fmt.Printf("  -> %-28s %q\n", m.Dest, string(m.Data))
	}
	fmt.Println("\n-- ground truth: filesystem --")
	for _, p := range a.Sys.Kern.FS.Paths() {
		data, _ := a.Sys.Kern.FS.ReadFile(p)
		if len(data) > 0 {
			fmt.Printf("  %-28s %d bytes\n", p, len(data))
		}
	}
	return nil
}

func runMatrix() error {
	fmt.Printf("%-14s %-7s %-22s %10s %10s\n", "app", "case", "expected sink", "taintdroid", "ndroid")
	for _, app := range apps.Registry() {
		var row [2]bool
		for i, mode := range []core.Mode{core.ModeTaintDroid, core.ModeNDroid} {
			a, _, err := analyze(app.Name, mode, false)
			if err != nil {
				return err
			}
			row[i] = app.ExpectTag != 0 && a.Detected(app.ExpectTag)
		}
		mark := func(b bool) string {
			if b {
				return "detected"
			}
			return "-"
		}
		fmt.Printf("%-14s %-7s %-22s %10s %10s\n",
			app.Name, app.Case, app.ExpectSink, mark(row[0]), mark(row[1]))
	}
	return nil
}
