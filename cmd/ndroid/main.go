// Command ndroid runs one of the synthetic evaluation apps under a chosen
// analysis mode and prints its verdict, flow log, detected leaks, and the
// kernel's ground-truth network/filesystem activity — the §VI case-study
// experience (Figs. 6-9) on the command line. Every run is a contained
// core.AnalyzeApp run on a fork-server Runner (watchdog budget, degradation
// ladder), so a hostile app prints a fault or timeout verdict and exits 0.
//
// Usage:
//
//	ndroid -list
//	ndroid -app qqphonebook [-mode ndroid|taintdroid|vanilla|droidscope] [-quiet]
//	ndroid -app case1 -static lint
//	ndroid -all
//	ndroid -serve [-cache DIR] [-workers N]     # app names on stdin, JSON lines out
//	ndroid -serve -serve-dir submissions/       # app names from files in a directory
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
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
		staticLvl = flag.String("static", "off", "static pre-analysis: off or lint (diagnose and cross-validate)")
		list      = flag.Bool("list", false, "list available apps")
		all       = flag.Bool("all", false, "run the full Table I detection matrix")
		quiet     = flag.Bool("quiet", false, "suppress the flow log")
		serve     = flag.Bool("serve", false, "run as an analysis service: read app-name submissions and stream JSON verdicts")
		serveDir  = flag.String("serve-dir", "", "read submissions from the files in this directory instead of stdin")
		cacheDir  = flag.String("cache", "", "persistent artifact/verdict store for -serve (default: none)")
		workers   = flag.Int("workers", 2, "service workers for -serve (one Runner each)")
	)
	flag.Parse()

	opts, err := analyzeOptions(*mode, *staticLvl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndroid:", err)
		os.Exit(2)
	}
	opts.FlowLog = !*quiet

	if *list {
		for _, a := range apps.Registry() {
			fmt.Printf("%-14s case %-7s %s\n", a.Name, a.Case, a.Desc)
		}
		return
	}
	if *serve {
		opts.FlowLog = true
		if err := runServe(*serveDir, *cacheDir, *workers, opts); err != nil {
			fmt.Fprintln(os.Stderr, "ndroid:", err)
			os.Exit(1)
		}
		return
	}
	if *all {
		if err := runMatrix(os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, "ndroid:", err)
			os.Exit(1)
		}
		return
	}
	if *appName == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runOne(os.Stdout, *appName, opts); err != nil {
		fmt.Fprintln(os.Stderr, "ndroid:", err)
		os.Exit(1)
	}
}

// analyzeOptions parses the -mode and -static values; main exits 2 on any
// error it returns.
func analyzeOptions(mode, staticLvl string) (core.AnalyzeOptions, error) {
	level, err := static.ParseLevel(staticLvl)
	if err != nil {
		return core.AnalyzeOptions{}, err
	}
	analysisMode, ok := core.ModeFromName(mode)
	if !ok {
		return core.AnalyzeOptions{}, fmt.Errorf("unknown mode %q (want vanilla|taintdroid|ndroid|droidscope)", mode)
	}
	return core.AnalyzeOptions{Mode: analysisMode, Static: level}, nil
}

// runServe runs the analysis-as-a-service mode: submissions are registry app
// names, one per line, read from stdin or (with dir set) from every file in a
// directory in sorted order. One JSON verdict line streams to stdout as each
// submission completes; a summary of the pipeline's work goes to stderr.
func runServe(dir, cacheDir string, workers int, opts core.AnalyzeOptions) error {
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
		Analyze: opts,
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

// runOne analyzes one app on a fork-server Runner through core.AnalyzeApp,
// the contained path the service and the parity suites use, and prints the
// verdict and degradation chain, the flow log, the JNI surface map, the
// static table (when enabled), the leaks, and the kernel's
// ground truth from the System the final attempt ran on. Every verdict,
// fault and timeout included, is a result; only an unknown app is an error.
func runOne(w io.Writer, name string, opts core.AnalyzeOptions) error {
	app, ok := apps.ByName(name)
	if !ok {
		return fmt.Errorf("unknown app %q (try -list)", name)
	}
	runner, err := core.NewRunner()
	if err != nil {
		return err
	}
	opts.Runner = runner
	rep := core.AnalyzeApp(app.Spec(), opts)
	res := rep.Final.Result
	fmt.Fprintf(w, "== %s (case %s) under %s ==\n", app.Name, app.Case, opts.Mode)
	fmt.Fprintf(w, "verdict: %s (chain %s)\n", rep.Verdict(), rep.ChainString())
	if res.Fault != nil {
		fmt.Fprintln(w, "fault:", res.Fault)
	}
	if opts.FlowLog && len(res.LogLines) > 0 {
		fmt.Fprintln(w, "\n-- flow log --")
		fmt.Fprintln(w, strings.Join(res.LogLines, "\n"))
	}
	if m := res.Surface; m != nil {
		fmt.Fprintln(w, "\n-- JNI surface map --")
		fmt.Fprint(w, m.String())
	}
	if sr := res.Static; sr != nil {
		fmt.Fprintln(w, "\n-- static pre-analysis --")
		fmt.Fprintln(w, " ", sr.Summary())
		for _, f := range sr.Findings {
			fmt.Fprintln(w, "  lint:", f)
		}
		for _, v := range res.StaticViolations {
			fmt.Fprintln(w, "  violation:", v)
		}
	}
	fmt.Fprintln(w, "\n-- leaks --")
	if len(res.Leaks) == 0 {
		fmt.Fprintln(w, "(none detected)")
	}
	for _, l := range res.Leaks {
		fmt.Fprintln(w, " ", l)
	}
	sys := runner.System()
	fmt.Fprintln(w, "\n-- ground truth: network --")
	for _, m := range sys.Kern.Net.Log {
		fmt.Fprintf(w, "  -> %-28s %q\n", m.Dest, string(m.Data))
	}
	fmt.Fprintln(w, "\n-- ground truth: filesystem --")
	for _, p := range sys.Kern.FS.Paths() {
		data, _ := sys.Kern.FS.ReadFile(p)
		if len(data) > 0 {
			fmt.Fprintf(w, "  %-28s %d bytes\n", p, len(data))
		}
	}
	return nil
}

// runMatrix prints the Table I detection matrix: every registry app under
// TaintDroid and NDroid, all on one Runner with flow logs off. opts carries
// the -static setting.
func runMatrix(w io.Writer, opts core.AnalyzeOptions) error {
	runner, err := core.NewRunner()
	if err != nil {
		return err
	}
	opts.Runner, opts.FlowLog = runner, false
	fmt.Fprintf(w, "%-14s %-7s %-22s %10s %10s\n", "app", "case", "expected sink", "taintdroid", "ndroid")
	for _, app := range apps.Registry() {
		var row [2]string
		for i, mode := range []core.Mode{core.ModeTaintDroid, core.ModeNDroid} {
			opts.Mode = mode
			res := core.AnalyzeApp(app.Spec(), opts).Final.Result
			row[i] = "-"
			if app.ExpectTag != 0 && res.Leaks.Detected(app.ExpectTag) {
				row[i] = "detected"
			}
		}
		fmt.Fprintf(w, "%-14s %-7s %-22s %10s %10s\n", app.Name, app.Case, app.ExpectSink, row[0], row[1])
	}
	return nil
}
