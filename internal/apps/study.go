package apps

import (
	"fmt"
	"strings"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/service"
)

// StudyOptions configures a market-study sweep over a corpus.
type StudyOptions struct {
	// Mode is the starting analysis mode (default ModeNDroid); hostile apps
	// may degrade below it.
	Mode core.Mode
	// Budget overrides core.DefaultBudget when nonzero.
	Budget uint64
	// FlowLog captures per-app flow logs.
	FlowLog bool
	// Apps is the corpus; nil means AllApps() (benign + hostile).
	Apps []*App
	// Cache attaches a persistent artifact and verdict store to the service
	// (assembled libraries, validation verdicts, final reports); a second
	// sweep over the same corpus then replays every verdict. Nil runs the
	// sweep in memory. Artifacts never change outcomes — only cost.
	Cache *cas.Store
}

// StudyRow is one app's contained outcome.
type StudyRow struct {
	App    *App
	Report core.AppReport
}

// StudyReport aggregates a sweep: per-app rows plus the fault/timeout and
// degradation statistics the market study reports.
type StudyReport struct {
	Rows []StudyRow

	Clean    int
	Leaks    int
	Faults   int
	Timeouts int

	// Degraded counts apps that finished below their starting mode;
	// Attempts counts analysis runs including retries and degradation steps.
	Degraded int
	Attempts int

	// Workers is how many service workers served the sweep.
	Workers int
}

// RunStudy analyzes every app in the corpus through an analysis service:
// each app is Submitted, taken by whichever worker is free (which installs,
// fingerprints, dedups and analyzes it), and collected back in corpus order. Every attempt starts from the warm
// post-boot state, and any fault an app raises is contained to its own
// report, so a corpus with hostile members always completes. Rows keep
// corpus order and every outcome is independent of worker assignment and of
// opts.Cache (the service parity suite holds this).
func RunStudy(opts StudyOptions, workers int) (*StudyReport, service.Stats, error) {
	corpus := opts.Apps
	if corpus == nil {
		corpus = AllApps()
	}
	if workers < 1 {
		workers = 1
	}
	svc, err := service.New(service.Options{
		Workers: workers,
		Cache:   opts.Cache,
		Analyze: core.AnalyzeOptions{
			Mode:    opts.Mode,
			Budget:  opts.Budget,
			FlowLog: opts.FlowLog,
		},
	})
	if err != nil {
		return nil, service.Stats{}, err
	}
	chans := make([]<-chan service.Result, len(corpus))
	for i, app := range corpus {
		chans[i] = svc.Submit(app.Spec())
	}
	rep := &StudyReport{Rows: make([]StudyRow, len(corpus)), Workers: workers}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			svc.Close()
			return nil, svc.Stats(), fmt.Errorf("apps: service submission %s: %w", corpus[i].Name, res.Err)
		}
		rep.Rows[i] = StudyRow{App: corpus[i], Report: res.Report}
	}
	svc.Close()
	rep.tally()
	return rep, svc.Stats(), nil
}

// tally derives the aggregate verdict/degradation counters from Rows.
func (rep *StudyReport) tally() {
	for _, row := range rep.Rows {
		r := row.Report
		rep.Attempts += len(r.Chain)
		if r.Degraded {
			rep.Degraded++
		}
		switch r.Verdict() {
		case core.VerdictClean:
			rep.Clean++
		case core.VerdictLeak:
			rep.Leaks++
		case core.VerdictFault:
			rep.Faults++
		case core.VerdictTimeout:
			rep.Timeouts++
		}
	}
}

// SharedLibVariant derives an app shipping byte-identical native libraries
// under different dex content: Install additionally registers a padding
// class that never runs, so the app digest moves while the analysis does
// not. A store that judged the base app must therefore compute the variant
// afresh, and its verdict, chain and flow log equal the base app's.
func SharedLibVariant(app *App) *App {
	v := *app
	v.Name = app.Name + "+sharedlib"
	inner := app.install
	v.install = func(sys *core.System) error {
		if err := inner(sys); err != nil {
			return err
		}
		cb := dex.NewClass("Lcom/ndroid/variant/Pad;")
		cb.Method("pad", "I", dex.AccStatic, 1).
			Const(0, 9).
			Return(0).
			Done()
		sys.VM.RegisterClass(cb.Build())
		return nil
	}
	return &v
}

// String renders the study as the per-app verdict table plus totals.
func (r *StudyReport) String() string {
	var b strings.Builder
	for _, row := range r.Rows {
		res := row.Report.Final.Result
		fmt.Fprintf(&b, "%-14s %-8s chain=[%s]", row.App.Name, r.verdictCell(row), row.Report.ChainString())
		if res.Fault != nil {
			fmt.Fprintf(&b, " fault=%v", res.Fault)
		}
		fmt.Fprintf(&b, " java=%d native=%d log=%d\n", res.JavaInsns, res.NativeInsns, len(res.LogLines))
	}
	fmt.Fprintf(&b, "apps=%d clean=%d leak=%d fault=%d timeout=%d degraded=%d attempts=%d\n",
		len(r.Rows), r.Clean, r.Leaks, r.Faults, r.Timeouts, r.Degraded, r.Attempts)
	return b.String()
}

func (r *StudyReport) verdictCell(row StudyRow) string {
	return row.Report.Verdict().String()
}
