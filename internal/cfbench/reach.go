package cfbench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
)

// ReachRow is one app's static reach record: how much of the program
// core.Lint proved taint-free, and how many events of the app's contained
// NDroid flow log fell outside its reach sets.
type ReachRow struct {
	App     string `json:"app"`
	Hostile bool   `json:"hostile,omitempty"`

	Methods          int  `json:"methods"`
	TaintFreeMethods int  `json:"taintFreeMethods"`
	NativePages      int  `json:"nativePages"`
	TaintFreePages   int  `json:"taintFreePages"`
	TaintFree        bool `json:"taintFree,omitempty"`
	LintFindings     int  `json:"lintFindings,omitempty"`
	Violations       int  `json:"violations,omitempty"`
}

// Reach is the static reach-precision table: one row per corpus app that
// installs, built from core.Lint and cross-validated against the matrix's
// baseline run under NDroid.
func (m *Matrix) Reach() []ReachRow { return m.reach }

// reachRows lints every corpus app and cross-validates its reach sets
// against base, the baseline NDroid run's outcomes in corpus order (the
// order runArm submits in). Hostile apps run like the rest; an app whose
// Install fails has nothing to lint and gets no row.
func reachRows(base []cellOutcome) []ReachRow {
	hostile := make(map[string]bool)
	for _, app := range apps.HostileRegistry() {
		hostile[app.Name] = true
	}
	var rows []ReachRow
	for i, app := range apps.AllApps() {
		r, err := core.Lint(app.Spec())
		if err != nil {
			continue
		}
		rows = append(rows, ReachRow{
			App:              app.Name,
			Hostile:          hostile[app.Name],
			Methods:          r.Methods,
			TaintFreeMethods: r.TaintFreeMethods(),
			NativePages:      r.NativePages,
			TaintFreePages:   r.TaintFreePages,
			TaintFree:        r.TaintFree,
			LintFindings:     len(r.Findings),
			Violations:       len(r.CrossValidate(base[i].log)),
		})
	}
	return rows
}

// ReachReport renders the reach-precision table.
func ReachReport(rows []ReachRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %8s %10s %6s %10s\n",
		"app", "methods", "taint-free", "pages", "taint-free", "lint", "violations")
	for _, r := range rows {
		name := r.App
		if r.Hostile {
			name += "*"
		}
		fmt.Fprintf(&b, "%-14s %8d %10d %8d %10d %6d %10d\n",
			name, r.Methods, r.TaintFreeMethods, r.NativePages, r.TaintFreePages,
			r.LintFindings, r.Violations)
	}
	b.WriteString("(* hostile; violations are flow-log events of the contained baseline NDroid run outside the reach sets)\n")
	return b.String()
}
