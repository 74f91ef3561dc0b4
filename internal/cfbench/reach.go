package cfbench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
)

// ReachRow is one app's static reach record: how much of the program the
// pre-analysis proved taint-free, and how many flow-log events of the
// contained NDroid run fell outside its reach sets.
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

// Reach is the static reach-precision table, a view of the matrix's
// static=lint run under NDroid. Hostile apps run like the rest; a final
// attempt that never reached the pass has no row.
func (m *Matrix) Reach() []ReachRow {
	run := m.find("static=lint", core.ModeNDroid)
	if run == nil {
		return nil
	}
	hostile := make(map[string]bool)
	for _, app := range apps.HostileRegistry() {
		hostile[app.Name] = true
	}
	var rows []ReachRow
	for _, c := range run.Cells {
		r := c.static
		if r == nil {
			continue
		}
		rows = append(rows, ReachRow{
			App:              c.App,
			Hostile:          hostile[c.App],
			Methods:          r.Methods,
			TaintFreeMethods: r.TaintFreeMethods(),
			NativePages:      r.NativePages,
			TaintFreePages:   r.TaintFreePages,
			TaintFree:        r.TaintFree,
			LintFindings:     len(r.Findings),
			Violations:       c.violations,
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
	b.WriteString("(* hostile; violations are flow-log events of the contained static=lint NDroid run outside the reach sets)\n")
	return b.String()
}
