package cfbench

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
)

// PinRow is one app's static pin-precision record: how much of the program
// the pre-analysis proved taint-unreachable, and how often the pinned
// variants actually dispatched during a gated NDroid run.
type PinRow struct {
	App     string `json:"app"`
	Hostile bool   `json:"hostile,omitempty"`

	Methods       int  `json:"methods"`
	PinnedMethods int  `json:"pinnedMethods"`
	NativePages   int  `json:"nativePages"`
	PinnedPages   int  `json:"pinnedPages"`
	TaintFree     bool `json:"taintFree,omitempty"`
	LintFindings  int  `json:"lintFindings,omitempty"`

	// Dynamic confirmation: pinned-variant dispatch counts from the gated
	// NDroid run with the pins applied.
	PinnedFrames uint64 `json:"pinnedFrames,omitempty"`
	PinnedBlocks uint64 `json:"pinnedBlocks,omitempty"`
}

// Pins is the static pin-precision table, a view of the matrix's static=pin
// run under NDroid: each app's pre-analysis counts beside how often its
// pinned variants dispatched in that contained run. Hostile apps run like
// the rest; a final attempt that never reached the pass has no row.
func (m *Matrix) Pins() []PinRow {
	run := m.find("static=pin", core.ModeNDroid)
	if run == nil {
		return nil
	}
	hostile := make(map[string]bool)
	for _, app := range apps.HostileRegistry() {
		hostile[app.Name] = true
	}
	var rows []PinRow
	for _, c := range run.Cells {
		r := c.static
		if r == nil {
			continue
		}
		rows = append(rows, PinRow{
			App:           c.App,
			Hostile:       hostile[c.App],
			Methods:       r.Methods,
			PinnedMethods: r.PinnedMethods,
			NativePages:   r.NativePages,
			PinnedPages:   r.PinnedPages,
			TaintFree:     r.TaintFree,
			LintFindings:  len(r.Findings),
			PinnedFrames:  c.PinnedFrames,
			PinnedBlocks:  c.PinnedBlocks,
		})
	}
	return rows
}

// PinReport renders the pin-precision table.
func PinReport(rows []PinRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %6s %8s %8s\n",
		"app", "methods", "pinned", "pages", "pinned", "lint", "frames", "blocks")
	for _, r := range rows {
		name := r.App
		if r.Hostile {
			name += "*"
		}
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %6d %8d %8d\n",
			name, r.Methods, r.PinnedMethods, r.NativePages, r.PinnedPages,
			r.LintFindings, r.PinnedFrames, r.PinnedBlocks)
	}
	b.WriteString("(* hostile; frames/blocks are pinned-variant dispatches in the contained static=pin NDroid run)\n")
	return b.String()
}
