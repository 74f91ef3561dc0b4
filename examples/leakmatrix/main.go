// Leakmatrix reproduces Table I / §IV: every {source, intermediate, sink}
// topology runs under both TaintDroid and NDroid, showing that TaintDroid
// catches only Case 1 while NDroid catches every case (and neither flags
// the benign control).
//
// Run with: go run ./examples/leakmatrix
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
)

func main() {
	fmt.Println("Table I detection matrix — TaintDroid vs NDroid")
	fmt.Println()
	fmt.Printf("%-14s %-7s %-52s %-11s %-8s\n", "app", "case", "description", "taintdroid", "ndroid")

	// One fork-server Runner serves every contained run, rewinding to the
	// post-boot state between apps.
	runner, err := core.NewRunner()
	if err != nil {
		log.Fatal(err)
	}
	for _, app := range apps.Registry() {
		var detected [2]bool
		var leaks [2][]core.Leak
		for i, mode := range []core.Mode{core.ModeTaintDroid, core.ModeNDroid} {
			res := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Mode: mode, Runner: runner}).Final.Result
			detected[i] = app.ExpectTag != 0 && res.Leaks.Detected(app.ExpectTag)
			leaks[i] = res.Leaks
		}
		mark := func(b bool) string {
			if b {
				return "DETECTED"
			}
			return "missed"
		}
		td, nd := mark(detected[0]), mark(detected[1])
		if app.Case == "benign" {
			td, nd = "clean", "clean"
		}
		fmt.Printf("%-14s %-7s %-52s %-11s %-8s\n", app.Name, app.Case, app.Desc, td, nd)
		for _, l := range leaks[1] {
			fmt.Printf("%22s NDroid leak: %s\n", "", l)
		}
	}
	fmt.Println()
	fmt.Println("Paper §IV: \"Taintdroid can only detect case 1.\" NDroid detects all cases.")
}
