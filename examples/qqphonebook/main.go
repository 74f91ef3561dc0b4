// Qqphonebook replays the paper's §VI-A case study (Fig. 6): the
// QQPhoneBook-style app stashes SMS/contact data in native memory through
// one JNI call, later rebuilds it into a URL with NewStringUTF from a JNI
// call that takes no tainted parameters, and posts it to the QQ sync server.
//
// The printed flow log mirrors Fig. 6's: the taint-map entry for the
// argument, the NewStringUTF / dvmCreateStringFromCstr pair, the new string
// object's address and taint (0x202 = SMS|Contacts), and the final sink.
//
// Run with: go run ./examples/qqphonebook
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
)

func main() {
	app, _ := apps.ByName("qqphonebook")

	runner, err := core.NewRunner()
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeTaintDroid, core.ModeNDroid} {
		logging := mode == core.ModeNDroid
		rep := core.AnalyzeApp(app.Spec(), core.AnalyzeOptions{Mode: mode, FlowLog: logging, Runner: runner})
		res := rep.Final.Result

		fmt.Printf("==== %s ====\n", mode)
		if logging {
			fmt.Println(strings.Join(res.LogLines, "\n"))
			fmt.Println()
		}
		if len(res.Leaks) == 0 {
			fmt.Println("no leak detected — the tainted URL slipped through")
		}
		for _, l := range res.Leaks {
			fmt.Println("LEAK:", l)
		}
		fmt.Println("ground truth — data sent to info.3g.qq.com:")
		for _, m := range runner.System().Kern.Net.SentTo("info.3g.qq.com") {
			fmt.Printf("  %q\n", string(m))
		}
		fmt.Println()
	}
	fmt.Println("TaintDroid misses the flow (getPostUrl has no tainted parameters);")
	fmt.Println("NDroid's taint map + NewStringUTF hook recover it — the Fig. 6 result.")
}
