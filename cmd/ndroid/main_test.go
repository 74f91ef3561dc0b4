package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/static"
)

// section returns the lines of one "-- name --" section of runOne's output.
func section(out, name string) []string {
	var lines []string
	in := false
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "-- ") {
			in = l == "-- "+name+" --"
			continue
		}
		if in && l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestRunOneHostileMatchesService: every hostile app gets a verdict line,
// and it names the same verdict and degradation chain the analysis service
// streams for the app under -serve's options.
func TestRunOneHostileMatchesService(t *testing.T) {
	opts := core.AnalyzeOptions{Mode: core.ModeNDroid, FlowLog: true}
	svc, err := service.New(service.Options{Analyze: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, app := range apps.HostileRegistry() {
		var out bytes.Buffer
		if err := runOne(&out, app.Name, opts); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		res := <-svc.Submit(app.Spec())
		if res.Err != nil {
			t.Fatalf("%s: service: %v", app.Name, res.Err)
		}
		want := fmt.Sprintf("verdict: %s (chain %s)", res.Report.Verdict(), res.Report.ChainString())
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("%s: output lacks %q:\n%s", app.Name, want, out.String())
		}
	}
}

// TestRunOneQQPhoneBookFlowLog: the Fig. 6 case study's flow log ends at the
// Java sink that sends the rebuilt URL to the QQ sync server.
func TestRunOneQQPhoneBookFlowLog(t *testing.T) {
	var out bytes.Buffer
	if err := runOne(&out, "qqphonebook", core.AnalyzeOptions{Mode: core.ModeNDroid, FlowLog: true}); err != nil {
		t.Fatal(err)
	}
	log := section(out.String(), "flow log")
	if len(log) == 0 {
		t.Fatalf("no flow log:\n%s", out.String())
	}
	if last := log[len(log)-1]; !strings.HasPrefix(last, "JavaSink[Network.send] dest=info.3g.qq.com") {
		t.Errorf("flow log ends in %q", last)
	}
	if net := section(out.String(), "ground truth: network"); len(net) != 1 || !strings.Contains(net[0], "info.3g.qq.com") {
		t.Errorf("ground truth network %q, want one send to info.3g.qq.com", net)
	}
}

// TestRunMatrixTaintDroidSeesOnlyCase1: in the Table I matrix TaintDroid
// detects exactly the case-1 rows, and NDroid every row but the benign one.
func TestRunMatrixTaintDroidSeesOnlyCase1(t *testing.T) {
	var out bytes.Buffer
	if err := runMatrix(&out, core.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if len(rows) != len(apps.Registry()) {
		t.Fatalf("%d rows, want %d", len(rows), len(apps.Registry()))
	}
	for _, row := range rows {
		f := strings.Fields(row)
		name, cs, td, nd := f[0], f[1], f[len(f)-2], f[len(f)-1]
		if want := cs == "1"; (td == "detected") != want {
			t.Errorf("%s (case %s): taintdroid %q", name, cs, td)
		}
		if want := cs != "benign"; (nd == "detected") != want {
			t.Errorf("%s (case %s): ndroid %q", name, cs, nd)
		}
	}
}

// TestBadOptionValuesExit2: -static takes off|lint. Any other value, pin
// included, is an analyzeOptions error, which main turns into exit 2 as it
// does for an unknown -mode or -summaries value.
func TestBadOptionValuesExit2(t *testing.T) {
	for _, bad := range [][3]string{
		{"ndroid", "pin", "off"},
		{"bogus", "off", "off"},
		{"ndroid", "off", "static"},
	} {
		if _, err := analyzeOptions(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("-mode %s -static %s -summaries %s: accepted", bad[0], bad[1], bad[2])
		}
	}
	opts, err := analyzeOptions("ndroid", "lint", "off")
	if err != nil || opts.Static != static.LintOnly || opts.Mode != core.ModeNDroid {
		t.Fatalf("-static lint: %+v, %v", opts, err)
	}
	var out bytes.Buffer
	if err := runOne(&out, "case1", opts); err != nil {
		t.Fatal(err)
	}
	if len(section(out.String(), "static pre-analysis")) == 0 {
		t.Errorf("-static lint printed no static section:\n%s", out.String())
	}
}
