package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/service"
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

// TestBadOptionValuesExit2: -mode takes a known mode, and any other value
// is an analyzeOptions error, which main turns into exit 2. -static and
// -summaries are no flags at all (the static pass and native summaries were
// deleted), so the flag package exits 2 on them. Each bad command line runs
// main in a child process and must exit 2 before any analysis.
func TestBadOptionValuesExit2(t *testing.T) {
	if args := os.Getenv("NDROID_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"ndroid"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"-static pin -list",
		"-static lint -all",
		"-static lint -serve",
		"-static lint -app case1",
		"-mode bogus -list",
		"-summaries static -list",
		"-summaries validated -list",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadOptionValuesExit2$")
		cmd.Env = append(os.Environ(), "NDROID_MAIN_ARGS="+args)
		var ee *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("ndroid %s: %v, want exit status 2", args, err)
		}
	}
	if opts, err := analyzeOptions("ndroid"); err != nil || opts.Mode != core.ModeNDroid {
		t.Fatalf("-mode ndroid: %+v, %v", opts, err)
	}
}

// TestRunOneSurfaceShowsUnreleased: case1's scramble never releases the
// chars it gets, and the single-app run shows that finding in its JNI
// surface map section.
func TestRunOneSurfaceShowsUnreleased(t *testing.T) {
	var out bytes.Buffer
	if err := runOne(&out, "case1", core.AnalyzeOptions{Mode: core.ModeNDroid}); err != nil {
		t.Fatal(err)
	}
	sec := strings.Join(section(out.String(), "JNI surface map"), "\n")
	if !strings.Contains(sec, "unreleased GetStringUTFChars@0x8018") {
		t.Errorf("surface map section shows no unreleased handle:\n%s", out.String())
	}
}
