package arm_test

import (
	"regexp"
	"testing"

	"repro/internal/apps"
	"repro/internal/arm"
	"repro/internal/core"
	"repro/internal/kernel"
)

var (
	identRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	labelRe = regexp.MustCompile(`(?m)^\s*([A-Za-z_][A-Za-z0-9_]*):`)
)

// fuzzExterns binds every identifier source names but does not define as a
// label to its own even address, so a library's calls into libc and JNI
// resolve without a booted System and the assembler gets past them.
func fuzzExterns(source string) map[string]uint32 {
	labels := map[string]bool{}
	for _, m := range labelRe.FindAllStringSubmatch(source, -1) {
		labels[m[1]] = true
	}
	ext := map[string]uint32{}
	for _, id := range identRe.FindAllString(source, -1) {
		if _, ok := ext[id]; !ok && !labels[id] {
			ext[id] = 0x4000_0000 + 8*uint32(len(ext))
		}
	}
	return ext
}

// FuzzAssemble feeds arbitrary source to the assembler, which every native
// library load runs: it must return a program or an error, never both or
// neither, and never panic. The seeds are the corpus apps' libraries.
func FuzzAssemble(f *testing.F) {
	for _, app := range apps.AllApps() {
		sys, err := core.NewSystem()
		if err != nil {
			f.Fatal(err)
		}
		if err := app.Install(sys); err != nil {
			continue // an install fault may come before any library loads
		}
		for _, lib := range sys.VM.NativeLibs() {
			f.Add(lib.Source)
		}
	}
	f.Fuzz(func(t *testing.T, source string) {
		prog, err := arm.Assemble(source, kernel.AppCodeBase, fuzzExterns(source))
		if (prog == nil) == (err == nil) {
			t.Fatalf("Assemble returned program %v and error %v", prog != nil, err)
		}
	})
}
