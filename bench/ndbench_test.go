package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// resultOf renders the report and parses its last line.
func resultOf(t *testing.T, rep *Report) resultLine {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return res
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json at a tiny
// size with a traced phase, and checks that the result lines carry exactly
// the declared metrics with their units, that every output check passed,
// and that the traced breakdown leaves at most 5% of wall time
// unattributed.
func TestSmokeEveryWorkload(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ndbench has %d", len(spec.Workloads), len(Workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			seed, ok := Workloads[w.Name]
			if !ok {
				t.Fatalf("ndbench has no workload %q", w.Name)
			}
			rep, err := Run(Config{Workload: w.Name, Seed: seed, Seconds: 0.4, Trace: true,
				WorkDir: t.TempDir(), Scale: 40})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Error("check failed:", f)
			}

			rep.Trace = false
			plain := resultOf(t, rep)
			if !plain.Correct || plain.Attempted < 1 || plain.Failed != 0 {
				t.Fatalf("result %+v", plain)
			}
			if len(plain.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced result has %d metrics, BENCHMARK.json declares %d", len(plain.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := plain.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %t), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			rep.Trace = true
			traced := resultOf(t, rep)
			if len(traced.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced result has %d metrics, BENCHMARK.json declares %d", len(traced.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if u := traced.Metrics["trace.unattributed_share"].Value; u > 0.05 {
				t.Errorf("unattributed share %.3f of traced wall time, want <= 0.05", u)
			}
		})
	}
}
