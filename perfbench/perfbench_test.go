package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"divtopk"
)

// toyScale keeps the smoke test to seconds per workload.
var toyScale = scale{nodes: 4000, edges: 28000}

// buildDaemon compiles cmd/divtopkd for the test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "divtopkd")
	out, err := exec.Command("go", "build", "-o", bin, "divtopk/cmd/divtopkd").CombinedOutput()
	if err != nil {
		t.Fatalf("building divtopkd: %v\n%s", err, out)
	}
	return bin
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	bin := buildDaemon(t)
	endToEnd, perLayer := declared(t)
	for _, wl := range []string{"explore", "churn"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 1, trace: trace, daemon: bin,
				work: t.TempDir(), scale: toyScale, expect: coldAnswer}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", wl, trace, name, m.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", wl, trace, len(res.Metrics), len(want))
			}
		}
	}
}

func TestCorruptedExpectationFailsTheCheck(t *testing.T) {
	bin := buildDaemon(t)
	for _, wl := range []string{"explore", "churn"} {
		corrupt := func(snap *divtopk.Graph, q *query) (*answer, error) {
			a, err := coldAnswer(snap, q)
			if err == nil && q.div {
				a.F += 1
			}
			return a, err
		}
		cfg := config{workload: wl, seed: 3, seconds: 1, daemon: bin,
			work: t.TempDir(), scale: toyScale, expect: corrupt}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || len(res.Metrics) != 0 {
			t.Fatalf("%s: a corrupted expected answer passed the check (correct=%v, %d metrics)", wl, res.Correct, len(res.Metrics))
		}
	}
}
