package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the catalog's gated metrics, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	gated := 0
	for _, d := range catalog {
		if d.report {
			if _, ok := listed[d.name]; ok {
				t.Errorf("%s is report-only but listed in BENCHMARK.json", d.name)
			}
			continue
		}
		gated++
		if u, ok := listed[d.name]; !ok || u != d.unit {
			t.Errorf("BENCHMARK.json lists %s with unit %q, want %q", d.name, u, d.unit)
		}
	}
	if gated != len(listed) {
		t.Errorf("BENCHMARK.json lists %d metrics, the catalog gates %d", len(listed), gated)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that the command prints every metric of its mode with its unit
// and that all correctness checks pass, so the benchmark cannot rot.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{wlIndex, wlSolve, wlDist} {
		for _, trace := range []bool{false, true} {
			name := wl
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				o := options{workload: wl, seed: 7, seconds: 1, trace: trace, traceDir: t.TempDir()}
				if err := run(&out, o); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				for _, d := range catalog {
					if d.endToEnd == trace {
						continue
					}
					if d.appliesTo(wl) && !strings.Contains(out.String(), "# "+d.name+" ") {
						t.Errorf("report lacks %s", d.name)
					}
					if d.report {
						continue
					}
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("result metric %s = %+v, want unit %q", d.name, m, d.unit)
					}
				}
			})
		}
	}
}
