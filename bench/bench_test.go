package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the layout of BENCHMARK.json; unknown keys fail the
// decode.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric and
// workload lists of this program in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// TestWorkloadsShort runs every workload on small inputs, untraced and
// traced, and checks the summary line against BENCHMARK.json.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmark(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := run(options{Workload: w.Name, Seed: 2, Seconds: 0.5, Trace: traced, Short: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			var s summary
			if err := dec.Decode(&s); err != nil {
				t.Fatalf("%s trace=%v: summary line: %v", w.Name, traced, err)
			}
			if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(units[traced]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(s.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				v, ok := s.Metrics[name]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, name, v, unit)
				}
			}
			if len(r.Checks) == 0 {
				t.Errorf("%s trace=%v: no correctness check ran", w.Name, traced)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	files := func(set string) []string {
		m, err := filepath.Glob(filepath.Join("testdata", "compare", set, "*.json"))
		if err != nil || len(m) == 0 {
			t.Fatalf("no files for %s: %v", set, err)
		}
		return m
	}
	cases := []struct {
		set      string
		exit     int
		verdicts map[string]string // metric -> verdict prefix
	}{
		{"same", 0, map[string]string{"p50_ms": verdictWithin, "capacity_sps": verdictWithin, "f1": verdictWithin}},
		{"slower", 1, map[string]string{"p50_ms": verdictRegressed, "setup_s": verdictWithin}},
		{"noisy", 0, map[string]string{"capacity_sps": verdictUnresolved, "p50_ms": verdictWithin}},
	}
	for _, c := range cases {
		args := append(append(files("base"), "--"), files(c.set)...)
		var out, errOut bytes.Buffer
		if code := compareCmd(args, &out, &errOut); code != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.set, code, c.exit, out.String(), errOut.String())
		}
		got := map[string]string{}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "pipeline" {
				got[f[1]] = line
			}
		}
		if len(got) != len(endToEnd) {
			t.Errorf("%s: %d rows, want %d\n%s", c.set, len(got), len(endToEnd), out.String())
		}
		for metric, verdict := range c.verdicts {
			if !strings.Contains(got[metric], verdict+" (bound") {
				t.Errorf("%s: %s row %q, want verdict %q", c.set, metric, got[metric], verdict)
			}
		}
	}
	// The traced baseline file is skipped: three untraced runs per side.
	if !strings.Contains(compareOutput(t, files("base"), files("same")), "n=3") {
		t.Error("compare did not skip the traced result")
	}
}

func compareOutput(t *testing.T, a, b []string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	compareCmd(append(append(a, "--"), b...), &out, &errOut)
	return out.String()
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
