package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine parses the JSON result line that ends standard output.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload tables in
// the code and in BENCHMARK.json the same.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file []benchMetric
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, d := range c.code {
			f := c.file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, f, d)
			}
		}
	}
}

// TestShortModePrintsEveryMetric runs every workload, untraced and traced,
// for a few operations and requires every named metric on the result line
// with its unit, a correct run, and the traced numbers to show that each
// workload loads the layers it is for.
func TestShortModePrintsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	traced := map[string]resultLine{}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "1", "--short", "--trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s\n%s", w.name, trace, code, out.String(), errb.String())
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
				traced[w.name] = r
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "  "+m.Name+" ") {
					t.Errorf("%s trace %s: %s not printed", w.name, trace, m.Name)
				}
			}
			if !strings.Contains(out.String(), "host: cpu=") {
				t.Errorf("%s trace %s: no host fingerprint", w.name, trace)
			}
		}
	}
	v := func(w, m string) float64 { return traced[w].Metrics[m].Value }
	if v("recovery-pat721", "recovery.detects") <= 0 || v("recovery-pat721", "recovery.rescue_per_detect") <= 0 {
		t.Errorf("recovery-pat721 did not detect and rescue")
	}
	if v("sparse-pat271", "network.sweep_frac") >= v("dense-pat271", "network.sweep_frac") {
		t.Errorf("sweep_frac: sparse %g not below dense %g", v("sparse-pat271", "network.sweep_frac"), v("dense-pat271", "network.sweep_frac"))
	}
	if v("serve-zipf", "simsvc.hit_frac") >= 1 || v("serve-zipf", "simsvc.execute_ms_p50") <= 0 {
		t.Errorf("serve-zipf: hit_frac %g, execute_ms_p50 %g", v("serve-zipf", "simsvc.hit_frac"), v("serve-zipf", "simsvc.execute_ms_p50"))
	}
}

// TestWrongFingerprintFails checks that a run whose output fingerprint
// differs from the recorded one at that seed is reported incorrect.
func TestWrongFingerprintFails(t *testing.T) {
	var out, errb bytes.Buffer
	o := options{workload: "sparse-pat271", seed: 1, seconds: 1, short: true, out: &out,
		recorded: map[string]recordedFP{"sparse-pat271": {Seed: 1, Fingerprint: "0000000000000000"}}}
	if code := execute(o, &errb); code == 0 {
		t.Fatalf("exit 0 with a wrong recorded fingerprint\n%s", out.String())
	}
	if r := lastLine(t, out.String()); r.Correct {
		t.Errorf("result line says correct")
	}
	if !strings.Contains(errb.String(), "recorded 0000000000000000") {
		t.Errorf("stderr does not name the mismatch: %s", errb.String())
	}
	// At another seed the recorded value does not apply.
	out.Reset()
	o.seed = 2
	if code := execute(o, &errb); code != 0 {
		t.Errorf("seed 2: exit %d\n%s", code, out.String())
	}
}
