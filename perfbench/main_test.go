package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"kdp/internal/bench"
	"kdp/internal/server"
	"kdp/internal/sim"
)

// simNames are the sim_* results each workload must report, and no
// other: check runs no copy and serves no client.
var simNames = map[string][]string{
	"copy":  {"sim_cp_kbs", "sim_scp_kbs", "sim_cp_avail_pct", "sim_scp_avail_pct"},
	"serve": {"sim_cp_kbs", "sim_scp_kbs", "sim_cp_avail_pct", "sim_scp_avail_pct", "sim_cp_p99_ms", "sim_scp_p99_ms"},
	"check": nil,
}

// line is one "kind name value unit" report line.
type line struct {
	value float64
	unit  string
}

// runTiny runs one round of a workload and parses its report.
func runTiny(t *testing.T, workload string, trace bool) (map[string]map[string]line, string, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	o := options{workload: workload, seed: defaultSeed, seconds: 1, trace: trace, outDir: t.TempDir(), rounds: 1}
	rep, err := run(o, time.Now(), &buf)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if err := printJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	got := map[string]map[string]line{}
	digest := ""
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		switch {
		case f[0] == "FAIL":
			t.Errorf("%s: %s", workload, l)
		case f[0] == "digest":
			digest = f[1]
		case len(f) >= 4 && (f[0] == "metric" || f[0] == "sim" || f[0] == "layer"):
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", workload, l, err)
			}
			if got[f[0]] == nil {
				got[f[0]] = map[string]line{}
			}
			got[f[0]][f[1]] = line{v, f[3]}
			if f[0] == "layer" && !strings.Contains(l, "# moves ") {
				t.Errorf("%s: layer line names no end-to-end metric: %q", workload, l)
			}
		}
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	return got, digest, js
}

func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, d0, js0 := runTiny(t, w.name, false)
			traced, d1, js1 := runTiny(t, w.name, true)

			if d0 == "" || d0 != d1 {
				t.Errorf("determinism digest %q untraced, %q traced", d0, d1)
			}
			for _, js := range []map[string]any{js0, js1} {
				if js["correct"] != true || js["failed"] != 0.0 {
					t.Errorf("correct=%v failed=%v", js["correct"], js["failed"])
				}
			}
			if l := plain["metric"]["failed_pct"]; l.unit != "%" || l.value != 0 {
				t.Errorf("failed_pct = %v %s, want 0 %%", l.value, l.unit)
			}
			checkMetrics(t, "end-to-end", e2eDefs, plain["metric"], js0)
			checkMetrics(t, "per-layer", layerDefs, traced["layer"], js1)
			var profiled float64
			for name, l := range traced["layer"] {
				if strings.HasPrefix(name, "prof.") {
					profiled += l.value
				}
			}
			if profiled <= 0 {
				t.Error("the CPU profile attributed no time to any module")
			}

			if len(plain["sim"]) != len(simNames[w.name]) {
				t.Errorf("sim metrics %v, want %v", plain["sim"], simNames[w.name])
			}
			for _, name := range simNames[w.name] {
				p, ok := plain["sim"][name]
				if !ok || p.unit == "" || p.value <= 0 {
					t.Errorf("sim metric %s = %+v", name, p)
				}
				if q := traced["sim"][name]; q != p {
					t.Errorf("sim metric %s is %+v untraced, %+v traced", name, p, q)
				}
			}
		})
	}
}

// checkMetrics asserts every defined metric is printed with its unit,
// both in the report lines and in the JSON, and nothing else is in the JSON.
func checkMetrics(t *testing.T, kind string, defs []metricDef, printed map[string]line, js map[string]any) {
	t.Helper()
	ms, _ := js["metrics"].(map[string]any)
	if len(ms) != len(defs) {
		t.Errorf("%s: JSON has %d metrics, want %d", kind, len(ms), len(defs))
	}
	for _, d := range defs {
		if l, ok := printed[d.name]; !ok || l.unit != d.unit {
			t.Errorf("%s metric %s printed as %+v, want unit %s", kind, d.name, l, d.unit)
		}
		m, _ := ms[d.name].(map[string]any)
		if m == nil || m["unit"] != d.unit {
			t.Errorf("%s metric %s in JSON as %v, want unit %s", kind, d.name, m, d.unit)
		}
	}
}

// TestServeMatchesBench holds the benchmark's assembled server cells to
// bench.MeasureServerEngine's at the default seed.
func TestServeMatchesBench(t *testing.T) {
	for _, j := range serveRound(defaultSeed, 0) {
		if j.kind != "serve.procs-cp.8" && j.kind != "serve.procs-scp.8" {
			continue
		}
		o, err := j.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", j.kind, err)
		}
		mode := server.ModeCopy
		if j.kind == "serve.procs-scp.8" {
			mode = server.ModeSplice
		}
		c := bench.MeasureServerEngine(8, server.EngineProcs, mode)
		want := map[string]float64{"kbs": c.KBs, "avail": c.AvailPct, "p99_ms": float64(c.P99) / float64(sim.Millisecond)}
		for k, v := range want {
			if o.vals[k] != v {
				t.Errorf("%s %s = %v, bench gives %v", j.kind, k, o.vals[k], v)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json's metric lists to the ones
// this program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", cfg.EndToEnd, e2eDefs}, {"per_layer", cfg.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s has %d metrics, want %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, g := range c.got {
			if w := c.want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, want %+v", c.kind, i, g, w)
			}
		}
	}
}
