package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the program must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func inProcess(w workload, seed uint64) runner {
	return func(mode string) (runResult, error) {
		r, _, err := runOnce(w, seed, mode)
		return r, err
	}
}

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if !equalDefs(s.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", s.EndToEnd, endToEnd)
	}
	if !equalDefs(s.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
}

// TestEveryMetricEmitted runs each workload at tiny size through the
// same aggregation and printing the benchmark uses, and checks the last
// line names every metric of BENCHMARK.json with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames {
		w, err := lookupWorkload(name, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		for trace, defs := range [][]metricDef{s.EndToEnd, s.PerLayer} {
			o := options{workload: name, seed: defaultSeed, trace: trace, scale: "tiny"}
			rep, err := collect(w, o, inProcess(w, o.seed), io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep); err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			var p printed
			if err := json.Unmarshal(lastLine(out.Bytes()), &p); err != nil {
				t.Fatalf("%s trace %d: last line: %v", name, trace, err)
			}
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", name, trace, p.Correct, p.Failed, p.Attempted)
			}
			if len(p.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(p.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := p.Metrics[d.Name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace %d: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, want %q", name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || *m.Value < 0:
					t.Errorf("%s trace %d: metric %s = %v", name, trace, d.Name, *m.Value)
				case trace == 0 && *m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
			}
		}
	}
}

// TestTracedRunMatchesUntraced checks the tracing decorator leaves the
// simulation untouched and forwards the protocol counters.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"hotspot-steady", "mobile-light"} {
		w, _ := lookupWorkload(name, "tiny")
		plain, _, err := runOnce(w, 7, modeRun)
		if err != nil {
			t.Fatal(err)
		}
		traced, tr, err := runOnce(w, 7, modeTraced)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, traced.Digest, plain.Digest)
		}
		for _, m := range []string{"core.grants.local", "core.request.count", "core.release.count", "driver.send.count", "driver.result.count", "sim.events", "sim.windows"} {
			if traced.Layers[m] <= 0 {
				t.Errorf("%s: traced %s = %v, want > 0", name, m, traced.Layers[m])
			}
		}
		if len(tr.phases) == 0 {
			t.Errorf("%s: no coarse spans recorded", name)
		}
		for i := range tr.shards {
			if n := len(tr.shards[i].stack); n != 0 {
				t.Errorf("%s: shard %d span stack left %d deep", name, i, n)
			}
		}
	}
	w, _ := lookupWorkload("hotspot-steady", "tiny")
	plain, _, _ := runOnce(w, 7, modeRun)
	verify, _, err := runOnce(w, 7, modeVerify)
	if err != nil {
		t.Fatal(err)
	}
	if verify.Digest != plain.Digest || len(verify.CheckMS) == 0 {
		t.Errorf("verification run: digest %s (untraced %s), %d checks", verify.Digest, plain.Digest, len(verify.CheckMS))
	}
}

func TestSeedDeterminesDigest(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name, "tiny")
		a, _, errA := runOnce(w, defaultSeed, modeRun)
		b, _, errB := runOnce(w, defaultSeed, modeRun)
		c, _, errC := runOnce(w, defaultSeed+1, modeRun)
		if errA != nil || errB != nil || errC != nil {
			t.Fatal(errA, errB, errC)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, digests %s and %s", name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds %d and %d share digest %s", name, defaultSeed, defaultSeed+1, a.Digest)
		}
		if pin := pins["tiny/"+name]; a.Digest != pin {
			t.Errorf("%s: default-seed digest %s, pinned %s", name, a.Digest, pin)
		}
	}
}

func TestGuardRefusesOversubscription(t *testing.T) {
	if err := guard(1 << 20); err == nil {
		t.Error("guard accepted more workers than GOMAXPROCS")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]metricDef(nil), a...)
	y := append([]metricDef(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i].Name < x[j].Name })
	sort.Slice(y, func(i, j int) bool { return y[i].Name < y[j].Name })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
