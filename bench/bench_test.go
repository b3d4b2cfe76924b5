package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestTinyPass runs all four workloads at tiny scale with the traced pass
// on and checks the shape of what they emit: every metric once, with a
// unit, under a well-formed name; no failed operation; every end-to-end
// metric non-zero on every workload; every per-layer metric measured by
// at least one workload; dense48 and shardnet48 on the same trajectory.
func TestTinyPass(t *testing.T) {
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	parse := func(res *result, defs []metricDef) line {
		t.Helper()
		var l line
		if err := json.Unmarshal([]byte(res.contractLine()), &l); err != nil {
			t.Fatalf("%s: result line: %v", res.Workload, err)
		}
		if len(l.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics on the result line, want %d", res.Workload, len(l.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := l.Metrics[d.name]
			switch {
			case !nameRE.MatchString(d.name):
				t.Errorf("metric name %q is malformed", d.name)
			case !ok || m.Value == nil:
				t.Errorf("%s: %s is missing", res.Workload, d.name)
			case m.Unit != d.unit || d.unit == "":
				t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
			}
		}
		return l
	}

	o := options{seed: 9, trace: true, scale: scales["tiny"], out: t.TempDir()}
	measured := map[string]bool{}
	checksums := map[string]string{}
	for _, w := range workloads {
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for name := range res.Metrics {
			if !known(name) {
				t.Errorf("%s: %s is measured but not in the metric table", w.name, name)
			}
		}
		for name, v := range parse(res, perLayer).Metrics {
			if *v.Value != 0 {
				measured[name] = true
			}
		}
		res.Trace = false
		for name, v := range parse(res, endToEnd).Metrics {
			if *v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, *v.Value)
			}
		}
		checksums[w.name] = res.Checksum
	}
	for _, d := range perLayer {
		// Nothing is shed or throttled on a correct run, and the tiny
		// fleets' discovery graphs do not churn.
		switch d.name {
		case "collector.shed_frames", "collector.throttled_frames", "discover.churn_pairs":
			continue
		}
		if !measured[d.name] {
			t.Errorf("no workload measured %s", d.name)
		}
	}
	if checksums["dense48"] != checksums["shardnet48"] {
		t.Errorf("dense48 checksum %s, shardnet48 checksum %s", checksums["dense48"], checksums["shardnet48"])
	}
}

func known(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, {%s %s} in the package", i, got, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the package", len(got), kind, len(want))
		}
		for i, d := range want {
			if kind == "per_layer" {
				d.bound = 0 // BENCHMARK.json takes no bound there
			}
			if g := got[i]; g != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the package", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
