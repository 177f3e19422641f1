package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// smokeRuns caches one smoke-sized run per workload and mode so the tests
// below share them.
var smokeRuns sync.Map

func smokeRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	key := workload + map[bool]string{false: "/0", true: "/1"}[trace]
	if r, ok := smokeRuns.Load(key); ok {
		return r.(*result)
	}
	r, err := runWorkload(workload, options{seed: 1, seconds: 0.5, trace: trace, smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	smokeRuns.Store(key, r)
	return r
}

// TestSmoke runs all four workloads in both modes at smoke size and checks
// the contract: exactly the dictionary's names, every metric with its unit
// and a sample count, no failures, and the correctness checks ran and held.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := smokeRun(t, w.Name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case !trace && (m.N < 1 || m.Value <= 0):
					t.Errorf("%s: end-to-end %s = %v with n = %d; it must be measured and never 0", w.Name, d.Name, m.Value, m.N)
				case trace && isTime(d.Unit) && (m.N < 1 || m.Value == 0):
					t.Errorf("%s: timing %s = %v with n = %d; every timing is measured on every workload", w.Name, d.Name, m.Value, m.N)
				}
			}
			if r.Failed != 0 || r.Attempted < 1 || !r.Correct {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v", w.Name, trace, r.Attempted, r.Failed, r.Correct)
			}
			if len(r.Checks) == 0 {
				t.Errorf("%s trace=%v: no correctness check ran", w.Name, trace)
			}
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %q failed: %s", w.Name, trace, c.Name, c.Note)
				}
			}
			var line bytes.Buffer
			printContractLine(&line, r)
			var parsed map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("%s: contract line %q: %v", w.Name, line.String(), err)
			}
		}
	}
	if hot, wide := smokeRun(t, "serve_hot", true), smokeRun(t, "serve_wide", true); true {
		t.Logf("per-row share: serve_hot %.3f, serve_wide %.3f (smoke size)",
			hot.Metrics["trace.per_row_share"].Value, wide.Metrics["trace.per_row_share"].Value)
	}
}

func isTime(unit string) bool { return unit == "s" || unit == "ms" || unit == "us" || unit == "ns" }

// TestSpecMatchesBenchmarkJSON keeps the dictionary in spec.go and the
// driver's BENCHMARK.json equal.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go has %d", spec.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", spec.Workloads, workloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", spec.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"perfbench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the contract's length limits", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// streams returns every statement stream the benchmark generates for a
// seed, at smoke size.
func streams(t *testing.T, seed int64) map[string][]string {
	t.Helper()
	st, err := newStack(tuneOffline.smoke().scale)
	if err != nil {
		t.Fatal(err)
	}
	tune, err := tuneWorkload(st, tuneOffline.smoke().queries, seed)
	if err != nil {
		t.Fatal(err)
	}
	d := dimsAt(0.2)
	return map[string][]string{
		"serve_hot":    serveHotStream(newRand(seed), d, 200),
		"serve_wide":   serveWideStream(newRand(seed), d, 200),
		"tune_offline": tune,
		"churn_onfly":  newChurnGen(newRand(seed), d).stream(400),
	}
}

func digestStreams(m map[string][]string) string {
	h := sha256.New()
	for _, w := range workloads {
		for _, s := range m[w.Name] {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterminism: one seed gives byte-identical statement streams and
// identical exact metrics; another seed gives other streams. The pinned
// digest makes a change of the inputs — in this directory, in
// internal/datagen or in internal/workload — show up as a failure here
// instead of as a silent shift of every number.
func TestDeterminism(t *testing.T) {
	a, b, c := streams(t, 1), streams(t, 1), streams(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	for _, w := range workloads {
		if reflect.DeepEqual(a[w.Name], c[w.Name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
	const pinned = "a3e60c7396a00b0af1d5e5c604d3c18e1fc288af3a8627502a55443475afe328"
	if got := digestStreams(a); got != pinned {
		t.Errorf("statement streams of seed 1 changed: digest %s, pinned %s. If the inputs were meant to change, every earlier result is void: re-measure the baseline and update the digest.", got, pinned)
	}

	first := smokeRun(t, "tune_offline", true)
	again, err := runWorkload("tune_offline", options{seed: 1, seconds: 0.5, trace: true, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exactMetrics {
		if x, y := first.Metrics[name].Value, again.Metrics[name].Value; x != y {
			t.Errorf("%s: %v then %v for one seed", name, x, y)
		}
	}
}

// TestDimsMatchDatagen pins the key ranges the stream templates assume to
// the database the generator actually builds.
func TestDimsMatchDatagen(t *testing.T) {
	for _, scale := range []float64{0.2, 2} {
		st, err := newStack(scale)
		if err != nil {
			t.Fatal(err)
		}
		d := dimsAt(scale)
		for table, want := range map[string]int{"supplier": d.supplier, "customer": d.customer,
			"part": d.part, "orders": d.orders} {
			td, err := st.db.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			if td.RowCount() != want {
				t.Errorf("scale %v: %s has %d rows, dimsAt says %d", scale, table, td.RowCount(), want)
			}
		}
	}
}

// TestCompareVerdicts drives -compare over synthetic documents.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	doc := func(name string, p50s ...float64) string {
		var runs []*result
		for _, v := range p50s {
			r := newResult("serve_hot", false, 1, 1)
			r.set("op_p50_ms", v, 10)
			runs = append(runs, r)
		}
		path := filepath.Join(dir, name)
		if err := writeDocument(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc("a.json", 1.00, 1.01, 0.99, 1.02, 0.98)
	for _, tc := range []struct {
		name    string
		b       []float64
		verdict string
		worse   bool
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.02, 1.00}, "ok", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.32, 1.28}, "worse", true},
		{"noisy", []float64{0.7, 1.0, 1.3, 1.6, 1.9}, "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, doc(tc.name+".json", tc.b...))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), "  "+tc.verdict+" ") {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
}
