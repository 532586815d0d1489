package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the names come from.
type benchmarkSpec struct {
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

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks that the workloads and metrics the
// command prints are exactly those BENCHMARK.json declares, in order
// and with the same units, and that every name is well formed.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	var wl []string
	for _, w := range s.Workloads {
		wl = append(wl, w.Name)
	}
	if got, want := strings.Join(workloadNames(), " "), strings.Join(wl, " "); got != want {
		t.Errorf("workloads %q, BENCHMARK.json declares %q", got, want)
	}
	check := func(kind string, got []metric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %v, BENCHMARK.json declares %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metric
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	check("end_to_end", endToEndSpecs, e2e)
	check("per_layer", perLayerSpecs(), layer)

	seen := map[string]bool{}
	all := append(append([]metric(nil), endToEndSpecs...), perLayerSpecs()...)
	for _, w := range workloadNames() {
		all = append(all, metric{name: w})
	}
	for _, m := range all {
		if !nameRE.MatchString(m.name) {
			t.Errorf("name %q has characters other than letters, digits, _, . and -", m.name)
		}
		if seen[m.name] {
			t.Errorf("name %q used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestPredictionsCoverEveryLayerMetric checks that predictions.json
// states, for every per-layer metric, which end-to-end metric it should
// move and where.
func TestPredictionsCoverEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var preds []struct {
		Metrics []string `json:"metrics"`
		Moves   []string `json:"moves"`
		On      []string `json:"on"`
		NotOn   []string `json:"not_on"`
	}
	if err := json.Unmarshal(b, &preds); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, m := range endToEndSpecs {
		known[m.name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloadNames() {
		wl[w] = true
	}
	covered := map[string]int{}
	for _, p := range preds {
		for _, m := range p.Metrics {
			covered[m]++
		}
		for _, m := range p.Moves {
			if !known[m] {
				t.Errorf("prediction for %v moves unknown end-to-end metric %q", p.Metrics, m)
			}
		}
		for _, w := range append(append([]string(nil), p.On...), p.NotOn...) {
			if !wl[w] {
				t.Errorf("prediction for %v names unknown workload %q", p.Metrics, w)
			}
		}
	}
	for _, m := range perLayerSpecs() {
		if covered[m.name] != 1 {
			t.Errorf("per-layer metric %s has %d predictions, want 1", m.name, covered[m.name])
		}
		delete(covered, m.name)
	}
	for m := range covered {
		t.Errorf("prediction for undeclared metric %s", m)
	}
}

// copyRefs copies the machine workload's reference files into a fresh
// checkout root.
func copyRefs(t *testing.T, seed uint64) string {
	t.Helper()
	root := t.TempDir()
	for _, r := range findWorkload("machine").refs(seed) {
		b, err := os.ReadFile(filepath.Join("..", r))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, r), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runMachine(t *testing.T, root string, seed uint64, trace bool) (*result, string, error) {
	t.Helper()
	cfg := config{workload: "machine", seed: seed, seconds: time.Second, trace: trace,
		root: root, out: t.TempDir(), procs: 1}
	var log, errLog bytes.Buffer
	res, err := run(cfg, &log, &errLog)
	return res, errLog.String(), err
}

// TestCorruptReferenceFails corrupts one byte of a copy of
// BENCH_smp.json and checks that the mismatch is reported and fails the
// run.
func TestCorruptReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the machine workload")
	}
	root := copyRefs(t, 0)
	p := filepath.Join(root, "BENCH_smp.json")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errLog, err := runMachine(t, root, 0, false)
	if err == nil {
		t.Fatal("run with a corrupted reference succeeded")
	}
	if !strings.Contains(errLog, "check failed: BENCH_smp.json: output differs from the reference") {
		t.Errorf("failure not reported; stderr:\n%s", errLog)
	}
}

// TestRunReportsDeclaredMetrics runs the machine workload untraced with
// the committed seeds and traced with a held-out seed, and checks that
// each result carries exactly its declared metrics with no failed
// check.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the machine workload")
	}
	for _, tc := range []struct {
		seed  uint64
		trace bool
		specs []metric
	}{{0, false, endToEndSpecs}, {7, true, perLayerSpecs()}} {
		res, errLog, err := runMachine(t, copyRefs(t, tc.seed), tc.seed, tc.trace)
		if err != nil {
			t.Fatalf("seed %d trace %v: %v\n%s", tc.seed, tc.trace, err, errLog)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("seed %d trace %v: correct %v, %d of %d checks failed", tc.seed, tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(tc.specs) {
			t.Errorf("seed %d trace %v: %d metrics, want %d", tc.seed, tc.trace, len(res.Metrics), len(tc.specs))
		}
		for _, m := range tc.specs {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("seed %d trace %v: metric %s = %+v, want unit %s", tc.seed, tc.trace, m.name, got, m.unit)
			}
		}
	}
}

func TestCPUGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/guest.(*Kernel).fileWrite":        "guest",
		"repro/internal/mem.(*PhysMem).Page (inline)":     "mem",
		"repro/internal/faults.Child":                     "other",
		"runtime.memmove":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "runtime",
		"container/heap.down":                             "container_heap",
		"sort.insertionSortCmpFunc[go.shape.struct {}]":   "other",
		"repro/internal/des.eventHeap.Less":               "des",
		"repro/perfbench.sqliteProbe":                     "other",
		"repro/internal/telemetry.(*FleetProbe).Scrape":   "telemetry",
		"repro/internal/bench.RunFleet.func3":             "bench",
		"repro/internal/pagetable.(*Walker).Walk":         "pagetable",
		"repro/internal/snapshot.filePageDigest (inline)": "snapshot",
	} {
		if got := cpuGroup(strings.Fields(fn)[0]); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}
