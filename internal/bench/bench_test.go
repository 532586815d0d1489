package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// runs memoizes registry runs at the default options by experiment
// and -parallel, so TestArtifacts, TestExtensionsRun and the writer
// tests share one run of each artifact experiment.
var runs = map[string]Report{}

// runAt runs e at the default options and the given -parallel.
func runAt(t *testing.T, e Experiment, parallel int) Report {
	t.Helper()
	key := fmt.Sprintf("%s@%d", e.ID, parallel)
	if rep, ok := runs[key]; ok {
		return rep
	}
	a := DefaultArgs()
	a.Parallel = parallel
	rep, err := e.Run(a)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	runs[key] = rep
	return rep
}

// renders checks that e's table mode writes something.
func renders(t *testing.T, e Experiment) {
	var buf bytes.Buffer
	if err := runAt(t, e, 1).WriteTable(&buf); err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s produced no output", e.ID)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range paperExperiments() {
		t.Run(e.ID, func(t *testing.T) { renders(t, e) })
	}
}

// TestExtensionsRun renders every extension's table; the wallclock
// experiment measures the host for seconds, so TestRunWallclockSmoke
// renders it at a small budget instead.
func TestExtensionsRun(t *testing.T) {
	for _, e := range extensions() {
		if e.HostTimed {
			continue
		}
		t.Run(e.ID, func(t *testing.T) { renders(t, e) })
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig12"); !ok {
		t.Error("fig12 not found")
	}
	if _, ok := Find("fig99"); ok {
		t.Error("bogus experiment found")
	}
	// All IDs unique.
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if n := len(paperExperiments()); n != 16 {
		t.Errorf("paper experiment count = %d, want 16 (every table & figure)", n)
	}
}

func TestTab3ReportsNoMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Tab3(1, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "MISMATCH") {
		t.Errorf("Table 3 regeneration disagrees with the paper:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wrpkrs") {
		t.Error("Table 3 output missing rows")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "bee", "c")
	tab.Row("x", "1", "2")
	tab.Rowf("y", "%.1f", 3.14159, 2.71828)
	tab.Note("hello %d", 42)
	out := tab.String()
	for _, want := range []string{"== demo ==", "bee", "3.1", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig16OutputHasCurves(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig16(1, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"memcached", "redis", "CKI-NST", "HVM-NST"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig16 output missing %q", want)
		}
	}
}
