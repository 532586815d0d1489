package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestSLOExperiment: the -slo-out and -bundle-out writers emit one
// timeline per runtime and one file per bundle of the committed run
// (TestArtifacts checks its report), and the timelines round-trip
// through CKITS1.
func TestSLOExperiment(t *testing.T) {
	e, ok := Find("slo")
	if !ok {
		t.Fatal("slo not registered")
	}
	seq := runAt(t, e, 1).(*SLOReport)
	dir := t.TempDir()
	if err := WriteSLOTimelines(seq, dir); err != nil {
		t.Fatal(err)
	}
	if err := WriteSLOBundles(seq, dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	timelines, bundles := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".ckits"):
			timelines++
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			st, err := telemetry.DecodeBinary(data)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if st.Ticks() == 0 || len(st.Series()) == 0 {
				t.Errorf("%s: decoded empty store", e.Name())
			}
		case strings.HasSuffix(e.Name(), ".json"):
			bundles++
		}
	}
	if timelines != len(seq.Rows) {
		t.Errorf("wrote %d timelines, want %d", timelines, len(seq.Rows))
	}
	if bundles != len(seq.FullBundles) {
		t.Errorf("wrote %d bundle files, want %d", bundles, len(seq.FullBundles))
	}
}
