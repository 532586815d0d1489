package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestArtifacts regenerates every committed BENCH_<id>.json from the
// registry at -parallel 1 and 8. Both runs must produce the committed
// bytes, and the report must satisfy its experiment's Invariants.
func TestArtifacts(t *testing.T) {
	for _, e := range Experiments() {
		if !e.JSON || e.HostTimed {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+e.ID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []int{1, 8} {
				rep, ok := runAt(t, e, parallel).(Artifact)
				if !ok {
					t.Fatalf("%s: report is not an Artifact", e.ID)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("-parallel %d: report differs from BENCH_%s.json at line %d",
						parallel, e.ID, firstDiffLine(buf.Bytes(), want))
				}
				if err := rep.Invariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// sameAcrossParallel runs an experiment at -parallel 1 and 8, fails
// unless the two JSON reports are byte-identical, and returns the first.
func sameAcrossParallel[R JSONReport](t *testing.T, run func(parallel int) (R, error)) R {
	t.Helper()
	var reps [2]R
	var out [2]bytes.Buffer
	for i, parallel := range []int{1, 8} {
		rep, err := run(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("report differs between -parallel 1 and 8 at line %d", firstDiffLine(out[0].Bytes(), out[1].Bytes()))
	}
	return reps[0]
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
