package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestChaosSurvivalShape: the survival invariants are not an accident
// of the committed seed — a derived seed's cluster also serves on every
// runtime and crashes somewhere — and the table names every runtime.
func TestChaosSurvivalShape(t *testing.T) {
	rep, err := RunChaos(1, faults.Child(ChaosSeed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Invariants(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RunC", "HVM-BM", "PVM-BM", "CKI-BM", "gVisor", "MTTR"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos table missing %q", want)
		}
	}
}
