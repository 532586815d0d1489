package repro

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every examples/ main and runs it: each must
// exit 0. attacksim exits non-zero when a defence fails, so this is
// also the attack suite's gate.
func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			if out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
		})
	}
}
