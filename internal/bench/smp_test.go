package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSMPDeterministic: the whole SMP experiment — five runtimes, four
// vCPU counts, migrations, shootdowns, closed-loop throughput — replays
// byte-identically from a seed other than the committed one.
func TestSMPDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := RunSMP(1, SMPSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("smp report not deterministic: runs differ at line %d", firstDiffLine(a, b))
	}
}

// TestSMPReportShape: the scaling invariants are not an accident of
// the committed seed — another seed's grid also shoots down on every
// multi-vCPU cell — and the table names every runtime.
func TestSMPReportShape(t *testing.T) {
	rep, err := RunSMP(1, SMPSeed+1)
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
	for _, want := range []string{"RunC", "HVM-BM", "PVM-BM", "CKI-BM", "gVisor"} {
		if !strings.Contains(out, want) {
			t.Errorf("smp table missing %q", want)
		}
	}
}

// TestSMPJSONSchema: the committed BENCH_smp.json carries, on every
// row, the fields EXPERIMENTS.md promises (TestArtifacts pins the
// regenerated report to these bytes).
func TestSMPJSONSchema(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_smp.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Seed *uint64          `json:"seed"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rep.Seed == nil || len(rep.Rows) != 5*len(SMPVCPUCounts) {
		t.Fatalf("seed %v, %d rows", rep.Seed, len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for _, key := range []string{"runtime", "vcpus", "throughput_ops_per_sec",
			"shootdown_latency_ns", "speedup_vs_1vcpu"} {
			if _, ok := row[key]; !ok {
				t.Errorf("row missing %q: %v", key, row)
			}
		}
	}
}
