package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRunWallclockSmoke runs the wall-clock experiment at a tiny
// measurement budget and checks the artifact schema plus the pinned
// allocation budgets: the hot paths measured into BENCH_wallclock must
// be allocation-free per op.
func TestRunWallclockSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement in -short mode")
	}
	rep, err := RunWallclock(WallclockOpts{
		Scale:     1,
		Parallel:  2,
		BenchTime: 5 * time.Millisecond,
		Reps:      1,
		Seeds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostCPUs < 1 || rep.GoMaxProcs < 1 {
		t.Errorf("host section not populated: %+v", rep)
	}
	byName := map[string]WallclockBench{}
	for _, e := range rep.Benches {
		if e.NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op = %v, want > 0", e.Name, e.NsPerOp)
		}
		byName[e.Name] = e
	}
	for _, want := range []string{
		"getpid_flow/RunC", "getpid_flow/CKI-BM",
		"smp_cell_round/RunC", "smp_cell_round/CKI-BM",
		"shootdown/8vcpu",
		"tlb/lookup_hit", "tlb/insert_evict", "tlb/flush_page_reinsert",
		"audit/record", "trace/span_nil",
		"snapshot/encode_to", "pagestore/lookup",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing bench entry %q", want)
		}
	}
	// The zero-allocation pins (same budgets AllocsPerRun gates enforce
	// in the per-package tests).
	for _, name := range []string{
		"shootdown/8vcpu", "tlb/lookup_hit", "tlb/insert_evict",
		"tlb/flush_page_reinsert", "audit/record", "trace/span_nil",
		"snapshot/encode_to", "pagestore/lookup",
	} {
		if e := byName[name]; e.AllocsPerOp != 0 {
			t.Errorf("%s: allocs_per_op = %d, want 0", name, e.AllocsPerOp)
		}
	}
	if len(rep.FlushByCapacity) != 3 {
		t.Fatalf("flush curve has %d points, want 3", len(rep.FlushByCapacity))
	}
	// Flush cost must not scale with capacity: allow generous noise, but
	// a 32x capacity step may not cost even 4x (the old O(capacity) scan
	// cost ~32x).
	lo, hi := rep.FlushByCapacity[0], rep.FlushByCapacity[2]
	if hi.NsPerFlush > 4*lo.NsPerFlush {
		t.Errorf("flush cost scales with capacity: cap %d = %.0fns vs cap %d = %.0fns",
			lo.Capacity, lo.NsPerFlush, hi.Capacity, hi.NsPerFlush)
	}
	if len(rep.Speedups) != 2 {
		t.Fatalf("speedups = %d entries, want 2 (smp, chaos)", len(rep.Speedups))
	}
	for _, s := range rep.Speedups {
		if s.SequentialMs <= 0 || s.ParallelMs <= 0 || s.Speedup <= 0 {
			t.Errorf("speedup entry not populated: %+v", s)
		}
	}

	var buf bytes.Buffer
	if err := WriteWallclockJSON(rep, &buf); err != nil {
		t.Fatal(err)
	}
	round := &WallclockReport{}
	if err := json.Unmarshal(buf.Bytes(), round); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if len(round.Benches) != len(rep.Benches) {
		t.Errorf("round-trip lost bench entries: %d != %d", len(round.Benches), len(rep.Benches))
	}

	buf.Reset()
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shootdown/8vcpu", "ns/flush", "speedup"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("wallclock table missing %q:\n%s", want, buf.String())
		}
	}
}
