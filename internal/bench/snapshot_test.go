package bench

import (
	"testing"
)

// TestSnapshotReportShape: the snapshot invariants — a live,
// fingerprint-verified restore per runtime, converged pre-copy, and
// warm restarts beating cold on CKI and PVM — hold off the committed
// checkpoint interval too.
func TestSnapshotReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full snapshot grid in -short mode")
	}
	rep := sameAcrossParallel(t, func(parallel int) (*SnapshotReport, error) {
		return RunSnapshot(1, parallel, 2)
	})
	if err := rep.Invariants(); err != nil {
		t.Fatal(err)
	}
}
