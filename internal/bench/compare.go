package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// This file is the perf-trajectory gate: it compares a freshly measured
// SMP report against the committed baseline artifact and flags relative
// regressions. The simulator is deterministic, so any delta at all is a
// code change, not noise — the tolerance only decides which deltas are
// regressions worth failing the gate over.

// DefaultRegressionTolerance is the relative throughput loss the gate
// accepts before failing (10%).
const DefaultRegressionTolerance = 0.10

// Delta is one metric's change between a baseline row and the matching
// candidate row.
type Delta struct {
	Runtime string
	VCPUs   int
	Metric  string
	Old     float64
	New     float64
	// Rel is (New-Old)/Old, or 0 when Old is 0.
	Rel float64
}

// smpMetrics enumerates the compared metrics in table order, keyed by
// their JSON names so the gate output matches the artifact fields.
var smpMetrics = []struct {
	name string
	get  func(r SMPRow) float64
}{
	{"service_ns", func(r SMPRow) float64 { return r.ServiceNs }},
	{"shootdown_latency_ns", func(r SMPRow) float64 { return r.ShootdownNs }},
	{"throughput_ops_per_sec", func(r SMPRow) float64 { return r.Throughput }},
	{"speedup_vs_1vcpu", func(r SMPRow) float64 { return r.Speedup }},
}

// CompareReports matches rows by (runtime, vCPU count) and returns the
// per-metric relative deltas in the baseline's row order. A row present
// in one report but not the other is an error: the experiment matrix
// itself changed and the baseline must be regenerated.
func CompareReports(old, cur *SMPReport) ([]Delta, error) {
	curRows := make(map[string]SMPRow, len(cur.Rows))
	key := func(r SMPRow) string { return fmt.Sprintf("%s/%d", r.Runtime, r.VCPUs) }
	for _, r := range cur.Rows {
		curRows[key(r)] = r
	}
	var out []Delta
	for _, o := range old.Rows {
		c, ok := curRows[key(o)]
		if !ok {
			return nil, fmt.Errorf("bench: baseline row %s x%d missing from current report", o.Runtime, o.VCPUs)
		}
		delete(curRows, key(o))
		for _, m := range smpMetrics {
			ov, cv := m.get(o), m.get(c)
			d := Delta{Runtime: o.Runtime, VCPUs: o.VCPUs, Metric: m.name, Old: ov, New: cv}
			if ov != 0 {
				d.Rel = (cv - ov) / ov
			}
			out = append(out, d)
		}
	}
	if len(curRows) > 0 {
		return nil, fmt.Errorf("bench: current report has %d rows absent from the baseline", len(curRows))
	}
	return out, nil
}

// ThroughputRegressions filters the deltas down to throughput drops
// beyond tol (a relative fraction; DefaultRegressionTolerance when the
// caller passes 0 or less).
func ThroughputRegressions(deltas []Delta, tol float64) []Delta {
	if tol <= 0 {
		tol = DefaultRegressionTolerance
	}
	var bad []Delta
	for _, d := range deltas {
		if d.Metric == "throughput_ops_per_sec" && d.Rel < -tol {
			bad = append(bad, d)
		}
	}
	return bad
}

// WriteDeltaTable renders the comparison, marking every changed metric
// and flagging throughput regressions beyond tol.
func WriteDeltaTable(deltas []Delta, tol float64, w io.Writer) error {
	if tol <= 0 {
		tol = DefaultRegressionTolerance
	}
	t := NewTable("Baseline comparison (perf-trajectory gate)",
		"runtime", "vCPUs", "metric", "baseline", "current", "delta", "flag")
	for _, d := range deltas {
		flag := ""
		switch {
		case d.Metric == "throughput_ops_per_sec" && d.Rel < -tol:
			flag = "REGRESSION"
		case math.Abs(d.Rel) > 1e-12:
			flag = "changed"
		}
		t.Row(d.Runtime, itoa(d.VCPUs), d.Metric,
			fmt.Sprintf("%.2f", d.Old), fmt.Sprintf("%.2f", d.New),
			fmt.Sprintf("%+.2f%%", 100*d.Rel), flag)
	}
	t.Note("gate: throughput_ops_per_sec must not drop more than %.0f%%", 100*tol)
	_, err := t.WriteTo(w)
	return err
}

// gatedSMP is an smp report that, after rendering, compares itself
// against the committed report at baseline and fails when any
// runtime's throughput regressed beyond DefaultRegressionTolerance.
type gatedSMP struct {
	*SMPReport
	baseline string
}

func (g gatedSMP) WriteTable(w io.Writer) error {
	if err := g.SMPReport.WriteTable(w); err != nil {
		return err
	}
	return g.gate(w)
}

func (g gatedSMP) WriteJSON(w io.Writer) error {
	if err := g.SMPReport.WriteJSON(w); err != nil {
		return err
	}
	return g.gate(w)
}

func (g gatedSMP) gate(w io.Writer) error {
	b, err := os.ReadFile(g.baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	old := &SMPReport{}
	if err := json.Unmarshal(b, old); err != nil {
		return fmt.Errorf("baseline %s: %w", g.baseline, err)
	}
	deltas, err := CompareReports(old, g.SMPReport)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := WriteDeltaTable(deltas, DefaultRegressionTolerance, w); err != nil {
		return err
	}
	var bad []string
	for _, d := range ThroughputRegressions(deltas, DefaultRegressionTolerance) {
		bad = append(bad, fmt.Sprintf("%s x%d throughput %.0f -> %.0f (%+.1f%%)",
			d.Runtime, d.VCPUs, d.Old, d.New, 100*d.Rel))
	}
	if len(bad) > 0 {
		return fmt.Errorf("REGRESSION: %s", strings.Join(bad, "; "))
	}
	_, err = fmt.Fprintf(w, "baseline gate: PASS (throughput within %.0f%% of %s)\n",
		100*DefaultRegressionTolerance, g.baseline)
	return err
}
