package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Cycle-attribution profiles over the SMP experiment: the same seeded
// runs as RunSMP, with the span recorder and metrics registry attached.
// Because both observers are nil-safe no-ops on the virtual clock, the
// profiled report is identical — byte for byte — to the plain one; the
// profile adds the per-phase decomposition (Table-2 style), the folded
// stacks, the Chrome trace and the metrics snapshot on top.

// SMPRun is the span capture of one (runtime, vCPU count) bench run.
type SMPRun struct {
	Runtime string `json:"runtime"`
	VCPUs   int    `json:"vcpus"`
	// ServiceLoPs/ServiceHiPs bound the 16-request service-time
	// measurement window on the 1-vCPU run (both zero otherwise). The
	// non-async root spans inside it sum to exactly ServiceHiPs -
	// ServiceLoPs, which is what WriteBreakdown verifies.
	ServiceLoPs int64 `json:"service_lo_ps,omitempty"`
	ServiceHiPs int64 `json:"service_hi_ps,omitempty"`
	// Shootdowns and ShootdownTotalPs mirror the SMP engine's stats so
	// span sums can be checked against the engine after a JSON
	// round-trip.
	Shootdowns       uint64       `json:"shootdowns,omitempty"`
	ShootdownTotalPs int64        `json:"shootdown_total_ps,omitempty"`
	Spans            []trace.Span `json:"spans"`
}

// serviceWindow returns the non-async spans fully inside the service
// measurement window.
func (r *SMPRun) serviceWindow() []trace.Span {
	lo, hi := clock.Time(r.ServiceLoPs), clock.Time(r.ServiceHiPs)
	var out []trace.Span
	for _, s := range r.Spans {
		if !s.Async && s.At >= lo && s.At+s.Dur <= hi {
			out = append(out, s)
		}
	}
	return out
}

// SMPProfile is the full observability artifact of one profiled SMP
// experiment.
type SMPProfile struct {
	Seed   uint64     `json:"seed"`
	Rounds int        `json:"rounds"`
	Report *SMPReport `json:"report"`
	Runs   []*SMPRun  `json:"runs"`

	// reg is the live metrics registry (nil on a profile parsed back
	// from JSON).
	reg *metrics.Registry
}

// Registry exposes the live metrics registry (nil after ParseSMPProfile).
func (p *SMPProfile) Registry() *metrics.Registry { return p.reg }

// JSON renders the profile as deterministic indented JSON.
func (p *SMPProfile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseSMPProfile loads a profile written by JSON.
func ParseSMPProfile(b []byte) (*SMPProfile, error) {
	p := &SMPProfile{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, fmt.Errorf("profile: parse: %w", err)
	}
	return p, nil
}

// RunSMPProfiled runs the SMP experiment with observability attached.
func RunSMPProfiled(scale int, seed uint64) (*SMPProfile, error) {
	return RunSMPProfiledParallel(scale, seed, 1)
}

// RunSMPProfiledParallel is RunSMPProfiled with parallel cell
// execution: each cell captures spans and metrics into its own
// recorder and registry, and the per-cell results are assembled in
// cell order, so the profile is byte-identical for any parallel value.
func RunSMPProfiledParallel(scale int, seed uint64, parallel int) (*SMPProfile, error) {
	prof := &SMPProfile{reg: metrics.NewRegistry()}
	rep, err := runSMP(scale, seed, prof, nil, parallel)
	if err != nil {
		return nil, err
	}
	prof.Seed = rep.Seed
	prof.Rounds = rep.Rounds
	prof.Report = rep
	return prof, nil
}

// run looks up the capture for (runtime, vcpus); nil if absent.
func (p *SMPProfile) run(runtime string, vcpus int) *SMPRun {
	for _, r := range p.Runs {
		if r.Runtime == runtime && r.VCPUs == vcpus {
			return r
		}
	}
	return nil
}

// runtimeOrder returns the distinct runtimes in first-appearance order.
func (p *SMPProfile) runtimeOrder() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range p.Runs {
		if !seen[r.Runtime] {
			seen[r.Runtime] = true
			out = append(out, r.Runtime)
		}
	}
	return out
}

func fmtPsAsNs(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	return fmt.Sprintf("%s%d.%03d", neg, ps/1000, ps%1000)
}

// WriteBreakdown renders the Table-2-style per-phase cost attribution
// for every runtime from the 1-vCPU service window, and verifies the
// accounting: the non-async root spans must sum to exactly the window,
// and the per-request service derived from the window must equal the
// ServiceNs the report published. Any mismatch is an error — the
// decomposition is not allowed to drift from the measurement.
func (p *SMPProfile) WriteBreakdown(w io.Writer) error {
	if p.Report == nil {
		return fmt.Errorf("profile: no report attached")
	}
	for _, rt := range p.runtimeOrder() {
		run := p.run(rt, 1)
		if run == nil || run.ServiceHiPs <= run.ServiceLoPs {
			return fmt.Errorf("profile: %s: no 1-vCPU service window captured", rt)
		}
		window := run.serviceWindow()
		elapsed := clock.Time(run.ServiceHiPs - run.ServiceLoPs)
		if got := trace.RootTotal(window); got != elapsed {
			return fmt.Errorf("profile: %s: spans sum to %v inside a %v window (unattributed time)",
				rt, got, elapsed)
		}
		service := elapsed / smpServiceReqs
		var row *SMPRow
		for i := range p.Report.Rows {
			if p.Report.Rows[i].Runtime == rt && p.Report.Rows[i].VCPUs == 1 {
				row = &p.Report.Rows[i]
			}
		}
		if row == nil {
			return fmt.Errorf("profile: %s: no 1-vCPU report row", rt)
		}
		if want := float64(service) / float64(clock.Nanosecond); row.ServiceNs != want {
			return fmt.Errorf("profile: %s: breakdown service %.3fns != report %.3fns",
				rt, want, row.ServiceNs)
		}
		fmt.Fprintf(w, "%s  (%d requests, %s ns total, %s ns/request)\n",
			rt, smpServiceReqs, fmtPsAsNs(int64(elapsed)), fmtPsAsNs(int64(service)))
		fmt.Fprintf(w, "  %-44s %10s %14s %14s\n", "phase", "count", "total ns", "self ns")
		var walk func(n *trace.Node, depth int)
		walk = func(n *trace.Node, depth int) {
			for _, c := range n.Children {
				fmt.Fprintf(w, "  %-44s %10d %14s %14s\n",
					indent(depth)+c.Phase, c.Count,
					fmtPsAsNs(int64(c.Total)), fmtPsAsNs(int64(c.Self())))
				walk(c, depth+1)
			}
		}
		walk(trace.Fold(window), 0)
		fmt.Fprintf(w, "  %-44s %10s %14s\n\n", "TOTAL", "", fmtPsAsNs(int64(elapsed)))
	}
	return nil
}

func indent(depth int) string {
	s := ""
	for i := 0; i < depth; i++ {
		s += "  "
	}
	return s
}

// ChromeTracks assembles the widest (8-vCPU) run of each runtime as one
// Chrome-trace process with a thread per vCPU.
func (p *SMPProfile) ChromeTracks() []trace.TrackSet {
	var tracks []trace.TrackSet
	for _, rt := range p.runtimeOrder() {
		widest := (*SMPRun)(nil)
		for _, r := range p.Runs {
			if r.Runtime == rt && (widest == nil || r.VCPUs > widest.VCPUs) {
				widest = r
			}
		}
		if widest != nil {
			tracks = append(tracks, trace.TrackSet{
				Name:  fmt.Sprintf("%s %dvcpu", widest.Runtime, widest.VCPUs),
				Spans: widest.Spans,
			})
		}
	}
	return tracks
}

// ChromeJSON renders the profile as a Chrome trace-event document.
func (p *SMPProfile) ChromeJSON() []byte {
	return trace.ChromeTrace(p.ChromeTracks())
}

// FoldedStacks renders every run as flamegraph collapsed-stack lines,
// prefixed "runtime/Nvcpu".
func (p *SMPProfile) FoldedStacks() string {
	out := ""
	for _, r := range p.Runs {
		out += trace.FoldedStacks(fmt.Sprintf("%s/%dvcpu", r.Runtime, r.VCPUs), r.Spans)
	}
	return out
}

// MetricsJSON renders the registry snapshot (requires a live registry).
func (p *SMPProfile) MetricsJSON() ([]byte, error) {
	if p.reg == nil {
		return nil, fmt.Errorf("profile: no live metrics registry (parsed from JSON?)")
	}
	return p.reg.Snapshot().JSON()
}

// WriteMetricsProm writes the registry in Prometheus text format.
func (p *SMPProfile) WriteMetricsProm(w io.Writer) error {
	if p.reg == nil {
		return fmt.Errorf("profile: no live metrics registry (parsed from JSON?)")
	}
	return p.reg.WriteProm(w)
}

// Invariants checks what the profile's side outputs promise: the
// Chrome trace (-trace-out) is in ns, names one process per runtime,
// and carries complete ("X") flow/remote events only; the metrics
// snapshot (-metrics-out) has the syscall-latency and shootdown
// families, each with a name, kind, and series.
func (p *SMPProfile) Invariants() error {
	var tr struct {
		DisplayTimeUnit string
		TraceEvents     []struct{ Ph, Name, Cat string }
	}
	if err := json.Unmarshal(p.ChromeJSON(), &tr); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		return fmt.Errorf("chrome trace: displayTimeUnit %q, want ns", tr.DisplayTimeUnit)
	}
	procs, complete := 0, 0
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procs++
		case ev.Ph == "X":
			complete++
			if ev.Cat != "flow" && ev.Cat != "remote" {
				return fmt.Errorf("chrome trace: complete event %q in category %q", ev.Name, ev.Cat)
			}
		}
	}
	if procs != len(smpSpecs()) || complete == 0 {
		return fmt.Errorf("chrome trace: %d processes, %d complete events; want one process per runtime and events", procs, complete)
	}
	mj, err := p.MetricsJSON()
	if err != nil {
		return err
	}
	var snap struct{ Families []map[string]json.RawMessage }
	if err := json.Unmarshal(mj, &snap); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	names := map[string]bool{}
	for _, f := range snap.Families {
		if f["name"] == nil || f["kind"] == nil || f["series"] == nil {
			return fmt.Errorf("metrics: family without name, kind, or series: %v", f)
		}
		var name string
		if err := json.Unmarshal(f["name"], &name); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		names[name] = true
	}
	for _, want := range []string{"syscall_latency_ns", "smp_shootdowns_total"} {
		if !names[want] {
			return fmt.Errorf("metrics: no %s family", want)
		}
	}
	return nil
}
