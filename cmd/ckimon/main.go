// Command ckimon renders the live-telemetry artifacts: SLO reports,
// time-series timelines, and flight-recorder postmortem bundles. All
// timestamps are virtual, so every rendering is byte-identical across
// runs of the same seeded experiment.
//
// Usage:
//
//	ckimon -slo BENCH_slo.json               # alert timeline + per-window SLI tables
//	ckimon -in slo_timeline_RunC.ckits       # render a CKITS1 (or JSON) timeline
//	ckimon -in fleet.timeline.json -series fleet_rejected_total
//	ckimon -in run.ckits -tail 40            # last 40 windows per series
//	ckimon -bundle slo_bundle_RunC_0_alert.json
//	ckimon -attr BENCH_tail.json             # tail-latency attribution report
//
// Exactly one of -slo, -in, -bundle, -attr must be given; -series and
// -tail refine -in only. (-tail is the window count; the tail-latency
// report is -attr, whose per-request waterfalls ckitrace -tail
// renders.)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckimon: "+format+"\n", args...)
	os.Exit(1)
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckimon: "+format+"\n", args...)
	os.Exit(2)
}

func ns(v int64) string { return (clock.Time(v) * clock.Nanosecond).String() }

// labelStr renders a label map deterministically ({k=v,k=v}).
func labelStr(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// loadTimeline sniffs CKITS1 magic vs JSON export and returns the
// series plus the interval.
func loadTimeline(path string) (int64, []*telemetry.Series) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	if bytes.HasPrefix(data, []byte("CKITS1")) {
		st, err := telemetry.DecodeBinary(data)
		if err != nil {
			fail("%v", err)
		}
		return int64(st.Interval / clock.Nanosecond), st.Series()
	}
	var exp telemetry.Export
	if err := json.Unmarshal(data, &exp); err != nil {
		fail("%s: not a CKITS1 binary and not an export JSON: %v", path, err)
	}
	return exp.IntervalNs, exp.Series
}

func renderTimeline(path, series string, tail int) {
	intervalNs, all := loadTimeline(path)
	fmt.Printf("timeline %s: %d series, scrape interval %s\n\n", path, len(all), ns(intervalNs))
	shown := 0
	for _, s := range all {
		if series != "" && s.Name != series {
			continue
		}
		shown++
		fmt.Printf("%s%s (%s)\n", s.Name, labelStr(s.Labels), s.Kind)
		wins := s.Windows
		if tail > 0 && len(wins) > tail {
			fmt.Printf("  ... %d earlier windows elided (-tail %d)\n", len(wins)-tail, tail)
			wins = wins[len(wins)-tail:]
		}
		for _, w := range wins {
			switch s.Kind {
			case "counter":
				fmt.Printf("  t%-5d %12s  delta %10.0f  total %12.0f\n", w.Tick, ns(w.AtNs), w.Delta, w.Total)
			case "gauge":
				fmt.Printf("  t%-5d %12s  value %10.0f\n", w.Tick, ns(w.AtNs), w.Value)
			default:
				fmt.Printf("  t%-5d %12s  count %8d  p50 %12s  p99 %12s\n",
					w.Tick, ns(w.AtNs), w.Count, ns(int64(w.P50Ns)), ns(int64(w.P99Ns)))
			}
		}
		fmt.Println()
	}
	if series != "" && shown == 0 {
		fail("no series named %q in %s", series, path)
	}
}

func renderBundle(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var b telemetry.Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		fail("%s: not a postmortem bundle: %v", path, err)
	}
	fmt.Printf("postmortem %s: reason=%s at %s", path, b.Reason, ns(b.AtNs))
	if b.Runtime != "" {
		fmt.Printf(" runtime=%s", b.Runtime)
	}
	if b.Node != 0 {
		fmt.Printf(" node=%d", b.Node)
	}
	fmt.Println()
	if a := b.Alert; a != nil {
		fmt.Printf("  alert: %s (%s) fired %s burn %.1f/%.1f %s\n",
			a.SLO, a.Severity, ns(a.FiredAtNs), a.ShortBurn, a.LongBurn, labelStr(a.Labels))
	}
	fmt.Printf("  %d series captured:\n", len(b.Series))
	for _, s := range b.Series {
		fmt.Printf("    %s%s: %d windows\n", s.Name, labelStr(s.Labels), len(s.Windows))
	}
	fmt.Printf("  %d spans in range", len(b.Spans))
	if n := len(b.Spans); n > 0 {
		fmt.Printf(" (last: %s at %s)", b.Spans[n-1].Phase, b.Spans[n-1].At)
	}
	fmt.Println()
	fmt.Printf("  %d machine events in range\n", len(b.Events))
	show := b.Events
	if len(show) > 10 {
		show = show[len(show)-10:]
	}
	for _, e := range show {
		fmt.Printf("    %12s vcpu%d %-18s %s\n",
			(clock.Time(e.AtPs)).String(), e.VCPU, e.Kind, e.Detail)
	}
}

func renderReport(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	rep := &bench.SLOReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		fail("%s: not a BENCH_slo report: %v", path, err)
	}
	if len(rep.Rows) == 0 {
		fail("%s: report has no rows", path)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		fail("%v", err)
	}
	for _, r := range rep.Rows {
		t := bench.NewTable(
			fmt.Sprintf("%s — per-window SLIs (storm %s..%s, page threshold %.0f%% rejects)",
				r.Runtime, ns(r.StormStartNs), ns(r.StormEndNs), 100*0.01),
			"at", "reject%", "p99", "running", "queued", "down")
		for _, w := range r.Windows {
			t.Row(ns(w.AtNs),
				fmt.Sprintf("%.1f", 100*w.RejectRatio),
				fmt.Sprintf("%.2fms", w.P99Ms),
				fmt.Sprintf("%d", w.Running),
				fmt.Sprintf("%d", w.Queued),
				fmt.Sprintf("%d", w.DownNodes))
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
}

// renderAttr renders a BENCH_tail report: the per-runtime attribution
// summary plus a quantile-attribution table naming the exact request
// paying each tail quantile.
func renderAttr(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	rep := &bench.TailReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		fail("%s: not a BENCH_tail report: %v", path, err)
	}
	if len(rep.Rows) == 0 {
		fail("%s: report has no rows", path)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		fail("%v", err)
	}
	pct := func(part, total int64) string {
		if total == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(total))
	}
	for _, r := range rep.Rows {
		t := bench.NewTable(
			fmt.Sprintf("%s — who pays the tail (storm %s..%s)",
				r.Runtime, ns(r.StormStartNs), ns(r.StormEndNs)),
			"q", "request", "latency", "queue", "boot", "restore", "service", "redo", "evictions")
		for _, q := range r.Quantiles {
			c := q.Components
			t.Row(q.Q, q.RequestID,
				fmt.Sprintf("%.2fms", q.LatencyMs),
				pct(c.QueuePs, c.TotalPs), pct(c.BootPs, c.TotalPs),
				pct(c.WarmRestorePs, c.TotalPs), pct(c.ServicePs, c.TotalPs),
				pct(c.StormRedoPs, c.TotalPs), fmt.Sprintf("%d", c.Evictions))
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
}

// validateModes is the flag-combination rule, separated from main so
// it is unit-testable: exactly one mode, refinements only with -in.
func validateModes(slo, in, bundle, attr, series string, tail int) error {
	modes := 0
	for _, m := range []string{slo, in, bundle, attr} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("exactly one of -slo, -in, -bundle, -attr is required")
	}
	if (series != "" || tail != 20) && in == "" {
		return errors.New("-series/-tail refine -in")
	}
	if tail < 0 {
		return errors.New("-tail must be >= 0")
	}
	return nil
}

func main() {
	slo := flag.String("slo", "", "render a BENCH_slo report (ckibench -exp slo -json)")
	in := flag.String("in", "", "render a timeline: CKITS1 binary or export JSON (ckibench -slo-out)")
	bundle := flag.String("bundle", "", "render a flight-recorder postmortem bundle (ckibench -bundle-out)")
	attr := flag.String("attr", "", "render a BENCH_tail attribution report (ckibench -exp tail -json)")
	series := flag.String("series", "", "with -in: show only this series name")
	tail := flag.Int("tail", 20, "with -in: show at most the last N windows per series (0 = all)")
	flag.Parse()

	if err := validateModes(*slo, *in, *bundle, *attr, *series, *tail); err != nil {
		usage("%v", err)
	}

	switch {
	case *slo != "":
		renderReport(*slo)
	case *in != "":
		renderTimeline(*in, *series, *tail)
	case *attr != "":
		renderAttr(*attr)
	default:
		renderBundle(*bundle)
	}
}
