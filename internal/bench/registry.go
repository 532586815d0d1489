package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// Experiment is one ckibench experiment. Experiments() is the only
// place one is declared: ckibench's dispatch, -list, flag validation
// and help text, and the artifact tests all derive from it.
type Experiment struct {
	// ID is the paper's label ("tab2", "fig12", ...) or the extension's
	// name ("smp", "fleet", ...).
	ID string
	// Title describes what is reproduced.
	Title string
	// Flags are the ckibench flags the experiment owns beyond the
	// shared -exp/-scale/-parallel/-list/-json. ckibench rejects a set
	// flag the selected experiment does not own.
	Flags []string
	// JSON marks an experiment whose report also renders as the JSON
	// document committed as BENCH_<id>.json (-json).
	JSON bool
	// HostTimed marks a JSON report that measures the host rather than
	// the model, so its bytes differ run to run. Every other JSON
	// report is an Artifact.
	HostTimed bool
	// Run executes the experiment and writes its side outputs (the
	// files named by its owned flags).
	Run func(a Args) (Report, error)
}

// Report is the result of one experiment run.
type Report interface {
	// WriteTable renders the report as ckibench's table mode.
	WriteTable(w io.Writer) error
}

// JSONReport is a Report that also renders as JSON (-json).
type JSONReport interface {
	Report
	WriteJSON(w io.Writer) error
}

// Artifact is the report of a model experiment whose JSON is committed
// as BENCH_<id>.json: byte-identical for any -parallel, and checked by
// Invariants, the one statement of what the artifact promises.
type Artifact interface {
	JSONReport
	Invariants() error
}

// Args are the flag values an experiment run reads. Scale, Parallel and
// JSON are shared by every experiment; every other field is the value
// of the flag its comment names, left at its default unless the
// selected experiment owns that flag.
type Args struct {
	Scale, Parallel int
	JSON            bool

	Seeds int // -seeds

	TraceOut, SpansOut, MetricsOut string // -trace-out, -spans-out, -metrics-out
	AuditOut, Baseline             string // -audit-out, -baseline

	SnapOut            string // -snap-out
	CheckpointInterval int    // -checkpoint-interval

	Nodes          int        // -nodes
	Sched          string     // -sched
	ArrivalRate    float64    // -arrival-rate
	TraceFile      string     // -trace-file
	ScrapeInterval clock.Time // -scrape-interval
	SLOOut         string     // -slo-out
	BundleOut      string     // -bundle-out

	ChurnRate float64 // -churn-rate
	ForkMode  string  // -fork-mode
}

// DefaultArgs are the flag defaults: the committed artifacts' options.
func DefaultArgs() Args {
	return Args{Scale: 1, Parallel: DefaultParallel(), Seeds: 1, CheckpointInterval: 1}
}

// Experiments returns every experiment: the paper's tables and figures
// in paper order, then the extensions.
func Experiments() []Experiment {
	return append(paperExperiments(), extensions()...)
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// report returns a run's result as a Report, keeping a failed run's nil
// pointer out of the interface.
func report[R Report](rep R, err error) (Report, error) {
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// tableFunc is the Report of an experiment that renders straight to
// its table: the paper's and the ext-* experiments' func(scale, w)
// bodies run when the table is written.
type tableFunc func(w io.Writer) error

func (f tableFunc) WriteTable(w io.Writer) error { return f(w) }

// table declares an experiment whose body writes its table directly.
func table(id, title string, body func(scale int, w io.Writer) error) Experiment {
	return Experiment{ID: id, Title: title, Run: func(a Args) (Report, error) {
		return tableFunc(func(w io.Writer) error { return body(a.Scale, w) }), nil
	}}
}

// extensions are the experiments beyond the paper's tables and
// figures: the design-space ablations §3.1/§3.3 argue from, the §9
// future-work directions, and the model extensions with committed
// artifacts.
func extensions() []Experiment {
	return []Experiment{
		table("ext-pku", "Design-PKU vs Design-PKS (rejected alternative, §3.1)", ExtPKU),
		table("ext-gate", "KSM gate side-channel hardening ablation (§3.3)", ExtGate),
		table("ext-future", "Future work: driver sandbox & in-kernel syscalls (§9)", ExtFuture),
		table("ext-cow", "Eager vs copy-on-write fork across runtimes", ExtCOW),
		table("ext-density", "CKI container density (Challenge-1 at scale)", ExtDensity),
		table("ext-preempt", "Timer-tick (preemption) tax per runtime", ExtPreempt),
		{
			ID: "chaos", Title: "Fault-injection survival across runtimes (Fig. 2)",
			Flags: []string{"seeds"}, JSON: true,
			Run: func(a Args) (Report, error) {
				sweep, err := RunChaosSweep(a.Scale, ChaosSeed, a.Seeds, a.Parallel)
				switch {
				case err != nil:
					return nil, err
				case a.Seeds > 1:
					return sweep, nil
				}
				return sweep.Runs[0], nil
			},
		},
		{
			ID: "smp", Title: "Multi-core scaling & TLB-shootdown latency (SMP engine)",
			Flags: []string{"trace-out", "spans-out", "metrics-out", "audit-out", "baseline"}, JSON: true,
			Run: runSMPExperiment,
		},
		{
			ID: "snapshot", Title: "Checkpoint/restore, live migration & warm-restart MTTR",
			Flags: []string{"snap-out", "checkpoint-interval"}, JSON: true,
			Run: func(a Args) (Report, error) {
				rep, err := RunSnapshot(a.Scale, a.Parallel, a.CheckpointInterval)
				if err != nil {
					return nil, err
				}
				if a.SnapOut == "" {
					return rep, nil
				}
				blob := rep.CheckpointBlob("CKI-BM")
				if blob == nil {
					return nil, errors.New("no CKI checkpoint in report")
				}
				return rep, os.WriteFile(a.SnapOut, blob, 0o644)
			},
		},
		{
			ID: "fleet", Title: "Datacenter fleet serving: capacity curves & tail latency",
			Flags: []string{"nodes", "sched", "arrival-rate", "trace-file", "scrape-interval", "slo-out"}, JSON: true,
			Run: func(a Args) (Report, error) {
				rep, err := RunFleet(FleetOpts{
					Scale: a.Scale, Parallel: a.Parallel, Nodes: a.Nodes, Sched: a.Sched,
					ArrivalRate: a.ArrivalRate, TraceFile: a.TraceFile, ScrapeInterval: a.ScrapeInterval,
				})
				if err != nil {
					return nil, err
				}
				if a.SLOOut == "" {
					return rep, nil
				}
				return rep, writeTimeline(a.SLOOut, rep.Timeline)
			},
		},
		{
			ID: "slo", Title: "Live telemetry: SLO burn-rate alerts & flight-recorder postmortems",
			Flags: []string{"nodes", "scrape-interval", "slo-out", "bundle-out"}, JSON: true,
			Run: func(a Args) (Report, error) {
				rep, err := RunSLO(SLOOpts{Scale: a.Scale, Parallel: a.Parallel, Nodes: a.Nodes, ScrapeInterval: a.ScrapeInterval})
				if err != nil {
					return nil, err
				}
				if a.SLOOut != "" {
					if err := WriteSLOTimelines(rep, a.SLOOut); err != nil {
						return nil, err
					}
				}
				if a.BundleOut != "" {
					if err := WriteSLOBundles(rep, a.BundleOut); err != nil {
						return nil, err
					}
				}
				return rep, nil
			},
		},
		{
			ID: "tail", Title: "Per-request causal tracing: critical-path tail-latency attribution",
			Flags: []string{"nodes"}, JSON: true,
			Run: func(a Args) (Report, error) {
				return report(RunTail(TailOpts{Scale: a.Scale, Parallel: a.Parallel, Nodes: a.Nodes}))
			},
		},
		{
			ID: "serverless", Title: "Serverless churn: fork-from-snapshot cold-start fast path",
			Flags: []string{"nodes", "churn-rate", "fork-mode"}, JSON: true,
			Run: func(a Args) (Report, error) {
				return report(RunServerless(ServerlessOpts{
					Scale: a.Scale, Parallel: a.Parallel, Nodes: a.Nodes,
					ChurnRate: a.ChurnRate, ForkMode: a.ForkMode,
				}))
			},
		},
		{
			ID: "breakdown", Title: "Cycle attribution: per-phase span trees vs measured totals",
			Run: func(a Args) (Report, error) {
				prof, err := RunSMPProfiledParallel(a.Scale, SMPSeed, a.Parallel)
				if err != nil {
					return nil, err
				}
				return tableFunc(prof.WriteBreakdown), nil
			},
		},
		{
			ID: "wallclock", Title: "Host cost of the simulator: hot-path ns/op, allocs, parallel speedup",
			JSON: true, HostTimed: true,
			Run: func(a Args) (Report, error) {
				return report(RunWallclock(WallclockOpts{Scale: a.Scale, Parallel: a.Parallel}))
			},
		},
	}
}

// runSMPExperiment runs the smp grid, recording spans and metrics or
// the audit log when their files are asked for. The report is
// byte-identical however it was produced (the observers are
// clock-neutral).
func runSMPExperiment(a Args) (Report, error) {
	var rep *SMPReport
	switch {
	case a.TraceOut != "" || a.SpansOut != "" || a.MetricsOut != "":
		prof, err := RunSMPProfiledParallel(a.Scale, SMPSeed, a.Parallel)
		if err != nil {
			return nil, err
		}
		spans, err := prof.JSON()
		if err != nil {
			return nil, err
		}
		metrics, err := prof.MetricsJSON()
		if err != nil {
			return nil, err
		}
		for _, out := range []struct {
			path string
			data []byte
		}{
			{a.TraceOut, prof.ChromeJSON()},
			{a.SpansOut, append(spans, '\n')},
			{a.MetricsOut, append(metrics, '\n')},
		} {
			if out.path == "" {
				continue
			}
			if err := os.WriteFile(out.path, out.data, 0o644); err != nil {
				return nil, err
			}
		}
		rep = prof.Report
	case a.AuditOut != "":
		rec := audit.NewRecorder(nil)
		var err error
		if rep, err = RunSMPAuditedParallel(a.Scale, SMPSeed, rec, a.Parallel); err != nil {
			return nil, err
		}
		if err := rec.WriteFile(a.AuditOut); err != nil {
			return nil, err
		}
	default:
		var err error
		if rep, err = RunSMPParallel(a.Scale, SMPSeed, a.Parallel); err != nil {
			return nil, err
		}
	}
	if a.Baseline == "" {
		return rep, nil
	}
	return gatedSMP{rep, a.Baseline}, nil
}

// writeTimeline writes fleet's merged timeline: CKITS1 binary when the
// path ends in .ckits, JSON export otherwise.
func writeTimeline(path string, st *telemetry.Store) error {
	if st == nil {
		return errors.New("-slo-out: no timeline collected (is -scrape-interval set?)")
	}
	if strings.HasSuffix(path, ".ckits") {
		return os.WriteFile(path, st.EncodeBinary(), 0o644)
	}
	b, err := st.Export().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeJSON writes v in the committed artifacts' encoding: two-space
// indented JSON with a trailing newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// owners returns the IDs of the experiments that own flag name.
func owners(name string) []string {
	var ids []string
	for _, e := range Experiments() {
		if slices.Contains(e.Flags, name) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// orList joins ids as "a", "a or b", or "a, b, or c".
func orList(ids []string) string {
	switch len(ids) {
	case 1:
		return ids[0]
	case 2:
		return ids[0] + " or " + ids[1]
	}
	return strings.Join(ids[:len(ids)-1], ", ") + ", or " + ids[len(ids)-1]
}

// jsonIDs lists the experiments that support -json.
func jsonIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		if e.JSON {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// Register defines the shared -scale/-parallel/-json flags and every
// experiment-owned flag on fs, bound to a and defaulting to
// DefaultArgs. An owned flag's help text names its owners.
func (a *Args) Register(fs *flag.FlagSet) {
	d := DefaultArgs()
	usage := func(name, text string) string {
		return "with -exp " + orList(owners(name)) + ": " + text
	}
	str := func(p *string, name, text string) { fs.StringVar(p, name, "", usage(name, text)) }
	fs.IntVar(&a.Scale, "scale", d.Scale, "workload scale factor")
	fs.IntVar(&a.Parallel, "parallel", d.Parallel, "max grid cells run concurrently (artifacts are byte-identical for any value)")
	fs.BoolVar(&a.JSON, "json", false, "emit the JSON report instead of a table (-exp "+orList(jsonIDs())+")")
	fs.IntVar(&a.Seeds, "seeds", d.Seeds, usage("seeds", "sweep this many derived seeds (requires -json)"))
	str(&a.TraceOut, "trace-out", "write a Chrome trace-event JSON to FILE")
	str(&a.SpansOut, "spans-out", "write the span profile JSON to FILE")
	str(&a.MetricsOut, "metrics-out", "write the metrics snapshot JSON to FILE")
	str(&a.AuditOut, "audit-out", "record the machine-event audit log to FILE")
	str(&a.Baseline, "baseline", "compare against a committed report and fail on >10% throughput regression")
	str(&a.SnapOut, "snap-out", "write the CKI cell's CKISNAP1 checkpoint image to FILE")
	fs.IntVar(&a.CheckpointInterval, "checkpoint-interval", d.CheckpointInterval,
		usage("checkpoint-interval", "supervised rounds between periodic checkpoints in the warm-restart comparison"))
	fs.IntVar(&a.Nodes, "nodes", 0, usage("nodes", "simulated node count"))
	str(&a.Sched, "sched", "restrict to one scheduler (binpack, spread; default both)")
	fs.Float64Var(&a.ArrivalRate, "arrival-rate", 0,
		usage("arrival-rate", "replace the capacity curve with one open-loop segment at this rate (arrivals/sec)"))
	str(&a.TraceFile, "trace-file", "drive arrivals from a piecewise rate trace file (\"rate_per_sec duration_ms\" lines)")
	fs.Func("scrape-interval", usage("scrape-interval", "virtual scrape interval as a `duration` (e.g. 250us, 1.5ms; bare numbers are ps)"),
		func(s string) error {
			d, err := clock.ParseTime(s)
			if err == nil && d <= 0 {
				err = errors.New("must be > 0")
			}
			a.ScrapeInterval = d
			return err
		})
	str(&a.SLOOut, "slo-out", "write the timelines: slo, per-runtime CKITS1 files under DIR; fleet (needs -scrape-interval), the merged timeline to FILE (.ckits = binary, else JSON)")
	str(&a.BundleOut, "bundle-out", "write the postmortem bundles as JSON under DIR")
	fs.Float64Var(&a.ChurnRate, "churn-rate", 0,
		usage("churn-rate", "replace the derived churn arrival rate with this absolute rate (arrivals/sec)"))
	str(&a.ForkMode, "fork-mode", "restrict the fleet stage to one instantiation mode (cold, eager, cow, lazy; default all)")
}

// Check returns the usage error, if any, of running e (the zero
// Experiment: every experiment) with a, where set names the flags given
// on the command line. A set flag that e does not own is an error; so
// are the values no run could honour. An unset -nodes, -arrival-rate or
// -churn-rate is zero and means the experiment's default; set, it must
// be positive.
func (a Args) Check(e Experiment, set []string) error {
	isSet := func(name string) bool { return slices.Contains(set, name) }
	for _, name := range set {
		if ids := owners(name); len(ids) > 0 && !slices.Contains(e.Flags, name) {
			return fmt.Errorf("-%s requires -exp %s", name, orList(ids))
		}
	}
	if a.JSON && !e.JSON {
		return fmt.Errorf("-json is only supported with -exp %s", orList(jsonIDs()))
	}
	switch {
	case a.Scale < 1:
		return errors.New("-scale must be >= 1")
	case a.Parallel < 1:
		return errors.New("-parallel must be >= 1")
	case a.Seeds < 1:
		return errors.New("-seeds must be >= 1")
	case a.Seeds > 1 && !a.JSON:
		return errors.New("-seeds requires -exp chaos -json")
	case a.CheckpointInterval < 1:
		return errors.New("-checkpoint-interval must be >= 1")
	case isSet("nodes") && a.Nodes < 1:
		return errors.New("-nodes must be >= 1")
	case isSet("arrival-rate") && a.ArrivalRate <= 0:
		return errors.New("-arrival-rate must be > 0")
	case a.ArrivalRate != 0 && a.TraceFile != "":
		return errors.New("-arrival-rate and -trace-file are mutually exclusive")
	case a.SLOOut != "" && a.ScrapeInterval == 0 && e.ID == "fleet":
		return errors.New("-slo-out with -exp fleet requires an explicit -scrape-interval (every cell must share one interval for the merged timeline)")
	case a.AuditOut != "" && (a.TraceOut != "" || a.SpansOut != "" || a.MetricsOut != ""):
		return errors.New("-audit-out cannot be combined with the span/metrics artifact flags")
	case isSet("churn-rate") && a.ChurnRate <= 0:
		return errors.New("-churn-rate must be > 0")
	case a.ForkMode != "" && !slices.Contains(serverlessModes, a.ForkMode):
		return fmt.Errorf("-fork-mode must be %s (got %q)", orList(serverlessModes), a.ForkMode)
	}
	if a.Sched != "" {
		if _, err := fleet.SchedulerByName(a.Sched); err != nil {
			return err
		}
	}
	return nil
}
