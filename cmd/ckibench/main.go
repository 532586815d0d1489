// Command ckibench regenerates the paper's tables and figures, the
// extension experiments, and their committed BENCH_<id>.json artifacts.
//
// Usage:
//
//	ckibench                 # run every experiment at scale 1
//	ckibench -exp fig12      # run one experiment
//	ckibench -scale 4        # larger workloads (slower, smoother)
//	ckibench -list           # list experiment ids
//
// Table mode prints every experiment as a "--- id: title ---" header
// followed by its tables. -json prints the experiment's JSON report
// instead, with no header: the committed artifact's exact bytes.
//
//	ckibench -exp smp -json > BENCH_smp.json
//
// Grid experiments fan their independent cells out to host goroutines;
// -parallel caps the fan-out (default GOMAXPROCS) in every mode. Every
// artifact is byte-identical for any -parallel value — cells are fully
// isolated simulations on their own virtual clocks, assembled in a
// fixed order.
//
//	ckibench -exp chaos -json -seeds 16 -parallel 8   # seed sweep
//
// Flags beyond -exp/-scale/-parallel/-list/-json belong to the
// experiments that declare them (ckibench -h names each flag's owners);
// setting one for any other experiment is a usage error (exit 2).
// Most write side outputs — all timestamps are virtual, so their bytes
// are identical across runs:
//
//	ckibench -exp smp -trace-out smp.trace.json    # Chrome/Perfetto trace
//	ckibench -exp smp -spans-out smp.spans.json    # span profile (ckitrace -in)
//	ckibench -exp smp -metrics-out smp.metrics.json
//	ckibench -exp smp -audit-out smp.audit.log     # machine-event log (ckireplay -in)
//	ckibench -exp smp -baseline BENCH_smp.json     # fail on >10% throughput regression
//	ckibench -exp snapshot -snap-out cki.snap      # CKISNAP1 checkpoint image
//	ckibench -exp slo -slo-out tl -bundle-out bd   # CKITS1 timelines, postmortem bundles
//	ckibench -exp fleet -scrape-interval 50us -slo-out fleet.ckits
//
// Others reshape a fleet run: -nodes (fleet, slo, tail, serverless),
// -sched, -arrival-rate and -trace-file (fleet), -churn-rate and
// -fork-mode (serverless).
//
// The wallclock experiment measures the simulator itself (host ns/op,
// allocs/op, parallel speedup) rather than the model, so its
// BENCH_wallclock.json is a snapshot, not a reproducible artifact:
//
//	ckibench -exp wallclock -json > BENCH_wallclock.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

// invocation is one parsed command line.
type invocation struct {
	exps []bench.Experiment // the selected experiment, or all of them
	list bool
	args bench.Args
}

// parse parses argv into an invocation. A returned error is a usage
// error: ckibench exits 2 on it.
func parse(fs *flag.FlagSet, argv []string) (invocation, error) {
	var inv invocation
	exp := fs.String("exp", "", "experiment id (empty = all)")
	fs.BoolVar(&inv.list, "list", false, "list experiments and exit")
	inv.args.Register(fs)
	if err := fs.Parse(argv); err != nil {
		return inv, err
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	var selected bench.Experiment // the zero Experiment owns no flag
	inv.exps = bench.Experiments()
	if *exp != "" {
		e, ok := bench.Find(*exp)
		if !ok {
			return inv, fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		selected, inv.exps = e, []bench.Experiment{e}
	}
	return inv, inv.args.Check(selected, set)
}

// run runs e and writes its report to w: the JSON report with -json,
// else the header and the tables.
func run(e bench.Experiment, a bench.Args, w io.Writer) error {
	rep, err := e.Run(a)
	if err != nil {
		return err
	}
	if a.JSON {
		return rep.(bench.JSONReport).WriteJSON(w)
	}
	fmt.Fprintf(w, "--- %s: %s ---\n", e.ID, e.Title)
	return rep.WriteTable(w)
}

func main() {
	inv, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckibench: %v\n", err)
		os.Exit(2)
	}
	if inv.list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	for _, e := range inv.exps {
		if err := run(e, inv.args, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ckibench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
