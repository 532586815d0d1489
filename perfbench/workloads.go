package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/fleet"
)

// workload is one named benchmark workload: a pass of fixed simulated
// work whose outputs are checked, and the probes a traced run adds.
type workload struct {
	name string
	// refs lists the reference files, relative to the checkout root,
	// that the pass's outputs are compared with under the given seed.
	refs func(seed uint64) []string
	pass func(e *env) ([]output, error)
	// probe calls the workload's layers directly (traced runs only)
	// and sets the per-layer metrics it measures.
	probe func(e *env, v *values) error
}

// env is what a pass or probe runs with.
type env struct {
	seed uint64
	tr   *tracer
	ck   *checker
}

// smpSeed is RunSMP's seed: the committed artifact's for seed 0, the
// given seed otherwise.
func smpSeed(seed uint64) uint64 {
	if seed == 0 {
		return bench.SMPSeed
	}
	return seed
}

// fleetSeed seeds the arrivals and demand draws of the fleet cells the
// benchmark builds itself.
func fleetSeed(seed uint64) uint64 {
	if seed == 0 {
		return bench.FleetSeed
	}
	return seed
}

var allWorkloads = []*workload{
	{
		name:  "sqlite",
		refs:  func(uint64) []string { return []string{"perfbench/refs/fig14.txt", "perfbench/refs/fig15.txt"} },
		pass:  sqlitePass,
		probe: sqliteProbe,
	},
	{
		name:  "fleet",
		refs:  func(uint64) []string { return []string{"BENCH_fleet.json", "BENCH_tail.json", "BENCH_slo.json"} },
		pass:  fleetPass,
		probe: fleetProbe,
	},
	{
		name: "machine",
		refs: func(seed uint64) []string {
			refs := []string{"BENCH_snapshot.json", "BENCH_serverless.json"}
			if smpSeed(seed) == bench.SMPSeed {
				refs = append(refs, "BENCH_smp.json")
			}
			return refs
		},
		pass:  machinePass,
		probe: machineProbe,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, w := range allWorkloads {
		ns = append(ns, w.name)
	}
	return ns
}

// sqlitePass regenerates Fig. 14 and Fig. 15 at scale 1: seven SQLite
// cases on six runtime configurations.
func sqlitePass(e *env) ([]output, error) {
	var outs []output
	for _, f := range []struct {
		id  string
		run func(int, io.Writer) error
	}{{"fig14", bench.Fig14}, {"fig15", bench.Fig15}} {
		var buf bytes.Buffer
		end := e.tr.begin("bench."+f.id, "")
		err := f.run(1, &buf)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.id, err)
		}
		outs = append(outs, output{label: "perfbench/refs/" + f.id + ".txt", data: buf.Bytes()})
	}
	return outs, nil
}

// fleetPass runs the fleet, tail and slo experiments at their defaults,
// then the held-out cells: one fleet.Run per scheduler on arrivals
// drawn from the run's seed.
func fleetPass(e *env) ([]output, error) {
	var outs []output
	emit := func(label string, write func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return err
		}
		outs = append(outs, output{label: label, data: buf.Bytes()})
		return nil
	}
	end := e.tr.begin("bench.fleet", "")
	fl, err := bench.RunFleet(bench.FleetOpts{Scale: 1, Parallel: 1})
	end()
	if err != nil {
		return nil, err
	}
	if err := emit("BENCH_fleet.json", func(w io.Writer) error { return bench.WriteFleetJSON(fl, w) }); err != nil {
		return nil, err
	}
	end = e.tr.begin("bench.tail", "")
	tl, err := bench.RunTail(bench.TailOpts{Scale: 1, Parallel: 1})
	end()
	if err != nil {
		return nil, err
	}
	if err := emit("BENCH_tail.json", func(w io.Writer) error { return bench.WriteTailJSON(tl, w) }); err != nil {
		return nil, err
	}
	end = e.tr.begin("bench.slo", "")
	sl, err := bench.RunSLO(bench.SLOOpts{Scale: 1, Parallel: 1})
	end()
	if err != nil {
		return nil, err
	}
	if err := emit("BENCH_slo.json", func(w io.Writer) error { return bench.WriteSLOJSON(sl, w) }); err != nil {
		return nil, err
	}
	for _, sched := range []string{"binpack", "spread"} {
		cfg, err := fleetCell(fleetSeed(e.seed), fleetProbeNodes, sched, heldOutArrivals)
		if err != nil {
			return nil, err
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("held-out %s cell: %w", sched, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		outs = append(outs, output{label: "heldout/" + sched, data: data, err: fleetInvariants(cfg, res)})
	}
	return outs, nil
}

// machinePass runs the smp, snapshot and serverless experiments at
// their defaults, RunSMP with the run's seed.
func machinePass(e *env) ([]output, error) {
	var outs []output
	seed := smpSeed(e.seed)
	end := e.tr.begin("bench.smp", "")
	smp, err := bench.RunSMP(1, seed)
	end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := bench.WriteSMPReportJSON(smp, &buf); err != nil {
		return nil, err
	}
	o := output{label: "BENCH_smp.json", data: buf.Bytes()}
	if seed != bench.SMPSeed {
		o.err = smpInvariants(smp, seed)
	}
	outs = append(outs, o)

	end = e.tr.begin("bench.snapshot", "")
	sn, err := bench.RunSnapshot(1, 1, 1)
	end()
	if err != nil {
		return nil, err
	}
	buf = bytes.Buffer{}
	if err := bench.WriteSnapshotJSON(sn, &buf); err != nil {
		return nil, err
	}
	outs = append(outs, output{label: "BENCH_snapshot.json", data: buf.Bytes()})

	end = e.tr.begin("bench.serverless", "")
	sv, err := bench.RunServerless(bench.ServerlessOpts{Scale: 1, Parallel: 1})
	end()
	if err != nil {
		return nil, err
	}
	buf = bytes.Buffer{}
	if err := bench.WriteServerlessJSON(sv, &buf); err != nil {
		return nil, err
	}
	outs = append(outs, output{label: "BENCH_serverless.json", data: buf.Bytes()})
	return outs, nil
}

// smpInvariants checks an SMP report made with a non-default seed: the
// full runtime x vCPU grid, shootdowns exactly on multi-vCPU rows, and
// positive service times and throughputs.
func smpInvariants(rep *bench.SMPReport, seed uint64) error {
	if rep.Seed != seed {
		return fmt.Errorf("report seed %#x, want %#x", rep.Seed, seed)
	}
	if want := len(smpRuntimes) * len(bench.SMPVCPUCounts); len(rep.Rows) != want {
		return fmt.Errorf("%d rows, want %d", len(rep.Rows), want)
	}
	for i, r := range rep.Rows {
		if r.VCPUs != bench.SMPVCPUCounts[i%len(bench.SMPVCPUCounts)] {
			return fmt.Errorf("row %d: %d vCPUs out of grid order", i, r.VCPUs)
		}
		if r.ServiceNs <= 0 || r.Throughput <= 0 {
			return fmt.Errorf("row %d (%s x%d): service %v ns, throughput %v", i, r.Runtime, r.VCPUs, r.ServiceNs, r.Throughput)
		}
		multi := r.VCPUs > 1
		if multi != (r.Shootdowns > 0) || r.IPIsSent < r.Shootdowns {
			return fmt.Errorf("row %d (%s x%d): %d shootdowns, %d IPIs", i, r.Runtime, r.VCPUs, r.Shootdowns, r.IPIsSent)
		}
		if !multi && r.Speedup != 1 {
			return fmt.Errorf("row %d (%s x1): speedup %v, want 1", i, r.Runtime, r.Speedup)
		}
	}
	return nil
}

const (
	// fleetProbeNodes x fleetSlots is the fleet of the benchmark's own
	// cells, shaped like the fleet experiment's.
	fleetProbeNodes = 50
	fleetSlots      = 4
	fleetQueueLimit = 16
	fleetMeanReqs   = 8
	// fleetLoad is the offered load as a share of the fleet's capacity.
	fleetLoad = 0.9
	// heldOutArrivals sizes the held-out cells of the fleet pass.
	heldOutArrivals = 6000
)

// fleetCosts is the CKI-BM row of the fleet experiment's calibration
// (BENCH_fleet.json).
var fleetCosts = fleet.RuntimeCosts{
	Boot:        522 * clock.Nanosecond,
	Service:     3005 * clock.Nanosecond,
	WarmRestore: 1324 * clock.Nanosecond,
}

// fleetRate is the arrival rate (per second) that offers fleetLoad of
// the capacity of a fleet of the given size.
func fleetRate(nodes int) float64 {
	lifetime := fleetCosts.Boot + fleetMeanReqs*fleetCosts.Service
	return fleetLoad * float64(nodes*fleetSlots) / lifetime.Seconds()
}

// fleetHorizon is the horizon over which fleetRate(nodes) offers about
// the given number of arrivals.
func fleetHorizon(nodes, arrivals int) clock.Time {
	return clock.Time(float64(arrivals) / fleetRate(nodes) * float64(clock.Second))
}

// fleetCell builds one open-loop fleet cell: Poisson arrivals at
// fleetLoad of capacity, seeded arrival and demand draws.
func fleetCell(seed uint64, nodes int, sched string, arrivals int) (fleet.Config, error) {
	s, err := fleet.SchedulerByName(sched)
	if err != nil {
		return fleet.Config{}, err
	}
	horizon := fleetHorizon(nodes, arrivals)
	return fleet.Config{
		Nodes: nodes, SlotsPerNode: fleetSlots, QueueLimit: fleetQueueLimit,
		Costs: fleetCosts, MeanReqs: fleetMeanReqs,
		Arrivals: des.PoissonArrivals(seed, fleetRate(nodes), horizon),
		Horizon:  horizon, Seed: seed, Sched: s,
	}, nil
}

// fleetInvariants checks a fleet cell's result: every arrival is
// accounted for, and every completion has a latency.
func fleetInvariants(cfg fleet.Config, res *fleet.Result) error {
	if err := res.Conserve(); err != nil {
		return err
	}
	if res.Arrived != len(cfg.Arrivals) {
		return fmt.Errorf("%d arrived, %d offered", res.Arrived, len(cfg.Arrivals))
	}
	if res.Completed != len(res.Latencies) {
		return fmt.Errorf("%d completed, %d latencies", res.Completed, len(res.Latencies))
	}
	if res.Completed == 0 {
		return errors.New("nothing completed")
	}
	return nil
}
