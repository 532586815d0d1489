package bench

import (
	"cmp"
	"fmt"
	"io"
	"os"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The fleet experiment: datacenter-scale serving. A calibration pass
// boots one real container per runtime and measures its machine
// truths — cold boot, per-request service, warm-restore cost — then an
// open-loop heavy-traffic grid drives a simulated fleet of nodes
// through a capacity curve (0.5x..1.3x of nominal capacity), a bursty
// diurnal trace, and an eviction storm, under both schedulers, with
// exact p50/p99/p999 arrival-to-completion tails. A replay stage then
// re-executes the storm cell's hottest nodes on real machines under
// the warm-restart supervisor, one node per grid cell, streaming
// per-node digests. Every cell is an isolated simulation, so the
// report is byte-identical for any -parallel value.

// FleetSeed tags the committed BENCH_fleet report and roots every
// derived per-cell seed.
const FleetSeed = 0xf1ee7

const (
	// fleetDefaultNodes is the simulated fleet's default size.
	fleetDefaultNodes = 50
	// fleetCalibReqs sizes the calibration service-time window.
	fleetCalibReqs = 16
	// fleetReplayNodes is how many of the storm cell's nodes the replay
	// stage re-executes on real machines.
	fleetReplayNodes = 4
	// fleetReplayMaxReqs bounds one replayed node's request volume so a
	// small -nodes fleet cannot make a replay cell arbitrarily slow;
	// the bound is part of the experiment definition, so artifacts stay
	// deterministic.
	fleetReplayMaxReqs = 512
)

// fleetShape sizes the fleet cells. The per-scale arrival volume must
// comfortably exceed the fleet's total buffering — nodes x (slots +
// queue limit) — or an overload segment drains into queues at the
// horizon instead of rejecting.
var fleetShape = cellShape{
	slots: 4, queueLimit: 16, meanReqs: 8, arrivals: 6000,
	evictAt: 2, downFor: 8,
	stormNodes: func(nodes int) int { return max(nodes/10, 1) },
}

// fleetLoadPoints are the capacity-curve load multipliers; the two
// labels after them are the diurnal and eviction-storm segments.
var fleetLoadPoints = []float64{0.5, 0.7, 0.85, 0.95, 1.1, 1.3}

// FleetCalibration is one runtime's measured cost model.
type FleetCalibration struct {
	Runtime       string  `json:"runtime"`
	BootNs        float64 `json:"boot_ns"`
	ServiceNs     float64 `json:"service_ns"`
	WarmRestoreNs float64 `json:"warm_restore_ns"`
}

// FleetRow is one (runtime, scheduler, load segment) measurement.
type FleetRow struct {
	Runtime       string  `json:"runtime"`
	Sched         string  `json:"sched"`
	Load          string  `json:"load"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	LatencyRow
	Evicted      int `json:"evicted,omitempty"`
	WarmRestores int `json:"warm_restores,omitempty"`
	ColdRedos    int `json:"cold_redos,omitempty"`
}

// FleetReport is the whole experiment (the committed BENCH_fleet
// artifact).
type FleetReport struct {
	Seed         uint64               `json:"seed"`
	Scale        int                  `json:"scale"`
	Nodes        int                  `json:"nodes"`
	SlotsPerNode int                  `json:"slots_per_node"`
	QueueLimit   int                  `json:"queue_limit"`
	MeanReqs     int                  `json:"mean_reqs"`
	Schedulers   []string             `json:"schedulers"`
	Calibration  []FleetCalibration   `json:"calibration"`
	Rows         []FleetRow           `json:"rows"`
	Replay       []fleet.NodeArtifact `json:"replay"`

	// Timeline is the merged per-cell time-series store when
	// FleetOpts.ScrapeInterval was set (ckibench -slo-out); it is not
	// part of the report JSON, so the committed artifact bytes do not
	// depend on whether scraping was on.
	Timeline *telemetry.Store `json:"-"`

	// RequestTraces holds one request recorder per grid cell (cell
	// order) when FleetOpts.TraceRequests was set. Like Timeline it is
	// not part of the report JSON: recording every request's lifecycle
	// leaves the committed artifact bytes unchanged (a test pins this).
	RequestTraces []*trace.RequestRecorder `json:"-"`
}

// FleetOpts parameterizes the experiment; zero values mean the
// committed-artifact defaults.
type FleetOpts struct {
	Scale    int
	Parallel int
	// Nodes overrides the fleet size (default fleetDefaultNodes).
	Nodes int
	// Sched restricts the run to one scheduler ("" = all).
	Sched string
	// ArrivalRate, when > 0, replaces the capacity curve with a single
	// open-loop segment at that absolute rate (arrivals/sec).
	ArrivalRate float64
	// TraceFile, when set, replaces the capacity curve with the
	// piecewise rate trace parsed from the file ("rate_per_sec
	// duration_ms" lines).
	TraceFile string
	// ScrapeInterval, when > 0, attaches a telemetry probe to every
	// grid cell (series labeled runtime/sched/load) and exposes the
	// merged timeline via FleetReport.Timeline. Pure observation: the
	// report rows are byte-identical with or without it.
	ScrapeInterval clock.Time
	// TraceRequests, when set, attaches a request recorder to every
	// grid cell and exposes them via FleetReport.RequestTraces. Pure
	// like ScrapeInterval: the report JSON bytes do not change.
	TraceRequests bool
}

// fleetCalibrate measures one runtime's cost model on a real machine:
// the boot is the virtual time New charges, the service time averages
// fleetCalibReqs requests after warmup, and the warm-restore cost is a
// checkpoint/restore round trip onto a fresh machine.
func fleetCalibrate(kind backends.Kind, opts backends.Options) (fleet.RuntimeCosts, string, error) {
	var costs fleet.RuntimeCosts
	c, err := backends.New(kind, opts)
	if err != nil {
		return costs, "", err
	}
	costs.Boot = c.Clk.Now()
	for i := 0; i < 4; i++ {
		if err := smpRequest(c.K); err != nil {
			return costs, "", err
		}
	}
	t0 := c.Clk.Now()
	for i := 0; i < fleetCalibReqs; i++ {
		if err := smpRequest(c.K); err != nil {
			return costs, "", err
		}
	}
	costs.Service = (c.Clk.Now() - t0) / fleetCalibReqs

	snap, err := backends.Checkpoint(c)
	if err != nil {
		return costs, "", fmt.Errorf("%s: checkpoint: %w", c.Name, err)
	}
	m2, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
	if err != nil {
		return costs, "", err
	}
	if _, err := backends.RestoreBytes(m2, snapshot.Encode(snap)); err != nil {
		return costs, "", fmt.Errorf("%s: restore: %w", c.Name, err)
	}
	costs.WarmRestore = m2.Clk.Now()
	return costs, c.Name, nil
}

// fleetSegment is one load segment of the grid: a label plus the
// arrival stream builder (deterministic per seed).
type fleetSegment struct {
	label string
	// offered is the nominal offered rate (arrivals/sec), 0 when the
	// segment defines its own shape (diurnal, trace).
	offered float64
	build   func(seed uint64) ([]des.Arrival, clock.Time)
	// storm marks the eviction-storm segment.
	storm bool
}

// fleetSegments builds the load axis for one runtime's capacity
// (arrivals/sec at which the fleet is nominally saturated).
func fleetSegments(o FleetOpts, capacity float64) ([]fleetSegment, error) {
	if o.TraceFile != "" {
		f, err := os.Open(o.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		segs, err := des.ParseRateTrace(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.TraceFile, err)
		}
		var horizon clock.Time
		var weighted float64
		for _, s := range segs {
			horizon += s.Dur
			weighted += s.RatePerSec * s.Dur.Seconds()
		}
		offered := 0.0
		if horizon > 0 {
			offered = weighted / horizon.Seconds()
		}
		return []fleetSegment{{
			label: "trace", offered: offered,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PiecewiseArrivals(seed, segs), horizon
			},
		}}, nil
	}
	if o.ArrivalRate > 0 {
		rate := o.ArrivalRate
		h := fleetShape.horizon(o.Scale, rate)
		return []fleetSegment{{
			label: "custom", offered: rate,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PoissonArrivals(seed, rate, h), h
			},
		}}, nil
	}
	var out []fleetSegment
	for _, mult := range fleetLoadPoints {
		rate := mult * capacity
		h := fleetShape.horizon(o.Scale, rate)
		out = append(out, fleetSegment{
			label: fmt.Sprintf("%.2fx", mult), offered: rate,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PoissonArrivals(seed, rate, h), h
			},
		})
	}
	// Bursty diurnal trace: trough at 0.4x, peak near 1.4x capacity.
	dh := fleetShape.horizon(o.Scale, 0.9*capacity)
	base := 0.4 * capacity
	out = append(out, fleetSegment{
		label: "diurnal", offered: 0.9 * capacity,
		build: func(seed uint64) ([]des.Arrival, clock.Time) {
			d := des.DiurnalTrace{
				Seed: seed, BaseRate: base, PeakFactor: 3.5, Periods: 2,
				BurstProb: 0.005, BurstSize: 6,
				BurstSpread: dh / 256, Horizon: dh,
			}
			return d.Arrivals(), dh
		},
	})
	// Eviction storm at steady 0.8x load.
	sh := fleetShape.horizon(o.Scale, 0.8*capacity)
	srate := 0.8 * capacity
	out = append(out, fleetSegment{
		label: "storm", offered: srate, storm: true,
		build: func(seed uint64) ([]des.Arrival, clock.Time) {
			return des.PoissonArrivals(seed, srate, sh), sh
		},
	})
	return out, nil
}

// fleetSchedulers resolves the scheduler axis.
func fleetSchedulers(name string) ([]fleet.Scheduler, error) {
	if name == "" {
		var out []fleet.Scheduler
		for _, n := range fleet.SchedulerNames() {
			s, err := fleet.SchedulerByName(n)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	s, err := fleet.SchedulerByName(name)
	if err != nil {
		return nil, err
	}
	return []fleet.Scheduler{s}, nil
}

// fleetCellConfig assembles the control-plane config for one grid
// cell. The arrival and demand seeds derive from (runtime, segment)
// only — both schedulers see the identical offered stream, so their
// rows are directly comparable.
func fleetCellConfig(nodes int, costs fleet.RuntimeCosts,
	ri, si int, seg fleetSegment, sched fleet.Scheduler) fleet.Config {
	seed := faults.Child(FleetSeed, ri*64+si)
	arrivals, horizon := seg.build(seed)
	cfg := fleetShape.config(nodes, costs, sched, seed, arrivals, horizon)
	if seg.storm {
		fleetShape.storm(&cfg)
	}
	return cfg
}

// RunFleet executes the fleet experiment. Deterministic: the same
// opts produce the same report, byte for byte, for any Parallel.
func RunFleet(o FleetOpts) (*FleetReport, error) {
	o.Scale, o.Parallel = max(o.Scale, 1), max(o.Parallel, 1)
	nodes := cmp.Or(o.Nodes, fleetDefaultNodes)
	scheds, err := fleetSchedulers(o.Sched)
	if err != nil {
		return nil, err
	}
	specs := runtimeGrid()

	// Stage 1 — calibration: one real container per runtime, cells
	// fanned out across host cores.
	costs, names, cal, err := calibrateGrid("fleet", o.Parallel, specs)
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{
		Seed: FleetSeed, Scale: o.Scale, Nodes: nodes,
		SlotsPerNode: fleetShape.slots, QueueLimit: fleetShape.queueLimit,
		MeanReqs: fleetShape.meanReqs, Calibration: cal,
	}
	for _, s := range scheds {
		rep.Schedulers = append(rep.Schedulers, s.Name())
	}

	// Stage 2 — the control-plane grid plus the replay cells, all
	// independent, all in one fan-out. Grid cell (ri, si, ci) simulates
	// one (runtime, segment, scheduler) fleet; replay cell (ri, ni)
	// recomputes its runtime's storm cell (cheap, pure) and re-executes
	// node ni of it on a real machine.
	segsPerRT := make([][]fleetSegment, len(specs))
	for ri := range specs {
		segs, err := fleetSegments(o, fleetShape.capacity(nodes, costs[ri]))
		if err != nil {
			return nil, err
		}
		segsPerRT[ri] = segs
	}
	nSegs := len(segsPerRT[0])
	nGrid := len(specs) * nSegs * len(scheds)
	nReplay := len(specs) * fleetReplayNodes
	rows := make([]FleetRow, nGrid)
	arts := make([]fleet.NodeArtifact, nReplay)
	var stores []*telemetry.Store
	if o.ScrapeInterval > 0 {
		stores = make([]*telemetry.Store, nGrid)
	}
	var recs []*trace.RequestRecorder
	if o.TraceRequests {
		recs = make([]*trace.RequestRecorder, nGrid)
	}
	// The replayed segment is the storm cell (last segment) under the
	// last scheduler in the axis.
	replaySeg := nSegs - 1
	replaySched := scheds[len(scheds)-1]

	err = RunIndexed(o.Parallel, nGrid+nReplay, func(ci int) error {
		if ci < nGrid {
			ri := ci / (nSegs * len(scheds))
			si := ci / len(scheds) % nSegs
			sj := ci % len(scheds)
			seg := segsPerRT[ri][si]
			cfg := fleetCellConfig(nodes, costs[ri], ri, si, seg, scheds[sj])
			if o.ScrapeInterval > 0 {
				store := telemetry.NewStore(o.ScrapeInterval, 0)
				cfg.Observe = telemetry.NewFleetProbe(metrics.NewRegistry(), store, nil,
					metrics.L("load", seg.label),
					metrics.L("runtime", names[ri]),
					metrics.L("sched", scheds[sj].Name()))
				cfg.ScrapeEvery = o.ScrapeInterval
				stores[ci] = store
			}
			if o.TraceRequests {
				recs[ci] = trace.NewRequestRecorder()
				cfg.Requests = recs[ci]
			}
			res, err := fleet.Run(cfg)
			if err != nil {
				return fmt.Errorf("fleet: %s/%s/%s: %w", names[ri], scheds[sj].Name(), seg.label, err)
			}
			rows[ci] = FleetRow{
				Runtime: names[ri], Sched: scheds[sj].Name(), Load: seg.label,
				OfferedPerSec: seg.offered,
				LatencyRow:    latencyRow(res, cfg.Horizon),
				Evicted:       res.Evicted,
				WarmRestores:  res.WarmRestores,
				ColdRedos:     res.ColdRedos,
			}
			return nil
		}
		ri := (ci - nGrid) / fleetReplayNodes
		ni := (ci - nGrid) % fleetReplayNodes
		seg := segsPerRT[ri][replaySeg]
		cfg := fleetCellConfig(nodes, costs[ri], ri, replaySeg, seg, replaySched)
		res, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("fleet: replay control %s: %w", names[ri], err)
		}
		w := replayWork(res.Nodes[ni], fleetShape.slots, fleetReplayMaxReqs)
		art, err := fleet.ReplayNode(w, specs[ri].kind, specs[ri].opts)
		if err != nil {
			return fmt.Errorf("fleet: replay %s node %d: %w", names[ri], w.Node, err)
		}
		arts[ci-nGrid] = *art
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Replay = arts
	if o.ScrapeInterval > 0 {
		// Merging in the fixed sequential cell order reproduces the
		// series order of a sequential run at any parallelism.
		merged := telemetry.NewStore(o.ScrapeInterval, 0)
		for _, st := range stores {
			merged.Merge(st)
		}
		rep.Timeline = merged
	}
	rep.RequestTraces = recs
	return rep, nil
}

// WriteFleetJSON writes the report in the exact encoding of the
// committed BENCH_fleet artifact.
func WriteFleetJSON(rep *FleetReport, w io.Writer) error { return writeJSON(w, rep) }

// WriteJSON writes the report in the committed BENCH_fleet encoding.
func (rep *FleetReport) WriteJSON(w io.Writer) error { return writeJSON(w, rep) }

// WriteTable renders the capacity curves and tails as a table.
func (rep *FleetReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("Fleet serving: %d nodes x %d slots, open-loop arrivals", rep.Nodes, rep.SlotsPerNode),
		"runtime", "sched", "load", "offered/s", "done", "rejected", "goodput/s", "p50", "p99", "p999", "maxQ")
	for _, r := range rep.Rows {
		t.Row(r.Runtime, r.Sched, r.Load,
			fmt.Sprintf("%.0f", r.OfferedPerSec),
			itoa(r.Completed), itoa(r.Rejected),
			fmt.Sprintf("%.0f", r.GoodputPerSec),
			fmt.Sprintf("%.2fms", r.P50Ms),
			fmt.Sprintf("%.2fms", r.P99Ms),
			fmt.Sprintf("%.2fms", r.P999Ms),
			itoa(r.MaxQueue))
	}
	t.Note("open-loop Poisson arrivals; goodput saturates at the runtime's boot+service")
	t.Note("capacity, overload turns into rejections (admission bound), and the storm row")
	t.Note("evicts a tenth of the nodes mid-run — snapshot-aged containers restore warm")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	rt := NewTable("Replayed storm nodes (real machines under the warm-restart supervisor)",
		"runtime", "node", "containers", "requests", "crashes", "warm", "cold", "virtual", "spans")
	for _, a := range rep.Replay {
		rt.Row(a.Runtime, itoa(a.Node), itoa(a.Containers), itoa(a.Requests),
			itoa(a.Crashes), itoa(a.WarmRestores), itoa(a.ColdRestarts),
			(clock.Time(a.VirtualNs) * clock.Nanosecond).String(), itoa(a.Spans))
	}
	_, err := rt.WriteTo(w)
	return err
}

// Invariants checks what BENCH_fleet promises: a calibrated cost model
// per runtime; a complete runtime x scheduler x load grid with >= 1000
// arrivals per cell and monotone tails; an overload segment that
// rejects; a storm that evicts every time, restores warm somewhere, and
// accounts for each eviction; and a non-empty replay digest for each of
// every runtime's replayed storm nodes.
func (rep *FleetReport) Invariants() error {
	cells := map[string]bool{}
	for _, r := range rep.Rows {
		cells[r.Runtime+"/"+r.Sched+"/"+r.Load] = true
	}
	want := len(runtimeGrid()) * len(rep.Schedulers) * (len(fleetLoadPoints) + 2) // + diurnal + storm
	if len(rep.Calibration) != len(runtimeGrid()) || len(rep.Rows) != want || len(cells) != want {
		return fmt.Errorf("fleet: %d calibrations and %d rows over %d cells, want %d and %d",
			len(rep.Calibration), len(rep.Rows), len(cells), len(runtimeGrid()), want)
	}
	for _, c := range rep.Calibration {
		if c.Runtime == "" || c.BootNs < 0 || c.ServiceNs <= 0 || c.WarmRestoreNs <= 0 {
			return fmt.Errorf("fleet: degenerate calibration: %+v", c)
		}
	}
	overload := fmt.Sprintf("%.2fx", fleetLoadPoints[len(fleetLoadPoints)-1])
	overloadRejects, warm := false, false
	for _, r := range rep.Rows {
		switch {
		case r.Arrived < 1000:
			return fmt.Errorf("fleet: %s/%s/%s: only %d arrivals", r.Runtime, r.Sched, r.Load, r.Arrived)
		case r.P50Ms > r.P99Ms || r.P99Ms > r.P999Ms:
			return fmt.Errorf("fleet: %s/%s/%s: quantiles not monotone: %+v", r.Runtime, r.Sched, r.Load, r)
		case r.Load == "storm" && (r.Evicted == 0 || r.WarmRestores+r.ColdRedos > r.Evicted):
			// Running instances split warm/cold; displaced queued ones just
			// re-place, so the split never exceeds the eviction count.
			return fmt.Errorf("fleet: %s/%s: storm evictions unaccounted: %+v", r.Runtime, r.Sched, r)
		}
		overloadRejects = overloadRejects || r.Load == overload && r.Rejected > 0
		warm = warm || r.Load == "storm" && r.WarmRestores > 0
	}
	if !overloadRejects || !warm {
		return fmt.Errorf("fleet: %s rejects %v, storm restores warm %v; want both", overload, overloadRejects, warm)
	}
	if want := len(runtimeGrid()) * fleetReplayNodes; len(rep.Replay) != want {
		return fmt.Errorf("fleet: %d replay digests, want %d", len(rep.Replay), want)
	}
	for _, a := range rep.Replay {
		if a.Runtime == "" || a.Node >= rep.Nodes || a.Requests == 0 || a.Spans == 0 || a.MetricsFNV == 0 {
			return fmt.Errorf("fleet: degenerate replay digest: %+v", a)
		}
	}
	return nil
}
