package bench

import (
	"fmt"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// The fleet-cell harness: the pieces the fleet, tail, slo and
// serverless experiments share. Each experiment keeps only what makes
// it different — its constants, its load axis, its observers and its
// report — and builds its cells from these.

// runtimeSpec is one runtime of an experiment's runtime axis.
type runtimeSpec struct {
	kind backends.Kind
	opts backends.Options
}

// runtimeGrid is the runtime axis of the chaos, snapshot, fleet, tail,
// slo and serverless experiments: every runtime, sized for many small
// co-resident containers (a fleet replay node shares one machine).
func runtimeGrid() []runtimeSpec {
	vm := backends.Options{GuestFrames: 1 << 12}
	return []runtimeSpec{
		{backends.RunC, backends.Options{}},
		{backends.HVM, vm},
		{backends.PVM, vm},
		{backends.CKI, backends.Options{SegmentFrames: 1 << 11}},
		{backends.GVisor, backends.Options{}},
	}
}

// calibrateGrid measures every runtime's fleet cost model
// (fleetCalibrate), one cell per runtime fanned out across parallel
// host cores. It returns the costs, the runtimes' names and the
// report's calibration rows, all in specs order; exp prefixes errors.
func calibrateGrid(exp string, parallel int, specs []runtimeSpec) ([]fleet.RuntimeCosts, []string, []FleetCalibration, error) {
	costs := make([]fleet.RuntimeCosts, len(specs))
	names := make([]string, len(specs))
	err := RunIndexed(parallel, len(specs), func(i int) error {
		c, name, err := fleetCalibrate(specs[i].kind, specs[i].opts)
		if err != nil {
			return fmt.Errorf("%s: calibrate %v: %w", exp, specs[i].kind, err)
		}
		costs[i], names[i] = c, name
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rows := make([]FleetCalibration, len(specs))
	for i, c := range costs {
		rows[i] = FleetCalibration{
			Runtime:       names[i],
			BootNs:        c.Boot.Nanos(),
			ServiceNs:     c.Service.Nanos(),
			WarmRestoreNs: c.WarmRestore.Nanos(),
		}
	}
	return costs, names, rows, nil
}

// cellShape is one experiment's fleet-cell constants.
type cellShape struct {
	// slots x nodes is the fleet; queueLimit is the per-node admission
	// bound; meanReqs is the mean per-container request demand.
	slots, queueLimit, meanReqs int
	// arrivals is the arrival volume a cell targets per scale unit; the
	// horizon adjusts to the offered rate.
	arrivals int
	// The eviction storm: at horizon/evictAt, stormNodes(nodes) nodes
	// go down for horizon/downFor.
	evictAt, downFor clock.Time
	stormNodes       func(nodes int) int
}

// lifetime is a container's nominal run time: one boot plus its mean
// request demand.
func (s cellShape) lifetime(c fleet.RuntimeCosts) clock.Time {
	return c.Boot + clock.Time(s.meanReqs)*c.Service
}

// capacity is the arrival rate (per second) at which a fleet of nodes
// is nominally saturated.
func (s cellShape) capacity(nodes int, c fleet.RuntimeCosts) float64 {
	return float64(nodes*s.slots) / s.lifetime(c).Seconds()
}

// horizon sizes a cell so it carries ~s.arrivals arrivals per scale
// unit at the given rate.
func (s cellShape) horizon(scale int, rate float64) clock.Time {
	return clock.Time(float64(s.arrivals*scale) / rate * float64(clock.Second))
}

// config assembles one cell's control-plane config.
func (s cellShape) config(nodes int, costs fleet.RuntimeCosts, sched fleet.Scheduler, seed uint64,
	arrivals []des.Arrival, horizon clock.Time) fleet.Config {
	return fleet.Config{
		Nodes: nodes, SlotsPerNode: s.slots, QueueLimit: s.queueLimit,
		Costs: costs, MeanReqs: s.meanReqs,
		Arrivals: arrivals, Horizon: horizon,
		Seed: seed, Sched: sched,
	}
}

// poisson assembles one cell driven by steady Poisson arrivals at rate.
func (s cellShape) poisson(scale, nodes int, costs fleet.RuntimeCosts, sched fleet.Scheduler, seed uint64, rate float64) fleet.Config {
	h := s.horizon(scale, rate)
	return s.config(nodes, costs, sched, seed, des.PoissonArrivals(seed, rate, h), h)
}

// storm adds the shape's eviction storm to cfg. Containers that ran a
// quarter of their lifetime hold a snapshot and can restore warm.
func (s cellShape) storm(cfg *fleet.Config) {
	cfg.SnapshotAge = s.lifetime(cfg.Costs) / 4
	cfg.EvictAt = cfg.Horizon / s.evictAt
	cfg.EvictNodes = s.stormNodes(cfg.Nodes)
	cfg.DownFor = cfg.Horizon / s.downFor
}

// replayWork is the work a machine replay re-executes for one
// control-plane node: slots containers serving the node's requests,
// capped at maxReqs so a small fleet cannot make a replay cell
// arbitrarily slow, and two crashes if the node crashed.
func replayWork(stat fleet.NodeStat, slots, maxReqs int) fleet.NodeWork {
	w := fleet.NodeWork{Node: stat.Node, Containers: slots, Requests: min(stat.Requests, maxReqs)}
	if stat.Crashed {
		w.Crashes = 2
	}
	return w
}

// millis reports t in milliseconds.
func millis(t clock.Time) float64 { return float64(t) / float64(clock.Millisecond) }

// LatencyRow is one fleet cell's admission and latency outcome.
// FleetRow and ServerlessRow embed it, and encoding/json writes its
// fields in place.
type LatencyRow struct {
	Arrived       int     `json:"arrived"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	MaxQueue      int     `json:"max_queue"`
}

// latencyRow fills a LatencyRow from a run over the given horizon.
func latencyRow(res *fleet.Result, horizon clock.Time) LatencyRow {
	return LatencyRow{
		Arrived: res.Arrived, Completed: res.Completed, Rejected: res.Rejected,
		GoodputPerSec: res.Goodput(horizon),
		MeanMs:        millis(res.MeanLatency()),
		P50Ms:         millis(res.Quantile(0.5)),
		P99Ms:         millis(res.Quantile(0.99)),
		P999Ms:        millis(res.Quantile(0.999)),
		MaxQueue:      res.MaxQueue,
	}
}

// decompose extracts one request's latency components from its causal
// segment chain, enforcing the conservation law on the way: the chain
// must tile its span, and the components must sum to the latency.
func decompose(segs []trace.Segment) (TailComponents, error) {
	var c TailComponents
	total, err := trace.Conserve(segs)
	if err != nil {
		return c, err
	}
	for _, s := range segs {
		switch s.Kind {
		case trace.SegQueue:
			c.QueuePs += int64(s.Dur)
		case trace.SegBoot, trace.SegForkBoot:
			c.BootPs += int64(s.Dur)
		case trace.SegWarmRestore:
			c.WarmRestorePs += int64(s.Dur)
		case trace.SegService:
			c.ServicePs += int64(s.Dur)
		case trace.SegStormRedo:
			c.StormRedoPs += int64(s.Dur)
		case trace.SegPlacement:
			c.Placements++
		case trace.SegEvict:
			c.Evictions++
		}
	}
	c.TotalPs = int64(total)
	if !c.conserves() {
		return c, fmt.Errorf("request %s: components sum to %d ps, latency is %d ps",
			segs[0].Req, c.QueuePs+c.BootPs+c.WarmRestorePs+c.ServicePs+c.StormRedoPs, c.TotalPs)
	}
	return c, nil
}
